#!/usr/bin/env python
"""Compose and run ad-hoc scenario grids the paper never measured.

Usage::

    python scripts/sweep.py --axis rtt_ms=log:1:300:7 \
        --axis queue=droptail,codel --schemes cubic,tao_rtt_50_250
    python scripts/sweep.py --axis link_mbps=log:1:1000:9 \
        --schemes cubic,newreno,vegas --jobs 8 --csv sweep.csv
    python scripts/sweep.py --axis senders=logint:1:100:6 \
        --schemes cubic --store sweep.store --resume
    python scripts/sweep.py store stats --store sweep.store

Every ``--axis NAME=SPEC`` adds one grid dimension; ``SPEC`` is either a
spacing rule (``log:LO:HI:N``, ``lin:LO:HI:N``, ``logint:``/``linint:``
for rounded deduplicated integers) or an explicit comma-separated value
list.  Axes sweep any dumbbell knob: ``link_mbps``, ``rtt_ms``,
``senders``, ``queue``, ``buffer_bdp`` (``none`` = infinite),
``buffer_bytes``, ``mean_on_s``, ``mean_off_s``, ``delta``, plus the
link-dynamics knobs ``outage`` (blackout windows as
``0.5-1.0+2.0-2.5`` tokens, ``none`` = static), ``outage_policy``
(``hold``/``drop``), ``jitter_ms``, ``jitter_period_s``, and the queue
ECN knob ``ecn_threshold`` (marking threshold in packets, ``none`` =
ECN off); whatever isn't swept comes from the matching
``--link-mbps``/``--rtt-ms``/... flag (defaults: the calibration
network).

``--adversary`` replaces the grid's outage axis with a *searched* one:
a seeded hill-climb moves ``--adversary-active`` blackout windows
(among ``--adversary-windows`` equal slices of the run) to minimize the
first scheme's objective, then sweeps every scheme over ``none`` vs the
worst pattern found — the learned-Tao brittleness probe.  See
docs/EXPERIMENTS.md ("Hostile networks").

``--schemes`` mixes registered protocols (``cubic``, ``newreno``,
``aimd``, ``vegas``) with trained Tao asset names (run as homogeneous
``learner`` senders); ``--fake-taos`` substitutes a hand-built rule
table for any asset so plumbing can be exercised before training.

The grid is expanded by the same engine the registered experiments run
on (:func:`repro.experiments.api.run_experiment`), so ``--jobs`` fans
the whole (cell × seed) batch over a process pool and ``--store`` /
``--resume`` make it resumable for free.  Output: an aligned table on
stdout (or ``-o``), plus optional ``--csv`` / ``--json`` exports of the
long-form rows.  An analytic omniscient reference row is added per grid
point unless ``--no-bound``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.scale import Scale
from repro.experiments.adversary import AdversarialAxis
from repro.experiments.api import (FAKE_TREE, AdhocBase, Axis,
                                   _adhoc_setting, adhoc_spec,
                                   run_experiment)
from repro.exec import (BackendRefusal, TaskFailedError,
                        add_execution_arguments, executor_from_args,
                        store_main, store_summary)
from repro.profiling import maybe_profile
from repro.protocols.registry import available_schemes


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--axis", action="append", default=[],
                        metavar="NAME=SPEC",
                        help="add a grid dimension (repeatable); SPEC = "
                             "log:LO:HI:N | lin:LO:HI:N | logint:... | "
                             "linint:... | v1,v2,...")
    parser.add_argument("--schemes", required=False, default="cubic",
                        help="comma-separated protocols and/or Tao "
                             "asset names (default: cubic)")
    parser.add_argument("--name", default="sweep",
                        help="sweep name used in the table/JSON header")
    parser.add_argument("--scale", choices=sorted(Scale.names()),
                        default="quick")
    parser.add_argument("--seeds", type=int, default=None,
                        help="override the scale's replication count")
    parser.add_argument("--base-seed", type=int, default=1)
    parser.add_argument("--backend", choices=("packet", "fluid"),
                        default="packet",
                        help="simulation engine: exact event-driven "
                             "packet engine, or the vectorized fluid "
                             "model (much faster on large grids; "
                             "fidelity documented in "
                             "docs/PERFORMANCE.md)")
    parser.add_argument("--no-bound", action="store_true",
                        help="skip the analytic omniscient reference "
                             "rows")
    parser.add_argument("--fake-taos", action="store_true",
                        help="substitute a hand-built rule table for "
                             "every non-protocol scheme name")
    # defaults for everything not swept
    parser.add_argument("--link-mbps", type=float,
                        default=AdhocBase.link_mbps)
    parser.add_argument("--rtt-ms", type=float,
                        default=AdhocBase.rtt_ms)
    parser.add_argument("--senders", type=int,
                        default=AdhocBase.n_senders)
    parser.add_argument("--queue", default=AdhocBase.queue)
    parser.add_argument("--buffer-bdp", default=AdhocBase.buffer_bdp,
                        help="bottleneck buffer in BDPs ('none' = "
                             "infinite)")
    parser.add_argument("--buffer-bytes", default=None,
                        help="bottleneck buffer in bytes (overrides "
                             "--buffer-bdp)")
    parser.add_argument("--mean-on-s", type=float,
                        default=AdhocBase.mean_on_s)
    parser.add_argument("--mean-off-s", type=float,
                        default=AdhocBase.mean_off_s)
    parser.add_argument("--delta", type=float, default=AdhocBase.delta)
    parser.add_argument("--outage", default=AdhocBase.outage,
                        help="bottleneck blackout windows, e.g. "
                             "'0.5-1.0+2.0-2.5' ('none' = static)")
    parser.add_argument("--outage-policy", default=AdhocBase.outage_policy,
                        choices=("hold", "drop"),
                        help="down links hold queued packets or drop "
                             "arrivals")
    parser.add_argument("--jitter-ms", type=float,
                        default=AdhocBase.jitter_ms,
                        help="one-way delay jitter half-width "
                             "(packet backend only)")
    parser.add_argument("--jitter-period-s", type=float,
                        default=AdhocBase.jitter_period_s)
    parser.add_argument("--ecn-threshold", default="none",
                        help="ECN marking threshold in packets applied "
                             "to every bottleneck queue ('none' = ECN "
                             "off); only ECN-capable schemes (dctcp) "
                             "react")
    # adversarial search over outage patterns
    parser.add_argument("--adversary", action="store_true",
                        help="search for the outage pattern that "
                             "minimizes the first scheme's objective, "
                             "then sweep all schemes over none vs it")
    parser.add_argument("--adversary-windows", type=int, default=8,
                        metavar="N",
                        help="equal time slices the pattern chooses "
                             "from (default 8)")
    parser.add_argument("--adversary-active", type=int, default=2,
                        metavar="K",
                        help="blacked-out slices per pattern "
                             "(default 2)")
    parser.add_argument("--adversary-iters", type=int, default=12,
                        metavar="N",
                        help="hill-climb proposals (default 12)")
    parser.add_argument("--adversary-seed", type=int, default=0)
    # output
    parser.add_argument("-o", "--output", default=None,
                        help="also write the table here")
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="write the long-form rows as CSV")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the long-form rows as JSON")
    add_execution_arguments(parser)
    args = parser.parse_args(argv)
    if not args.axis and not args.adversary:
        parser.error("need at least one --axis NAME=SPEC "
                     "(or --adversary)")
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be >= 1")
    for flag in ("buffer_bdp", "buffer_bytes", "ecn_threshold"):
        try:
            setattr(args, flag,
                    _adhoc_setting(flag, getattr(args, flag)))
        except ValueError:
            parser.error(f"--{flag.replace('_', '-')}: expected a "
                         f"number or 'none', got "
                         f"{getattr(args, flag)!r}")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        return store_main(argv[1:])
    args = parse_args(argv)

    base = AdhocBase(
        link_mbps=args.link_mbps, rtt_ms=args.rtt_ms,
        n_senders=args.senders, queue=args.queue,
        buffer_bdp=args.buffer_bdp, buffer_bytes=args.buffer_bytes,
        mean_on_s=args.mean_on_s, mean_off_s=args.mean_off_s,
        delta=args.delta,
        outage=args.outage, outage_policy=args.outage_policy,
        jitter_ms=args.jitter_ms,
        jitter_period_s=args.jitter_period_s,
        ecn_threshold=args.ecn_threshold)
    schemes = [name.strip() for name in args.schemes.split(",")
               if name.strip()]
    try:
        axes = [Axis.parse(text) for text in args.axis]
        adversary = None
        if args.adversary:
            if any(axis.name == "outage" for axis in axes):
                raise ValueError(
                    "--adversary searches the outage axis; drop the "
                    "explicit --axis outage=...")
            adversary = AdversarialAxis(
                windows=args.adversary_windows,
                active=args.adversary_active,
                iters=args.adversary_iters,
                seed=args.adversary_seed,
                policy=args.outage_policy)
        spec = None
        if adversary is None:
            spec = adhoc_spec(axes, schemes, name=args.name, base=base,
                              bound=not args.no_bound)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scale = Scale.named(args.scale)
    if args.seeds is not None:
        scale = scale.with_seeds(args.seeds)
    overrides = None
    if args.fake_taos:
        protocols = set(available_schemes())
        overrides = {name: FAKE_TREE for name in schemes
                     if name not in protocols}

    executor = executor_from_args(args)
    started = time.time()
    with executor, maybe_profile(args.profile):
        try:
            if adversary is not None:
                search = adversary.resolve(
                    schemes[0], base=base, scale=scale,
                    trees=overrides, executor=executor,
                    base_seed=args.base_seed, backend=args.backend,
                    log=lambda message: print(message, flush=True))
                print(search.summary(), flush=True)
                spec = adhoc_spec([*axes, search.axis], schemes,
                                  name=args.name, base=base,
                                  bound=not args.no_bound)
            result = run_experiment(
                spec, scale=scale, trees=overrides,
                base_seed=args.base_seed, executor=executor,
                backend=args.backend)
        except BackendRefusal as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except FileNotFoundError as error:
            print(f"missing asset: {error}", file=sys.stderr)
            print("(train it with scripts/train_assets.py, or pass "
                  "--fake-taos to exercise the plumbing)",
                  file=sys.stderr)
            return 2
        except TaskFailedError as error:
            print(f"execution failed: {error}", file=sys.stderr)
            if args.on_failure == "raise":
                print("(rerun with --on-failure=quarantine to record "
                      "the poison task and finish everything else)",
                      file=sys.stderr)
            elif args.store:
                print(f"(quarantined fingerprints are recorded in "
                      f"{args.store}; inspect with "
                      f"'store stats --store {args.store} --strict')",
                      file=sys.stderr)
            return 3
        table = result.format_table()
        print(table, flush=True)
        print(f"({time.time() - started:.0f}s)", flush=True)
        summary = store_summary(executor)
        if summary:
            print(summary, flush=True)

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(table + "\n")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(result.to_csv())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(result.to_json(indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
