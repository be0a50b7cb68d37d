#!/usr/bin/env python
"""Run the registered experiments and emit the EXPERIMENTS.md block.

Usage::

    python scripts/run_experiments.py --list
    python scripts/run_experiments.py --scale quick
    python scripts/run_experiments.py --scale quick --jobs 4
    python scripts/run_experiments.py --only E2 E4
    python scripts/run_experiments.py --scale default -o results.md
    python scripts/run_experiments.py --scale default --store results.store
    python scripts/run_experiments.py --scale default --store results.store --resume
    python scripts/run_experiments.py store stats --store results.store

The script iterates the experiment registry
(:mod:`repro.experiments.api`) generically: every reproduced
figure/table is a registered :class:`ExperimentSpec` (plus one custom
queue-trace runner), so ``--list`` enumerates them and ``--only``
selects by eid (``E2``), name (``link_speed``), or title substring.
Every spec runs through :func:`run_experiment` and prints its own
table (:meth:`ExperimentSpec.render`) as it completes — on either
``--backend`` — and the combined markdown lands on stdout (or ``-o``).
An experiment the run cannot do (an untrained asset, a packet-only
scheme under ``--backend fluid``) is recorded as ``SKIPPED: <reason>``
and the rest still run.  For grids the paper never ran, see
``scripts/sweep.py``.

``--scale`` picks a named simulation budget
(:meth:`repro.core.scale.Scale.named`): ``quick`` matches the benchmark
harness's budget; ``default`` is the scale EXPERIMENTS.md records.

``--jobs N`` fans each experiment's (scenario × seed) grid out over an
``N``-worker process pool via :mod:`repro.exec`; the tables are
bitwise-identical to a serial run (the executors' determinism
contract), only faster.

``--fake-taos`` substitutes a fixed hand-built rule table for every
trained asset, so the full pipeline (and the parallel executor) can be
exercised before ``scripts/train_assets.py`` has produced real Taos —
the numbers are then *not* the paper's, only the plumbing.

``--store PATH`` persists every simulation result to a disk-backed
:class:`~repro.exec.ResultStore` as it completes, and serves any result
already there without re-simulating: a sweep killed halfway resumes
from everything it finished, and training (``train_assets.py --store``)
and experiments share results through the same store.  ``--resume``
additionally requires the store to exist already (typo guard).  The
``store stats|gc|verify`` subcommand inspects or repairs a store.
"""

from __future__ import annotations

import argparse
import io
import sys
import time

from repro.core.scale import Scale
from repro.exec import (BackendRefusal, TaskFailedError,
                        add_execution_arguments, executor_from_args,
                        store_main, store_summary)
from repro.experiments.api import (FAKE_TREE, experiments,
                                   run_experiment)
from repro.profiling import maybe_profile


def _selected(entries, only):
    """Filter registry entries by eid, name, or title substring."""
    if not only:
        return list(entries)
    needles = [piece.strip().lower()
               for token in only for piece in token.split(",")
               if piece.strip()]
    picked = []
    for entry in entries:
        for needle in needles:
            if (needle in (entry.eid.lower(), entry.name.lower())
                    or needle in entry.title.lower()):
                picked.append(entry)
                break
    return picked


def _list_experiments(scale: Scale) -> None:
    for entry in experiments():
        if entry.spec is None:
            shape = "custom runner"
        else:
            axes = entry.spec.axes_for(scale)
            grid = " × ".join(f"{axis.name}[{len(axis.values)}]"
                              for axis in axes) or "1 point"
            shape = f"{len(entry.spec.schemes)} schemes × {grid}"
        print(f"{entry.eid:<3} {entry.name:<16} {shape}")
        print(f"    {entry.title}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        return store_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(Scale.names()),
                        default="quick")
    parser.add_argument("-o", "--output", default=None,
                        help="also write the combined report here")
    parser.add_argument("--list", action="store_true",
                        help="list the registered experiments and exit")
    parser.add_argument("--only", nargs="*", default=None,
                        help="run a subset: eids (E2), names "
                             "(link_speed), or title substrings; "
                             "comma-separated or repeated")
    parser.add_argument("--backend", choices=("packet", "fluid"),
                        default="packet",
                        help="simulation engine; 'fluid' runs every "
                             "spec on the vectorized fluid model "
                             "(approximate — see docs/PERFORMANCE.md) "
                             "and skips what it cannot run: packet-only "
                             "schemes and the custom-runner entry")
    parser.add_argument("--fake-taos", action="store_true",
                        help="substitute a fixed hand-built rule table "
                             "for every trained asset (plumbing check, "
                             "not the paper's numbers)")
    add_execution_arguments(parser)
    args = parser.parse_args(argv)
    scale = Scale.named(args.scale)
    if args.list:
        _list_experiments(scale)
        return 0

    report = io.StringIO()
    report.write(f"Results at scale={args.scale!r} "
                 f"(duration<={scale.duration_s:g}s, "
                 f"{scale.n_seeds} seeds, "
                 f"{scale.sweep_points} sweep points)\n")
    executor = executor_from_args(args)
    failed = 0
    with executor, maybe_profile(args.profile):
        for entry in _selected(experiments(), args.only):
            overrides = None
            if args.fake_taos:
                overrides = {asset: FAKE_TREE
                             for asset in entry.assets}
            started = time.time()
            print(f"\n### {entry.title}", flush=True)
            try:
                if entry.spec is None:
                    block = entry.custom.run(scale, overrides, executor,
                                             args.backend)
                else:
                    block = entry.spec.render(run_experiment(
                        entry.spec, scale=scale, trees=overrides,
                        executor=executor, backend=args.backend))
            except (FileNotFoundError, BackendRefusal) as error:
                block = f"SKIPPED: {error}"
            except TaskFailedError as error:
                # One experiment's poison must not silently eat the
                # rest of the report: record the failure in its block,
                # keep going, exit non-zero at the end.
                block = f"FAILED: {error}"
                failed += 1
            print(block, flush=True)
            elapsed = time.time() - started
            print(f"({elapsed:.0f}s)", flush=True)
            report.write(f"\n### {entry.title}\n```\n{block}\n```\n")
        summary = store_summary(executor)
        if summary:
            print(f"\n{summary}", flush=True)

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report.getvalue())
        print(f"\nreport written to {args.output}")
    if failed:
        print(f"\n{failed} experiment(s) failed on poison tasks",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
