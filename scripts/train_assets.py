#!/usr/bin/env python
"""Train the Tao rule tables shipped under ``repro/data/assets``.

Usage::

    python scripts/train_assets.py --assets tao_2x tao_10x --jobs 8
    python scripts/train_assets.py --all --jobs 20
    python scripts/train_assets.py --all --jobs 20 --store train.store
    python scripts/train_assets.py store stats --store train.store

Each asset corresponds to one entry of :data:`repro.remy.catalog.CATALOG`
(one row of the paper's training tables).  Co-optimized pairs (Table 7a)
are trained together when either member is requested.

``--jobs N`` fans the evaluator's (tree, config, seed) batches out over
an ``N``-worker pool via :mod:`repro.exec`; training results are
bitwise-identical to a serial run (common random numbers are preserved
by the execution layer's determinism contract).

The paper's Remy runs used a CPU-year per protocol; this script's budget
is minutes per protocol (see "Substitutions" in README.md), tunable
via ``--budget``, ``--generations``, and ``--configs``.

``--screen fluid --confirm-top K`` screens each candidate batch on the
vectorized fluid backend (:mod:`repro.sim.fluid`) and re-scores only
the most promising ``K`` (plus any candidate whose fluid score still
beats the best confirmed packet score) on the exact packet engine —
every adopted action is packet-confirmed, so screening changes wall
time, never the adoption criterion's engine.

``--store PATH`` persists every training simulation to a disk-backed
:class:`~repro.exec.ResultStore` keyed by task fingerprint: a killed
training run resumes its already-simulated evaluations from disk, and
``run_experiments.py --store`` pointed at the same path reuses them.
``--resume`` requires the store to exist already; the ``store
stats|gc|verify`` subcommand inspects or repairs one.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict

from repro.core.scale import Scale
from repro.exec import (TaskFailedError, add_execution_arguments,
                        default_jobs, executor_from_args, store_main,
                        store_summary)
from repro.profiling import maybe_profile
from repro.remy.assets import save_asset
from repro.remy.catalog import CATALOG
from repro.remy.evaluator import EvalSettings
from repro.remy.optimizer import (OptimizerSettings, RemyOptimizer,
                                  cooptimize)
from repro.remy.tree import WhiskerTree


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--assets", nargs="*", default=[],
                        help="catalog names to train")
    parser.add_argument("--all", action="store_true",
                        help="train every catalog entry")
    parser.add_argument("--budget", type=float, default=360.0,
                        help="wall-clock seconds per asset")
    parser.add_argument("--generations", type=int, default=2)
    parser.add_argument("--action-steps", type=int, default=6)
    parser.add_argument("--configs", type=int, default=6,
                        help="scenario samples per evaluation")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="max simulated seconds per training run")
    parser.add_argument("--packet-budget", type=int, default=25_000)
    parser.add_argument("--coopt-rounds", type=int, default=2)
    parser.add_argument("--screen", choices=("fluid",), default=None,
                        help="score candidate batches on the vectorized "
                             "fluid backend first, then confirm the "
                             "best on the packet engine (adopted "
                             "actions are always packet-scored; see "
                             "docs/PERFORMANCE.md)")
    parser.add_argument("--confirm-top", type=int, default=4,
                        help="screened candidates to packet-confirm "
                             "per batch (with --screen)")
    add_execution_arguments(parser, default_jobs=default_jobs())
    return parser.parse_args(argv)


def settings_for(args: argparse.Namespace,
                 spec_name: str) -> tuple[EvalSettings, OptimizerSettings]:
    eval_settings = EvalSettings(
        n_configs=args.configs,
        sim_seeds=(1,),
        scale=Scale(duration_s=args.duration,
                    packet_budget=args.packet_budget,
                    min_duration_s=4.0))
    opt_settings = OptimizerSettings(
        generations=args.generations,
        max_action_steps=args.action_steps,
        time_budget_s=args.budget)
    return eval_settings, opt_settings


def train_single(name: str, args: argparse.Namespace, executor) -> None:
    spec = CATALOG[name]
    eval_settings, opt_settings = settings_for(args, name)
    started = time.time()
    print(f"[{name}] training started", flush=True)
    optimizer = RemyOptimizer(
        spec.training, eval_settings, opt_settings, executor=executor,
        progress=lambda msg: print(f"[{name}] {msg}", flush=True),
        screen=args.screen, confirm_top=args.confirm_top)
    tree = WhiskerTree(mask=spec.mask)
    tree, log = optimizer.train(tree)
    save_asset(name, tree,
               training_range=asdict(spec.training),
               log={"scores": log.scores, "tree_sizes": log.tree_sizes,
                    "evaluations": log.evaluations,
                    "wall_time_s": log.wall_time_s,
                    "paper_table": spec.paper_table})
    print(f"[{name}] done in {time.time() - started:.0f}s "
          f"score={log.final_score:.3f} whiskers={len(tree)}", flush=True)


def train_coopt_pair(name_a: str, name_b: str,
                     args: argparse.Namespace, executor) -> None:
    spec_a, spec_b = CATALOG[name_a], CATALOG[name_b]
    eval_settings, opt_settings = settings_for(args, name_a)
    started = time.time()
    print(f"[{name_a}+{name_b}] co-optimization started", flush=True)
    tree_a, tree_b = cooptimize(
        spec_a.training, spec_b.training, eval_settings, opt_settings,
        rounds=args.coopt_rounds, executor=executor,
        progress=lambda msg: print(f"[coopt] {msg}", flush=True),
        screen=args.screen, confirm_top=args.confirm_top)
    for name, spec, tree in ((name_a, spec_a, tree_a),
                             (name_b, spec_b, tree_b)):
        save_asset(name, tree, training_range=asdict(spec.training),
                   log={"paper_table": spec.paper_table,
                        "coopt_partner": spec.coopt_partner,
                        "wall_time_s": time.time() - started})
    print(f"[{name_a}+{name_b}] done in {time.time() - started:.0f}s",
          flush=True)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        return store_main(argv[1:])
    args = parse_args(argv)
    names = list(CATALOG) if args.all else list(args.assets)
    unknown = [n for n in names if n not in CATALOG]
    if unknown:
        print(f"unknown assets: {unknown}", file=sys.stderr)
        print(f"available: {sorted(CATALOG)}", file=sys.stderr)
        return 2
    if not names:
        print("nothing to train (use --assets or --all)", file=sys.stderr)
        return 2

    done = set()
    executor = executor_from_args(args)
    with executor, maybe_profile(args.profile):
        try:
            for name in names:
                if name in done:
                    continue
                partner = CATALOG[name].coopt_partner
                if partner is not None:
                    train_coopt_pair(name, partner, args, executor)
                    done.update((name, partner))
                else:
                    train_single(name, args, executor)
                    done.add(name)
        except TaskFailedError as error:
            # Training cannot quarantine around a missing score — a
            # candidate compared on partial evidence would corrupt the
            # search — so any exhausted task aborts the asset.
            print(f"training aborted: {error}", file=sys.stderr)
            return 3
        summary = store_summary(executor)
        if summary:
            print(summary, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
