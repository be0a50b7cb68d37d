"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at
``BENCH_SCALE`` (seconds of wall-clock per experiment, not the paper's
CPU-days) and prints the rows next to the paper's reported shape, so
``pytest benchmarks/ --benchmark-only`` doubles as a reproduction
report.  EXPERIMENTS.md records a DEFAULT-scale run of the same code.
"""

from __future__ import annotations

import pytest

from repro.core.scale import Scale
from repro.experiments.api import run_experiment
from repro.remy.assets import available_assets

#: Benchmarks trade statistical tightness for wall-clock time — the
#: same named "quick" budget the CLI scripts run (one lookup, no
#: second SCALES dict to drift).
BENCH_SCALE = Scale.named("quick")

#: A finer scale for the cheap, single-scenario benches.
BENCH_SCALE_FINE = Scale(duration_s=30.0, packet_budget=60_000,
                         min_duration_s=4.0, n_seeds=3, sweep_points=5)


def require_assets(*names: str) -> None:
    """Skip a bench (not fail) when its rule tables are not trained yet."""
    missing = sorted(set(names) - set(available_assets()))
    if missing:
        pytest.skip(f"assets not trained yet: {missing} "
                    "(run scripts/train_assets.py)")


def run_spec(benchmark, spec, scale: Scale):
    """Time one ``run_experiment`` pass of ``spec`` on its shipped
    assets; skips when they are not trained yet."""
    require_assets(*spec.assets)
    return benchmark.pedantic(
        lambda: run_experiment(spec, scale=scale),
        rounds=1, iterations=1)


def banner(title: str, paper_claim: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print(f"paper: {paper_claim}")
    print("=" * 72)
