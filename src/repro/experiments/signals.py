"""Experiment E9 — the value of congestion signals (section 3.4).

The paper "knocks out" each of RemyCC's four congestion signals in turn
and retrains a protocol without it; the performance drop measures that
signal's value.  The finding: every signal contributes, no three-signal
subset matches all four, and ``rec_ewma`` (short-term ACK interarrival)
is the most valuable.

The knockout rule tables are trained by ``scripts/train_assets.py``
(mask-restricted whisker trees: a knocked-out signal can never be split
on, so the protocol cannot condition behaviour on it).  This module
evaluates them all on the calibration scenario.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..core.objective import Objective
from ..core.results import RunResult
from ..core.scenario import NetworkConfig
from ..remy.memory import SIGNAL_NAMES
from .api import (Cell, Experiment, ExperimentSpec, SweepResult,
                  register)
from .calibration import CALIBRATION_CONFIG
from .common import scored_flows

__all__ = ["SPEC", "drop", "ranking", "format_table"]

#: Variant -> the trained asset it evaluates.
_VARIANT_ASSETS: Dict[str, str] = {
    "all_signals": "tao_calibration",
    **{f"knockout_{signal}": f"tao_knockout_{signal}"
       for signal in SIGNAL_NAMES},
}


def _build(variant: str, point: Mapping[str, object]) -> Cell:
    return Cell(CALIBRATION_CONFIG,
                {"learner": _VARIANT_ASSETS[variant]})


def _metrics(variant: str, point: Mapping[str, object],
             config: NetworkConfig,
             runs: Sequence[RunResult]) -> Dict[str, object]:
    """Summed (not normalized) objective of the scored flows, mean
    over seeds."""
    objective = Objective(delta=1.0)
    scores = []
    for run_result in runs:
        total = 0.0
        for flow in scored_flows(run_result):
            delay = flow.mean_delay_s if flow.packets_delivered \
                else flow.base_delay_s
            total += objective.score(flow.throughput_bps, delay)
        scores.append(total)
    return {"objective": sum(scores) / len(scores)}


def drop(result: SweepResult, signal: str) -> float:
    """Objective lost by removing ``signal`` (log2 units), vs. the
    full four-signal Tao."""
    return (result.one("all_signals")["objective"]
            - result.one(f"knockout_{signal}")["objective"])


def ranking(result: SweepResult) -> List[str]:
    """Signals ordered from most to least valuable."""
    return sorted(SIGNAL_NAMES, key=lambda signal: drop(result, signal),
                  reverse=True)


def format_table(result: SweepResult) -> str:
    """Section 3.4 as text: objective and drop per knockout."""
    lines = ["Value of congestion signals (section 3.4)",
             f"{'variant':<28} {'objective':>10} {'drop':>8}"]
    lines.append(f"{'all_signals':<28} "
                 f"{result.one('all_signals')['objective']:>10.2f} "
                 f"{'-':>8}")
    for signal in SIGNAL_NAMES:
        variant = f"knockout_{signal}"
        lines.append(
            f"{variant:<28} "
            f"{result.one(variant)['objective']:>10.2f} "
            f"{drop(result, signal):>8.2f}")
    lines.append(f"most-to-least valuable: {', '.join(ranking(result))}")
    lines.append("(paper: rec_ewma most valuable; all four contribute)")
    return "\n".join(lines)


SPEC = ExperimentSpec(
    name="signals",
    title="E9 Section 3.4 — signal knockouts",
    schemes=tuple(_VARIANT_ASSETS),
    axes=(),
    build=_build,
    metrics=_metrics,
    assets=tuple(_VARIANT_ASSETS.values()),
    table=format_table,
)

register(Experiment("E9", SPEC))
