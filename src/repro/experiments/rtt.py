"""Experiment E4 — knowledge of propagation delay (Table 4, Figure 4).

Four Tao protocols trained for RTT ranges {exactly 150 ms, 145-155 ms,
140-160 ms, 50-250 ms} on a 33 Mbps dumbbell are tested across RTTs of
1-300 ms.

The paper's finding: training for exactly one RTT produces a protocol
that collapses below ~50 ms, but even a *little* training diversity
(145-155 ms) yields performance across 1-300 ms commensurate with the
much broader 50-250 ms protocol — so prior knowledge of propagation
delay is not particularly valuable.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..core.scenario import NetworkConfig
from .api import (PIVOT_FOOTNOTE, Axis, Cell, Experiment, ExperimentSpec,
                  SweepResult, baseline_queue, objective_metrics,
                  omniscient_objective, pivot_lines, register)
from .common import Scale

__all__ = ["SPEC", "format_table", "sweep_rtts"]

#: The four Taos of Table 4a; their ranges live in the Remy catalog.
_TAOS = ("tao_rtt_150", "tao_rtt_145_155", "tao_rtt_140_160",
         "tao_rtt_50_250")

_BASELINES = ("cubic", "cubic_sfqcodel")
_LINK_MBPS = 33.0
_SENDERS = 2


def sweep_rtts(points: int) -> List[float]:
    """RTTs covering the 1-300 ms testing range.

    Linear spacing like the paper's Table 4b ("1, 2, 3 ... 300 ms"),
    always including 150 ms so the exactly-150 Tao has an in-range
    point, and always including the 1 ms short-RTT extreme where
    Figure 4's cliffs live.
    """
    return list(_rtt_axis(points).values)


def _rtt_axis(points: int) -> Axis:
    return Axis.linear("rtt_ms", 1.0, 300.0, points).ensure(150.0)


def _config_for(rtt_ms: float, kind: str, queue: str) -> NetworkConfig:
    return NetworkConfig(
        link_speeds_mbps=(_LINK_MBPS,), rtt_ms=rtt_ms,
        sender_kinds=(kind,) * _SENDERS, deltas=(1.0,) * _SENDERS,
        mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=5.0, queue=queue)


def _axes(scale: Scale) -> Tuple[Axis, ...]:
    return (_rtt_axis(scale.sweep_points),)


def _build(scheme: str, point: Mapping[str, object]) -> Cell:
    rtt_ms = point["rtt_ms"]
    if scheme in _TAOS:
        return Cell(_config_for(rtt_ms, "learner", "droptail"),
                    {"learner": scheme})
    return Cell(_config_for(rtt_ms, "cubic", baseline_queue(scheme)),
                None)


def _reference(point: Mapping[str, object]) -> Dict[str, object]:
    return {"normalized_objective": omniscient_objective(
        _config_for(point["rtt_ms"], "learner", "droptail"))}


def format_table(result: SweepResult) -> str:
    """Figure 4 as text: normalized objective per scheme and RTT."""
    return "\n".join([
        "Propagation delay (Table 4 / Figure 4)",
        *pivot_lines(result.rows, "rtt_ms", "RTT ms", ".1f", 16),
        PIVOT_FOOTNOTE])


SPEC = ExperimentSpec(
    name="rtt",
    title="E4 Figure 4 / Table 4 — propagation delay",
    schemes=_TAOS + _BASELINES,
    axes=_axes,
    build=_build,
    metrics=objective_metrics,
    reference=_reference,
    assets=_TAOS,
    table=format_table,
)

register(Experiment("E4", SPEC))
