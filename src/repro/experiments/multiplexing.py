"""Experiment E3 — knowledge of the degree of multiplexing (Table 3,
Figure 3).

Five Tao protocols trained for 1-2, 1-10, 1-20, 1-50, and 1-100 senders
on a 15 Mbps dumbbell are tested with 1-100 senders, under two buffer
regimes: 5 BDP of drop-tail buffer, and an infinite ("no drop") buffer.

The paper's finding — unlike link speed, multiplexing knowledge
*matters*: a wide-range Tao tracks the omniscient bound across the
sweep but sacrifices throughput at low multiplexing, while a narrow
(1-2) Tao collapses at high sender counts, through delay explosion on
the no-drop buffer or loss storms on the finite one.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..core.scenario import NetworkConfig
from .api import (PIVOT_FOOTNOTE, Axis, Cell, Experiment, ExperimentSpec,
                  SweepResult, baseline_queue, objective_metrics,
                  omniscient_objective, pivot_lines, register)
from .common import Scale

__all__ = ["BUFFER_CASES", "SPEC", "format_table", "sweep_senders"]

#: The five Taos of Table 3a; their ranges live in the Remy catalog.
_TAOS = ("tao_mux_1_2", "tao_mux_1_10", "tao_mux_1_20", "tao_mux_1_50",
         "tao_mux_1_100")

#: Buffer regimes of Table 3b / Figure 3: 5 BDP and "no packet drops".
BUFFER_CASES: Tuple[Tuple[str, Optional[float]], ...] = (
    ("5bdp", 5.0), ("nodrop", None))

_BASELINES = ("cubic", "cubic_sfqcodel")
_LINK_MBPS = 15.0
_RTT_MS = 150.0


def sweep_senders(points: int) -> List[int]:
    """Sender counts covering 1-100, denser at the low end."""
    return list(_senders_axis(points).values)


def _senders_axis(points: int) -> Axis:
    return Axis.log("n_senders", 1, 100, points, integer=True)


def _config_for(n: int, kinds_base: str, buffer_bdp: Optional[float],
                queue: str) -> NetworkConfig:
    return NetworkConfig(
        link_speeds_mbps=(_LINK_MBPS,), rtt_ms=_RTT_MS,
        sender_kinds=(kinds_base,) * n,
        deltas=(1.0,) * n,
        mean_on_s=1.0, mean_off_s=1.0,
        buffer_bdp=buffer_bdp, queue=queue)


def _axes(scale: Scale) -> Tuple[Axis, ...]:
    return (Axis.of("buffer_case",
                    tuple(name for name, _ in BUFFER_CASES)),
            _senders_axis(scale.sweep_points))


def _build(scheme: str, point: Mapping[str, object]) -> Cell:
    n = point["n_senders"]
    buffer_bdp = dict(BUFFER_CASES)[point["buffer_case"]]
    if scheme in _TAOS:
        return Cell(_config_for(n, "learner", buffer_bdp, "droptail"),
                    {"learner": scheme})
    return Cell(_config_for(n, "cubic", buffer_bdp,
                            baseline_queue(scheme)), None)


def _reference(point: Mapping[str, object]) -> Dict[str, object]:
    return {"normalized_objective": omniscient_objective(
        _config_for(point["n_senders"], "learner", None, "droptail"))}


def format_table(result: SweepResult) -> str:
    """Figure 3 as text: one scheme-by-sender-count block per buffer."""
    lines = ["Degree of multiplexing (Table 3 / Figure 3)"]
    for case_name, _ in BUFFER_CASES:
        lines.append(f"--- buffer: {case_name} ---")
        lines += pivot_lines(result.select(buffer_case=case_name),
                             "n_senders", "senders", "d", 15)
    lines.append(PIVOT_FOOTNOTE)
    return "\n".join(lines)


SPEC = ExperimentSpec(
    name="multiplexing",
    title="E3 Figure 3 / Table 3 — multiplexing",
    schemes=_TAOS + _BASELINES,
    axes=_axes,
    build=_build,
    metrics=objective_metrics,
    reference=_reference,
    assets=_TAOS,
    table=format_table,
)

register(Experiment("E3", SPEC))
