"""Experiment E2 — knowledge of link speed (Table 2, Figure 2).

Four Tao protocols trained for nested link-speed operating ranges
(2x, 10x, 100x, 1000x around the geometric mean of 32 Mbps) are swept
over 1-1000 Mbps against Cubic, Cubic-over-sfqCoDel, and the omniscient
bound.  The paper's finding: a *weak* tradeoff — narrow-range Taos win
modestly inside their range but fall off a cliff outside it, while the
1000x Tao tracks within a few percent everywhere and beats the
human-designed schemes across the whole sweep.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Tuple

from ..core.scenario import NetworkConfig
from .api import (PIVOT_FOOTNOTE, Axis, Cell, Experiment, ExperimentSpec,
                  SweepResult, baseline_queue, objective_metrics,
                  omniscient_objective, pivot_lines, register)
from .common import Scale

__all__ = ["SPEC", "mean_in_range", "format_table", "sweep_speeds"]

#: The four Taos of Table 2a; their ranges live in the Remy catalog.
_TAOS = ("tao_2x", "tao_10x", "tao_100x", "tao_1000x")

_BASELINES = ("cubic", "cubic_sfqcodel")

_RTT_MS = 150.0
_SENDERS = 2


def sweep_speeds(points: int) -> List[float]:
    """Log-spaced link speeds across 1-1000 Mbps (the testing range)."""
    if points < 2:
        raise ValueError("need at least two sweep points")
    return [10 ** (3.0 * k / (points - 1)) for k in range(points)]


def _config_for(speed: float, kind: str, queue: str) -> NetworkConfig:
    return NetworkConfig(
        link_speeds_mbps=(speed,), rtt_ms=_RTT_MS,
        sender_kinds=(kind,) * _SENDERS, deltas=(1.0,) * _SENDERS,
        mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=5.0, queue=queue)


def _axes(scale: Scale) -> Tuple[Axis, ...]:
    # Explicit values (not Axis.log) to keep the legacy sweep's exact
    # floats — 10**(3k/(n-1)) and lo*(hi/lo)**(k/(n-1)) differ in the
    # last bit, and bitwise-identical configs are the parity contract.
    return (Axis.of("speed_mbps", sweep_speeds(scale.sweep_points)),)


def _build(scheme: str, point: Mapping[str, object]) -> Cell:
    speed = point["speed_mbps"]
    if scheme in _TAOS:
        return Cell(_config_for(speed, "learner", "droptail"),
                    {"learner": scheme})
    return Cell(_config_for(speed, "cubic", baseline_queue(scheme)),
                None)


def _reference(point: Mapping[str, object]) -> Dict[str, object]:
    return {"normalized_objective": omniscient_objective(
        _config_for(point["speed_mbps"], "learner", "droptail"))}


def mean_in_range(result: SweepResult, scheme: str) -> float:
    """Mean objective of ``scheme`` over its in-training-range points."""
    values = [row["normalized_objective"]
              for row in result.select(scheme)
              if row["in_training_range"]]
    return sum(values) / len(values) if values else -math.inf


def format_table(result: SweepResult) -> str:
    """Figure 2 as text: normalized objective per scheme and speed."""
    return "\n".join([
        "Link-speed operating range (Table 2 / Figure 2)",
        *pivot_lines(result.rows, "speed_mbps", "Mbps", ".1f", 14),
        PIVOT_FOOTNOTE])


SPEC = ExperimentSpec(
    name="link_speed",
    title="E2 Figure 2 / Table 2 — link-speed ranges",
    schemes=_TAOS + _BASELINES,
    axes=_axes,
    build=_build,
    metrics=objective_metrics,
    reference=_reference,
    assets=_TAOS,
    table=format_table,
)

register(Experiment("E2", SPEC))
