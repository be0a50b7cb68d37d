"""Experiment E5 — structural knowledge (Table 5, Figures 5-6).

The true network is the two-bottleneck parking lot of Figure 5 (both
links swept over 10-100 Mbps, 75 ms per hop).  Two Taos compete:

* ``tao_structure_one`` — trained on a *simplified* model: a single
  150 ms-delay bottleneck shared by two senders, and
* ``tao_structure_two`` — trained with full knowledge of the
  two-bottleneck structure.

Both are tested on the real parking lot, alongside Cubic,
Cubic-over-sfqCoDel, and the proportionally fair omniscient bound.  The
paper's finding: the simplified-model Tao underperforms the full-model
one by only ~17% on the crossing flow's throughput while still beating
Cubic by ~7x — topology simplification is cheap.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..core.omniscient import omniscient_parking_lot
from ..core.results import RunResult
from ..core.scenario import NetworkConfig
from ..topology.parking_lot import FLOW_BOTH
from .api import (Axis, Cell, Experiment, ExperimentSpec, SweepResult,
                  baseline_queue, register)
from .common import Scale

__all__ = ["SPEC", "mean_throughput", "simplification_penalty",
           "format_table", "sweep_speed_pairs"]

_SCHEMES = ("tao_one_bottleneck", "tao_two_bottleneck", "cubic",
            "cubic_sfqcodel")

#: Scheme name -> shipped asset name.
_TREE_ASSETS = {"tao_one_bottleneck": "tao_structure_one",
                "tao_two_bottleneck": "tao_structure_two"}


def sweep_speed_pairs(points: int) -> List[Tuple[float, float]]:
    """(slower, faster) link-speed pairs covering Figure 6's sweep.

    For each slower-link speed we test the two boundary cases the
    figure draws: faster link equal to the slower one, and faster link
    pinned at 100 Mbps.
    """
    if points < 2:
        raise ValueError("need at least two sweep points")
    speeds = [10.0 * (10.0 ** (k / (points - 1))) for k in range(points)]
    pairs: List[Tuple[float, float]] = []
    for speed in speeds:
        pairs.append((speed, speed))
        if speed < 100.0:
            pairs.append((speed, 100.0))
    return pairs


def _config_for(speeds: Tuple[float, float], kind: str,
                queue: str) -> NetworkConfig:
    return NetworkConfig(
        topology="parking_lot", link_speeds_mbps=speeds, rtt_ms=150.0,
        sender_kinds=(kind,) * 3, deltas=(1.0,) * 3,
        mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=5.0, queue=queue)


def _axes(scale: Scale) -> Tuple[Axis, ...]:
    return (Axis.of("speeds",
                    tuple(sweep_speed_pairs(scale.sweep_points))),)


def _build(scheme: str, point: Mapping[str, object]) -> Cell:
    speeds = point["speeds"]
    if scheme in _TREE_ASSETS:
        return Cell(_config_for(speeds, "learner", "droptail"),
                    {"learner": _TREE_ASSETS[scheme]})
    return Cell(_config_for(speeds, "cubic", baseline_queue(scheme)),
                None)


def _metrics(scheme: str, point: Mapping[str, object],
             config: NetworkConfig,
             runs: Sequence[RunResult]) -> Dict[str, object]:
    """Flow 1 (the crossing flow) throughput, median over seeds."""
    flow1 = [r.flows[FLOW_BOTH].throughput_bps for r in runs]
    return {"flow1_throughput_bps": float(np.median(flow1))}


def _reference(point: Mapping[str, object]) -> Dict[str, object]:
    speeds = point["speeds"]
    omni = omniscient_parking_lot(
        (speeds[0] * 1e6, speeds[1] * 1e6), p_on=0.5)
    return {"flow1_throughput_bps": omni[FLOW_BOTH].throughput_bps}


def mean_throughput(result: SweepResult, scheme: str) -> float:
    """Crossing-flow throughput of ``scheme``, mean over the sweep."""
    values = [row["flow1_throughput_bps"]
              for row in result.select(scheme)]
    return float(np.mean(values)) if values else 0.0


def simplification_penalty(result: SweepResult) -> float:
    """Fractional throughput lost by the one-bottleneck model (the
    paper reports ~17%)."""
    full = mean_throughput(result, "tao_two_bottleneck")
    simplified = mean_throughput(result, "tao_one_bottleneck")
    if full <= 0:
        return 0.0
    return 1.0 - simplified / full


def format_table(result: SweepResult) -> str:
    """Figure 6 as text: crossing-flow throughput per speed pair."""
    columns = (*((scheme, 20) for scheme in _SCHEMES),
               ("omniscient", 12))
    lines = ["Structural knowledge (Table 5 / Figure 6): "
             "crossing-flow throughput (Mbps)",
             f"{'slower':>7} {'faster':>7} "
             + " ".join(f"{scheme:>{width}}"
                        for scheme, width in columns)]
    for speeds in sorted({row["speeds"] for row in result.rows}):
        cells = []
        for scheme, width in columns:
            row = result.one(scheme, speeds=speeds)
            cells.append(
                f"{row['flow1_throughput_bps'] / 1e6:>{width}.2f}")
        lines.append(f"{speeds[0]:>7.1f} {speeds[1]:>7.1f} "
                     + " ".join(cells))
    lines.append("one-bottleneck simplification penalty: "
                 f"{simplification_penalty(result):.0%} (paper: ~17%)")
    return "\n".join(lines)


SPEC = ExperimentSpec(
    name="structure",
    title="E5 Figure 6 / Table 5 — structural knowledge",
    schemes=_SCHEMES,
    axes=_axes,
    build=_build,
    metrics=_metrics,
    reference=_reference,
    assets=tuple(_TREE_ASSETS.values()),
    table=format_table,
)

register(Experiment("E5", SPEC))
