"""Experiment E1 — the calibration experiment (Table 1, Figure 1).

Network: 32 Mbps dumbbell, 150 ms RTT, 2 senders with 1 s mean on/off,
5 BDP of drop-tail buffer.  Schemes: the Tao trained for exactly this
scenario, TCP Cubic, Cubic-over-sfqCoDel, and the omniscient bound.

The paper's headline: the Tao protocol lands within 5% of omniscient
throughput and 10% on delay, and beats both human-designed baselines on
throughput *and* delay simultaneously.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping

from ..core.omniscient import omniscient_dumbbell
from ..core.scenario import NetworkConfig
from .api import (Cell, Experiment, ExperimentSpec, SweepResult,
                  ellipse_metrics, register)

__all__ = ["CALIBRATION_CONFIG", "SPEC", "throughput_vs_omniscient",
           "format_table"]

#: Table 1's network parameters.
CALIBRATION_CONFIG = NetworkConfig(
    link_speeds_mbps=(32.0,), rtt_ms=150.0,
    sender_kinds=("learner", "learner"),
    mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=5.0)

#: Scheme name -> (sender kinds, queue discipline).
_SCHEMES = {
    "tao": (("learner", "learner"), "droptail"),
    "cubic": (("cubic", "cubic"), "droptail"),
    "cubic_sfqcodel": (("cubic", "cubic"), "sfq_codel"),
}


def _build(scheme: str, point: Mapping[str, object]) -> Cell:
    kinds, queue = _SCHEMES[scheme]
    config = replace(CALIBRATION_CONFIG, sender_kinds=kinds,
                     deltas=tuple(1.0 for _ in kinds), queue=queue)
    return Cell(config, {"learner": "tao_calibration"})


def _reference(point: Mapping[str, object]) -> Dict[str, object]:
    omni = omniscient_dumbbell(CALIBRATION_CONFIG)[0]
    # Zero queueing by construction.
    return {"median_throughput_bps": omni.throughput_bps,
            "median_delay_s": 0.0}


def throughput_vs_omniscient(result: SweepResult, scheme: str) -> float:
    """Scheme median throughput as a fraction of omniscient."""
    return (result.one(scheme)["median_throughput_bps"]
            / result.one("omniscient")["median_throughput_bps"])


def format_table(result: SweepResult) -> str:
    """Figure 1 as text: median throughput and queueing delay."""
    lines = [
        "Calibration experiment (Table 1 / Figure 1)",
        f"{'scheme':<16} {'tpt (Mbps)':>12} {'qdelay (ms)':>12} "
        f"{'vs omniscient':>14}",
    ]
    for scheme in _SCHEMES:
        row = result.one(scheme)
        ratio = throughput_vs_omniscient(result, scheme)
        lines.append(
            f"{scheme:<16} {row['median_throughput_bps'] / 1e6:>12.2f} "
            f"{row['median_delay_s'] * 1e3:>12.1f} {ratio:>13.0%}")
    omniscient = result.one("omniscient")
    lines.append(
        f"{'omniscient':<16} "
        f"{omniscient['median_throughput_bps'] / 1e6:>12.2f} "
        f"{0.0:>12.1f} {'100%':>14}")
    return "\n".join(lines)


SPEC = ExperimentSpec(
    name="calibration",
    title="E1 Figure 1 / Table 1 — calibration",
    schemes=tuple(_SCHEMES),
    axes=(),
    build=_build,
    metrics=ellipse_metrics,
    reference=_reference,
    assets=("tao_calibration",),
    table=format_table,
)

register(Experiment("E1", SPEC))
