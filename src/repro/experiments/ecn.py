"""Experiment E10 — ECN marking thresholds vs the modern scheme family.

Beyond the paper: the calibration dumbbell (32 Mbps, 150 ms RTT, two
on/off senders, 5 BDP of drop-tail buffer) with an ECN-capable
bottleneck, swept over the marking threshold *K* in packets.  Schemes:
the calibration Tao, DCTCP (the one ECN-reactive scheme — its cut
depth tracks the marked fraction, so small *K* buys low delay at some
throughput cost), PCC's utility-gradient rate control, and TCP Cubic.
Cubic, PCC and the Tao ignore CE marks, so their rows double as the
control group: the marking threshold must not perturb a non-ECN
scheme (the queue still tail-drops at capacity regardless of *K*).

The table reports the paper's normalized objective next to raw
throughput and queueing delay per ``(scheme, K)`` cell, with the
omniscient dumbbell bound as the reference rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from .api import (Axis, Cell, Experiment, ExperimentSpec,
                  dumbbell_reference, register, summary_metrics)
from .calibration import CALIBRATION_CONFIG

__all__ = ["ECN_THRESHOLDS", "SPEC"]

#: Marking thresholds in packets.  The calibration BDP is 400 packets;
#: the grid spans deep-mark (K well under the DCTCP guideline of
#: ~0.17 BDP) to mark-never (K at the full 5-BDP buffer, where the
#: queue overflows before it ever marks).
ECN_THRESHOLDS = (25.0, 50.0, 100.0, 200.0, 400.0)

#: Scheme name -> homogeneous sender kinds on the dumbbell.
_SCHEMES = {
    "tao": ("learner", "learner"),
    "dctcp": ("dctcp", "dctcp"),
    "pcc": ("pcc", "pcc"),
    "cubic": ("cubic", "cubic"),
}


def _build(scheme: str, point: Mapping[str, object]) -> Cell:
    kinds = _SCHEMES[scheme]
    config = replace(CALIBRATION_CONFIG, sender_kinds=kinds,
                     deltas=tuple(1.0 for _ in kinds),
                     ecn_threshold=float(point["ecn_threshold"]))
    trees = {"learner": "tao_calibration"} if scheme == "tao" else None
    return Cell(config, trees)


#: No ``table``: the generic long-form table is this experiment's
#: report.  ``backend="fluid"`` refuses the grid as a whole (PCC is
#: packet-only, see :func:`repro.sim.fluid.fluid_refusal`); drop the
#: scheme from a copy of the spec to fluid-run the rest.
SPEC = ExperimentSpec(
    name="ecn",
    title="E10 — ECN thresholds: Tao vs DCTCP vs PCC vs Cubic",
    schemes=tuple(_SCHEMES),
    axes=(Axis.of("ecn_threshold", ECN_THRESHOLDS),),
    build=_build,
    metrics=summary_metrics,
    reference=lambda point: dumbbell_reference(CALIBRATION_CONFIG),
    assets=("tao_calibration",),
)

register(Experiment("E10", SPEC))
