"""The value types every layer shares.

Objective functions (section 3.2), network configurations and the
training-scenario distributions they are drawn from (section 3.1), the
omniscient upper bound (section 1.1), per-flow results, and the
simulation budget (:class:`~repro.core.scale.Scale`).
"""

from .objective import (DELAY_FLOOR_S, THROUGHPUT_FLOOR_BPS, Objective,
                        mean_normalized_objective, normalized_objective)
from .omniscient import (OmniscientFlow, dumbbell_expected_throughput,
                         omniscient_dumbbell, omniscient_for_config,
                         omniscient_parking_lot, parking_lot_allocation,
                         proportional_fair_allocation)
from .results import EllipsePoint, FlowStats, RunResult, summarize_ellipse
from .scenario import QUEUE_KINDS, NetworkConfig, ScenarioRange

__all__ = [
    "Objective", "normalized_objective", "mean_normalized_objective",
    "THROUGHPUT_FLOOR_BPS", "DELAY_FLOOR_S",
    "NetworkConfig", "ScenarioRange", "QUEUE_KINDS",
    "OmniscientFlow", "proportional_fair_allocation",
    "dumbbell_expected_throughput", "omniscient_dumbbell",
    "parking_lot_allocation", "omniscient_parking_lot",
    "omniscient_for_config",
    "FlowStats", "RunResult", "EllipsePoint", "summarize_ellipse",
]
