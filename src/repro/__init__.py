"""repro: a reproduction of "An Experimental Study of the Learnability
of Congestion Control" (Sivaraman, Winstein, Thaker, Balakrishnan;
SIGCOMM 2014).

The package layers, bottom-up:

* :mod:`repro.sim` — packet-level discrete-event simulator (the ns-2
  substitute).
* :mod:`repro.topology` — dumbbell and parking-lot factories.
* :mod:`repro.protocols` — NewReno, Cubic, AIMD, and the RemyCC runtime
  over a shared transport.
* :mod:`repro.remy` — the Remy protocol synthesizer: whisker trees and
  the optimizer producing Tao protocols.
* :mod:`repro.core` — the shared value types: objectives, scenarios,
  the omniscient bound, per-flow results, simulation scale.
* :mod:`repro.experiments` — one module per paper figure/table.

Quickstart::

    from repro import NetworkConfig, run_config
    config = NetworkConfig(link_speeds_mbps=(32.0,), rtt_ms=150.0,
                           sender_kinds=("cubic", "cubic"))
    result = run_config(config, seed=1)
    for flow in result.flows:
        print(flow.kind, flow.throughput_bps / 1e6, "Mbps")
"""

from .core import (NetworkConfig, Objective, ScenarioRange,
                   normalized_objective, omniscient_for_config,
                   proportional_fair_allocation)
from .core.results import EllipsePoint, FlowStats, RunResult
from .exec import (CachingExecutor, Executor, ProcessPoolExecutor,
                   SerialExecutor, SimTask, executor_for, run_batch)
from .experiments import (DEFAULT, FULL, QUICK, Scale, build_simulation,
                          run_config, run_seeds)
from .protocols import (AimdController, CubicController,
                        NewRenoController, RemyCCController,
                        make_controller)
from .remy import Action, Memory, Whisker, WhiskerTree

__version__ = "1.0.0"

__all__ = [
    "NetworkConfig", "ScenarioRange", "Objective",
    "normalized_objective", "omniscient_for_config",
    "proportional_fair_allocation",
    "FlowStats", "RunResult", "EllipsePoint",
    "Scale", "QUICK", "DEFAULT", "FULL",
    "build_simulation", "run_config", "run_seeds",
    "AimdController", "CubicController", "NewRenoController",
    "RemyCCController", "make_controller",
    "Action", "Memory", "Whisker", "WhiskerTree",
    "__version__",
]
