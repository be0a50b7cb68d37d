"""Reproductions of every experiment in the paper's evaluation.

One module per figure/table (docs/EXPERIMENTS.md, "The registry"):

* :mod:`repro.experiments.calibration` — Table 1 / Figure 1
* :mod:`repro.experiments.link_speed` — Table 2 / Figure 2
* :mod:`repro.experiments.multiplexing` — Table 3 / Figure 3
* :mod:`repro.experiments.rtt` — Table 4 / Figure 4
* :mod:`repro.experiments.structure` — Table 5 / Figures 5-6
* :mod:`repro.experiments.tcp_awareness` — Table 6 / Figures 7-8
* :mod:`repro.experiments.diversity` — Table 7 / Figure 9
* :mod:`repro.experiments.signals` — section 3.4
* :mod:`repro.experiments.ecn` — beyond the paper: ECN thresholds vs
  the modern scheme family (DCTCP, PCC)
"""

from . import api
from . import (calibration, diversity, ecn, link_speed, multiplexing,
               rtt, signals, structure, tcp_awareness)
from .api import (Axis, ExperimentSpec, SweepResult, adhoc_spec,
                  experiments, get_experiment, run_experiment)
from .common import (DEFAULT, FULL, QUICK, Scale, SimulationHandle,
                     build_simulation, mean_normalized_score, run_config,
                     run_seeds, scored_flows)

__all__ = [
    "Scale", "QUICK", "DEFAULT", "FULL",
    "SimulationHandle", "build_simulation",
    "run_config", "run_seeds",
    "scored_flows", "mean_normalized_score",
    "api", "Axis", "ExperimentSpec", "SweepResult", "adhoc_spec",
    "experiments", "get_experiment", "run_experiment",
    "calibration", "link_speed", "multiplexing", "rtt",
    "structure", "tcp_awareness", "diversity", "signals", "ecn",
]
