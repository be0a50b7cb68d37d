"""Packet-level discrete-event network simulator.

This subpackage is the substrate that replaces ns-2 (the paper's testing
simulator) and Remy's internal simulator (the training simulator).  See
"Substitutions" in the top-level README.md for the rationale.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.link.Link` — rate + propagation-delay pipes.
* Queue disciplines — :class:`~repro.sim.queues.DropTailQueue`,
  :class:`~repro.sim.codel.CoDelQueue`,
  :class:`~repro.sim.sfq_codel.SfqCoDelQueue`.
* :class:`~repro.sim.network.Network` — wires links and flows together.
* Workloads — :class:`~repro.sim.workload.OnOffWorkload` and friends.
* :class:`~repro.sim.tracing.QueueTrace` — Figure 8 style queue traces.
"""

from .codel import CODEL_INTERVAL, CODEL_TARGET, CoDelQueue, CoDelState
from .dynamics import (DynamicsDriver, DynamicsSpec, LinkSchedule,
                       format_outage_token, parse_outage_token)
from .engine import Event, Simulator, Timer
from .link import Link, LinkStats
from .network import FlowPath, Network
from .packet import ACK_SIZE_BYTES, DATA_HEADER_BYTES, Packet
from .queues import DropTailQueue, QueueDiscipline, QueueStats
from .sfq_codel import SfqCoDelQueue
from .tracing import QueueTrace
from .workload import (AlwaysOnWorkload, OnOffWorkload, ScheduledWorkload,
                       Switchable)

__all__ = [
    "Simulator", "Event", "Timer",
    "Packet", "ACK_SIZE_BYTES", "DATA_HEADER_BYTES",
    "QueueDiscipline", "QueueStats", "DropTailQueue",
    "CoDelQueue", "CoDelState", "CODEL_TARGET", "CODEL_INTERVAL",
    "SfqCoDelQueue",
    "Link", "LinkStats",
    "LinkSchedule", "DynamicsSpec", "DynamicsDriver",
    "parse_outage_token", "format_outage_token",
    "Network", "FlowPath",
    "OnOffWorkload", "ScheduledWorkload", "AlwaysOnWorkload", "Switchable",
    "QueueTrace",
]
