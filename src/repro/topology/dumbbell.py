"""The dumbbell topology: n senders sharing a single bottleneck.

Every training scenario in the paper except the parking lot (Figure 5)
is a dumbbell (section 3.1): senders attach to gateway ``A``, receivers
to gateway ``B``, and the single ``A -> B`` link is the bottleneck whose
buffer size and queue discipline the experiments vary.

Modeling choices (see "Substitutions" in README.md):

* Access links are infinitely fast with zero delay — the senders
  effectively sit at the bottleneck queue, as in the paper's Remy
  simulator.  All propagation delay lives on the bottleneck hop, split
  evenly between the two directions so the unloaded RTT is ``rtt_s``.
* The reverse (ACK) path has the same propagation delay but infinite
  rate: ACKs never queue, matching the paper's setup where only the data
  direction is ever congested.
"""

from __future__ import annotations

import math
from typing import Optional

from ..sim.queues import DropTailQueue
from .graph import LinkSpec, QueueFactory, Topology

__all__ = ["dumbbell", "bdp_packets"]


def bdp_packets(rate_bps: float, rtt_s: float,
                packet_bytes: int = 1500) -> float:
    """Bandwidth-delay product expressed in packets."""
    return rate_bps * rtt_s / (8.0 * packet_bytes)


def dumbbell(n_senders: int,
             bottleneck_rate_bps: float,
             rtt_s: float,
             queue_factory: Optional[QueueFactory] = None) -> Topology:
    """Build an ``n_senders``-flow dumbbell.

    Parameters
    ----------
    n_senders:
        Number of sender/receiver pairs (flows 0 .. n-1).
    bottleneck_rate_bps:
        Rate of the shared ``A -> B`` link.
    rtt_s:
        Unloaded round-trip propagation delay.
    queue_factory:
        Builds the bottleneck queue discipline (default: unbounded
        drop-tail).  Called exactly once.
    """
    if n_senders < 1:
        raise ValueError("need at least one sender")
    if rtt_s < 0:
        raise ValueError("rtt_s must be non-negative")
    topo = Topology()
    one_way = rtt_s / 2.0
    factory = queue_factory if queue_factory is not None else DropTailQueue

    topo.add_link("A", "B", LinkSpec(bottleneck_rate_bps, one_way,
                                     queue_factory=factory))
    topo.add_link("B", "A", LinkSpec(math.inf, one_way))
    for i in range(n_senders):
        sender, receiver = f"s{i}", f"r{i}"
        topo.add_duplex_link(sender, "A", LinkSpec(math.inf, 0.0))
        topo.add_duplex_link("B", receiver, LinkSpec(math.inf, 0.0))
        topo.add_flow(sender, receiver, flow_id=i, via=("A", "B"))
    return topo
