"""The two-bottleneck "parking lot" topology of Figure 5.

Three flows over a chain ``A -> B -> C``:

* Flow 1 crosses both links (``A -> C``) and meets both bottlenecks.
* Flow 2 contends with Flow 1 at node A's queue (``A -> B`` only).
* Flow 3 contends with Flow 1 at node B's queue (``B -> C`` only).

The paper gives each hop 75 ms of propagation delay and sweeps both link
speeds between 10 and 100 Mbps (section 4.4).  Flow ids are fixed:
``FLOW_BOTH = 0`` (the two-hop flow), ``FLOW_LINK1 = 1``,
``FLOW_LINK2 = 2`` — experiments index results by these constants.
"""

from __future__ import annotations

import math
from typing import Optional

from ..sim.queues import DropTailQueue
from .graph import LinkSpec, QueueFactory, Topology

__all__ = ["parking_lot", "FLOW_BOTH", "FLOW_LINK1", "FLOW_LINK2"]

FLOW_BOTH = 0
FLOW_LINK1 = 1
FLOW_LINK2 = 2


def parking_lot(link1_rate_bps: float,
                link2_rate_bps: float,
                per_hop_delay_s: float = 0.075,
                queue_factory1: Optional[QueueFactory] = None,
                queue_factory2: Optional[QueueFactory] = None) -> Topology:
    """Build the Figure 5 parking lot.

    Parameters
    ----------
    link1_rate_bps, link2_rate_bps:
        Rates of the ``A -> B`` and ``B -> C`` bottlenecks.
    per_hop_delay_s:
        One-way propagation delay per hop (75 ms in the paper, so the
        two-hop flow sees a 300 ms unloaded RTT and the one-hop flows
        150 ms each).
    queue_factory1, queue_factory2:
        Queue disciplines for the two bottleneck queues.
    """
    topo = Topology()
    factory1 = queue_factory1 if queue_factory1 is not None else DropTailQueue
    factory2 = queue_factory2 if queue_factory2 is not None else DropTailQueue

    topo.add_link("A", "B", LinkSpec(link1_rate_bps, per_hop_delay_s,
                                     queue_factory=factory1))
    topo.add_link("B", "C", LinkSpec(link2_rate_bps, per_hop_delay_s,
                                     queue_factory=factory2))
    topo.add_link("B", "A", LinkSpec(math.inf, per_hop_delay_s))
    topo.add_link("C", "B", LinkSpec(math.inf, per_hop_delay_s))

    # Flow 1: crosses both bottlenecks.
    topo.add_duplex_link("src1", "A", LinkSpec(math.inf, 0.0))
    topo.add_duplex_link("C", "dst1", LinkSpec(math.inf, 0.0))
    topo.add_flow("src1", "dst1", flow_id=FLOW_BOTH, via=("A", "B", "C"))

    # Flow 2: link 1 only.
    topo.add_duplex_link("src2", "A", LinkSpec(math.inf, 0.0))
    topo.add_duplex_link("B", "dst2", LinkSpec(math.inf, 0.0))
    topo.add_flow("src2", "dst2", flow_id=FLOW_LINK1, via=("A", "B"))

    # Flow 3: link 2 only.
    topo.add_duplex_link("src3", "B", LinkSpec(math.inf, 0.0))
    topo.add_duplex_link("C", "dst3", LinkSpec(math.inf, 0.0))
    topo.add_flow("src3", "dst3", flow_id=FLOW_LINK2, via=("B", "C"))
    return topo
