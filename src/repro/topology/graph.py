"""Topology descriptions and their compilation into simulations.

A :class:`Topology` is a declarative picture of a network: a directed
multigraph of :class:`LinkSpec` edges plus a list of :class:`FlowSpec`
endpoints.  :meth:`Topology.build` compiles it into a live
:class:`~repro.sim.network.Network` — instantiating one
:class:`~repro.sim.link.Link` per edge and resolving each flow's forward
and reverse source routes.

Routes are *declared*, not discovered: a factory that lays down the
links of a flow knows the nodes it crosses, and says so with
``add_flow(src, dst, via=(...))``.  The route is checked against the
declared edges once, at ``add_flow`` time, and building is then linear
in the number of flows.  New topology factories must follow that rule —
add the links first, then the flow with its ``via``.  Only a flow added
without ``via`` (a hand-built topology in a test or a notebook) falls
back to a shortest-path search by propagation delay, which costs
O(E log V) per direction and so O(senders^2) on a star.

Factories for the paper's two topologies live in
:mod:`repro.topology.dumbbell` and :mod:`repro.topology.parking_lot`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..sim.link import Link
from ..sim.network import FlowPath, Network
from ..sim.queues import DropTailQueue, QueueDiscipline

__all__ = ["LinkSpec", "FlowSpec", "Topology", "BuiltTopology"]

QueueFactory = Callable[[], QueueDiscipline]


def _default_queue_factory() -> QueueDiscipline:
    return DropTailQueue()


@dataclass
class LinkSpec:
    """Parameters of one directed link in a topology."""

    rate_bps: float
    delay_s: float
    queue_factory: QueueFactory = field(default=_default_queue_factory)

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


@dataclass(frozen=True)
class FlowSpec:
    """One sender-receiver pair, where they attach, and the declared
    intermediate nodes between them (``None``: search for a route)."""

    flow_id: int
    src: str
    dst: str
    via: Optional[Tuple[str, ...]] = None


class BuiltTopology:
    """The result of compiling a :class:`Topology` against a simulator."""

    def __init__(self, network: Network,
                 links: Dict[Tuple[str, str], Link],
                 paths: Dict[int, FlowPath]):
        self.network = network
        self.links = links
        self.paths = paths

    def link(self, src: str, dst: str) -> Link:
        """Look up the live link for the directed edge ``src -> dst``."""
        return self.links[(src, dst)]


class Topology:
    """A declarative network description.

    Example — a two-node link with a flow across it:

    >>> topo = Topology()
    >>> topo.add_link("a", "b", LinkSpec(rate_bps=1e6, delay_s=0.01))
    >>> topo.add_link("b", "a", LinkSpec(rate_bps=1e6, delay_s=0.01))
    >>> _ = topo.add_flow("a", "b")
    """

    def __init__(self) -> None:
        # node -> {neighbour -> spec}; every node gets a row when first
        # named, so iterating rows then neighbours is a stable link order.
        self._adj: Dict[str, Dict[str, LinkSpec]] = {}
        self._flows: Dict[int, FlowSpec] = {}
        self._next_flow_id = 0

    @property
    def flows(self) -> Tuple[FlowSpec, ...]:
        return tuple(self._flows.values())

    def add_link(self, src: str, dst: str, spec: LinkSpec) -> None:
        """Add a directed link.  Adding the same edge twice is an error."""
        out = self._adj.setdefault(src, {})
        if dst in out:
            raise ValueError(f"edge {src}->{dst} already present")
        out[dst] = spec
        self._adj.setdefault(dst, {})

    def add_duplex_link(self, a: str, b: str, spec: LinkSpec,
                        reverse_spec: Optional[LinkSpec] = None) -> None:
        """Add both directions; the reverse defaults to a mirror of ``spec``."""
        self.add_link(a, b, spec)
        self.add_link(b, a, reverse_spec if reverse_spec is not None
                      else LinkSpec(spec.rate_bps, spec.delay_s,
                                    spec.queue_factory))

    def add_flow(self, src: str, dst: str,
                 flow_id: Optional[int] = None,
                 via: Optional[Sequence[str]] = None) -> FlowSpec:
        """Declare a flow from ``src`` to ``dst`` (ids auto-assigned).

        ``via`` names the nodes between the endpoints, in forward order;
        ACKs retrace them backwards.  Every hop of both directions must
        already be a declared link.  Without ``via`` the routes are
        searched for when needed (see the module docstring for the cost).
        """
        if flow_id is None:
            flow_id = self._next_flow_id
        if flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow_id}")
        flow = FlowSpec(flow_id, src, dst,
                        None if via is None else tuple(via))
        if via is not None:
            for nodes in self._routes(flow):
                for u, v in zip(nodes, nodes[1:]):
                    if v not in self._adj.get(u, ()):
                        raise ValueError(
                            f"route of flow {flow_id} uses undeclared "
                            f"link {u}->{v}")
        self._next_flow_id = max(self._next_flow_id, flow_id + 1)
        self._flows[flow_id] = flow
        return flow

    def _search_route(self, src: str, dst: str) -> List[str]:
        """Shortest path by propagation delay (ties broken by hop count)."""
        best = {src: 0.0}
        parent: Dict[str, str] = {}
        # The counter keeps equal-distance entries in discovery order.
        heap = [(0.0, 0, src)]
        pushed = 1
        while heap:
            dist, _, node = heapq.heappop(heap)
            if node == dst:
                nodes = [dst]
                while nodes[-1] != src:
                    nodes.append(parent[nodes[-1]])
                return nodes[::-1]
            if dist > best[node]:
                continue
            for nbr, spec in self._adj.get(node, {}).items():
                # A small constant per hop breaks zero-delay ties
                # determinately, towards fewer hops.
                cand = dist + spec.delay_s + 1e-9
                if cand < best.get(nbr, math.inf):
                    best[nbr] = cand
                    parent[nbr] = node
                    heapq.heappush(heap, (cand, pushed, nbr))
                    pushed += 1
        raise ValueError(f"no path from {src!r} to {dst!r}")

    def _routes(self, flow: FlowSpec) -> Tuple[Sequence[str], Sequence[str]]:
        """Forward and reverse node sequences of ``flow``."""
        if flow.via is None:
            return (self._search_route(flow.src, flow.dst),
                    self._search_route(flow.dst, flow.src))
        forward = (flow.src, *flow.via, flow.dst)
        return forward, forward[::-1]

    def build(self, sim: Simulator) -> BuiltTopology:
        """Instantiate links, wire flows, and return the live network."""
        network = Network(sim)
        links: Dict[Tuple[str, str], Link] = {}
        for src, out in self._adj.items():
            for dst, spec in out.items():
                link = Link(sim, spec.rate_bps, spec.delay_s,
                            queue=spec.queue_factory(),
                            name=f"{src}->{dst}")
                network.add_link(link)
                links[(src, dst)] = link

        paths: Dict[int, FlowPath] = {}
        for flow in self._flows.values():
            forward_nodes, reverse_nodes = self._routes(flow)
            data_route = [links[(u, v)] for u, v in
                          zip(forward_nodes, forward_nodes[1:])]
            ack_route = [links[(u, v)] for u, v in
                         zip(reverse_nodes, reverse_nodes[1:])]
            paths[flow.flow_id] = network.add_flow(
                flow.flow_id, data_route, ack_route)
        return BuiltTopology(network, links, paths)

    def min_rtt(self, flow: FlowSpec, data_bytes: int = 1500,
                ack_bytes: int = 40) -> float:
        """Unloaded RTT of a flow, without building the simulation."""
        total = 0.0
        for nodes, size in zip(self._routes(flow), (data_bytes, ack_bytes)):
            for u, v in zip(nodes, nodes[1:]):
                spec = self._adj[u][v]
                tx = 0.0 if math.isinf(spec.rate_bps) \
                    else size * 8.0 / spec.rate_bps
                total += spec.delay_s + tx
        return total
