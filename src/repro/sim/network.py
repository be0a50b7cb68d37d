"""Network assembly: links + flows + source routing.

The :class:`Network` owns every link in a simulation and the endpoint
callbacks of every flow.  Packets are *source routed*: when an endpoint
transmits, the network stamps the packet with the precomputed list of
links for that flow and direction, and each link delivery advances the
packet one hop.  This keeps per-hop forwarding O(1) with no routing-table
lookups — important because the pure-Python event loop is the cost
center of this reproduction (see "Substitutions" in README.md).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .engine import Simulator
from .link import Link
from .packet import Packet, PacketPool

__all__ = ["Network", "FlowPath"]

Endpoint = Callable[[Packet], None]


class FlowPath:
    """The forward (data) and reverse (ACK) routes of one flow."""

    __slots__ = ("flow_id", "data_route", "ack_route",
                 "data_endpoint", "ack_endpoint")

    def __init__(self, flow_id: int,
                 data_route: Tuple[Link, ...],
                 ack_route: Tuple[Link, ...]):
        self.flow_id = flow_id
        self.data_route = data_route
        self.ack_route = ack_route
        self.data_endpoint: Optional[Endpoint] = None   # the receiver
        self.ack_endpoint: Optional[Endpoint] = None    # the sender

    def base_delay(self, data_bytes: int, ack_bytes: int) -> float:
        """Unloaded round-trip time for a ``data_bytes`` packet.

        Propagation plus serialization on every hop, both directions,
        at the links' *nominal* (configured) rates and delays — under
        link dynamics the instantaneous values wander, but the
        scenario's unloaded RTT is defined by the static configuration.
        On static links nominal == current, so this is the exact same
        float as before.
        """
        forward = sum(
            link.nominal_delay_s + link.base_transmission_time(data_bytes)
            for link in self.data_route)
        reverse = sum(
            link.nominal_delay_s + link.base_transmission_time(ack_bytes)
            for link in self.ack_route)
        return forward + reverse

    def one_way_base_delay(self, data_bytes: int) -> float:
        """Unloaded sender-to-receiver latency for a data packet."""
        return sum(
            link.nominal_delay_s + link.base_transmission_time(data_bytes)
            for link in self.data_route)


class Network:
    """Wires links and flow endpoints into a runnable simulation."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.links: Dict[str, Link] = {}
        self.flows: Dict[int, FlowPath] = {}
        #: Shared packet free list: senders acquire, receivers flip
        #: delivered data packets into ACKs in place, and every death
        #: site (consumed ACK, queue drop) releases back here.
        self.pool = PacketPool()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_link(self, link: Link) -> Link:
        """Register ``link`` and take over its delivery callback."""
        if link.name in self.links:
            raise ValueError(f"duplicate link name: {link.name!r}")
        self.links[link.name] = link
        link.deliver = self._on_deliver
        # Wire the pool into every drop site so packets that die in
        # flight are recycled instead of garbage-collected.
        link.pool = self.pool
        link.queue.pool = self.pool
        return link

    def add_flow(self, flow_id: int,
                 data_route: List[Link],
                 ack_route: List[Link]) -> FlowPath:
        """Register a flow with explicit forward and reverse routes."""
        if flow_id in self.flows:
            raise ValueError(f"duplicate flow id: {flow_id}")
        for link in list(data_route) + list(ack_route):
            if link.name not in self.links:
                raise ValueError(
                    f"route for flow {flow_id} uses unregistered "
                    f"link {link.name!r}")
        path = FlowPath(flow_id, tuple(data_route), tuple(ack_route))
        self.flows[flow_id] = path
        return path

    def attach_receiver(self, flow_id: int, endpoint: Endpoint) -> None:
        """Install the callback receiving this flow's data packets."""
        self.flows[flow_id].data_endpoint = endpoint

    def attach_sender(self, flow_id: int, endpoint: Endpoint) -> None:
        """Install the callback receiving this flow's ACKs."""
        self.flows[flow_id].ack_endpoint = endpoint

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def send_data(self, packet: Packet) -> bool:
        """Launch a data packet from its sender.  False if dropped at hop 0."""
        path = self.flows[packet.flow_id]
        return self._launch(packet, path.data_route, path.data_endpoint)

    def send_ack(self, packet: Packet) -> bool:
        """Launch an ACK from its receiver back to the sender."""
        path = self.flows[packet.flow_id]
        return self._launch(packet, path.ack_route, path.ack_endpoint)

    def _launch(self, packet: Packet, route: Tuple[Link, ...],
                endpoint: Optional[Endpoint]) -> bool:
        if endpoint is None:
            raise RuntimeError(
                f"flow {packet.flow_id} has no endpoint attached for "
                f"{'ACK' if packet.is_ack else 'data'} packets")
        packet.route = route
        packet.hop = 0
        if not route:
            endpoint(packet)
            return True
        return route[0].send(packet)

    def _on_deliver(self, packet: Packet) -> None:
        hop = packet.hop + 1
        packet.hop = hop
        route = packet.route
        if hop < len(route):
            route[hop].send(packet)
            return
        path = self.flows[packet.flow_id]
        endpoint = path.ack_endpoint if packet.is_ack else path.data_endpoint
        endpoint(packet)
