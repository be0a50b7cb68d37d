"""Shared workload definitions for the kernel benchmarks.

Both the pytest-benchmark suite (``bench_sim_kernel.py``) and the
regression gate (``compare.py``) time exactly these functions, so the
committed ``BENCH_kernel.json`` baseline and the interactive benchmarks
can never drift apart.  Each workload returns a unit count (events,
packets, lookups); rates are reported as units per second.

The workloads are deterministic: same tree, same seed, same duration
every run — wall-clock time is the only thing allowed to vary.
"""

from __future__ import annotations

import random

from repro.core.scenario import NetworkConfig
from repro.experiments.common import build_simulation
from repro.remy.action import Action
from repro.remy.tree import WhiskerTree
from repro.sim.engine import Simulator

__all__ = ["demo_tree", "lookup_vectors", "spin_event_loop",
           "run_newreno_flow", "run_dctcp_flow", "run_pcc_flow",
           "run_remycc_flow", "run_many_senders",
           "run_build_many_senders",
           "run_whisker_lookups", "run_compiled_lookups",
           "run_fluid_dumbbell", "run_fluid_kilosenders",
           "run_packet_kilosenders"]

#: The sane rate-matching action the test suite and --fake-taos use.
_DEMO_ACTION = Action(0.8, 4.0, 0.002)


def demo_tree() -> WhiskerTree:
    """A realistically deep rule table (46 leaves, hot path ~12 deep).

    Built by splitting the root and then twice re-splitting the leaf
    that the near-origin operating point (small EWMAs, RTT ratio ~1)
    falls into — the region every saturated run actually exercises, so
    lookups walk a deep path rather than bailing at the root.
    """
    tree = WhiskerTree(default_action=_DEMO_ACTION)
    hot = (0.01, 0.01, 0.01, 1.0)
    for _ in range(3):
        tree.split(tree.lookup(hot))
    return tree


def lookup_vectors(n: int, seed: int = 42) -> list:
    """Deterministic signal vectors: half spanning the whole domain,
    half inside ``demo_tree``'s deep hot region (EWMAs < 2, RTT ratio
    < 8), so lookups exercise the 12-deep path and not just the
    4-deep one a uniform draw mostly hits."""
    rng = random.Random(seed)
    out = []
    for _ in range(n // 2):
        out.append((rng.random() * 16.0, rng.random() * 16.0,
                    rng.random() * 16.0, 1.0 + rng.random() * 63.0))
    while len(out) < n:
        out.append((rng.random() * 2.0, rng.random() * 2.0,
                    rng.random() * 2.0, 1.0 + rng.random() * 7.0))
    return out


#: Built once at import: the lookup benchmarks must time *lookups*,
#: not tree construction or 400k RNG draws — with setup inside the
#: timed body, a real lookup regression would be diluted far below the
#: regression gate's tolerance.
_LOOKUP_TREE = demo_tree()
_LOOKUP_VECTORS = lookup_vectors(100_000)


def spin_event_loop() -> int:
    """Raw schedule/execute cycles (100 chains x 1000 reschedules)."""
    sim = Simulator()

    def reschedule(depth):
        if depth > 0:
            sim.schedule(0.001, reschedule, depth - 1)

    for _ in range(100):
        sim.schedule(0.0, reschedule, 1000)
    sim.run_until_idle()
    return sim.events_processed


def run_newreno_flow(duration_s: float = 10.0) -> int:
    """Packets delivered by one saturated NewReno dumbbell flow."""
    config = NetworkConfig(
        link_speeds_mbps=(15.0,), rtt_ms=100.0,
        sender_kinds=("newreno",), mean_on_s=100.0, mean_off_s=0.0,
        buffer_bdp=5.0)
    handle = build_simulation(config, seed=1)
    result = handle.run(duration_s)
    return result.flows[0].packets_delivered


def run_dctcp_flow(duration_s: float = 10.0) -> int:
    """Packets delivered by one saturated DCTCP flow through an
    ECN-marking bottleneck (threshold at ~0.17 BDP).  Times the whole
    marking path: CE stamping in the queue, ECE echo through the
    transport, and the per-round alpha accounting in the controller.
    """
    config = NetworkConfig(
        link_speeds_mbps=(15.0,), rtt_ms=100.0,
        sender_kinds=("dctcp",), mean_on_s=100.0, mean_off_s=0.0,
        buffer_bdp=5.0, ecn_threshold=20.0)
    handle = build_simulation(config, seed=1)
    result = handle.run(duration_s)
    return result.flows[0].packets_delivered


def run_pcc_flow(duration_s: float = 10.0) -> int:
    """Packets delivered by one saturated PCC dumbbell flow.  PCC is
    pacing-driven, so every packet rides a pacing timer and every ACK
    feeds the monitor-interval accounting — the most event-dense
    scheme in the suite per delivered packet.
    """
    config = NetworkConfig(
        link_speeds_mbps=(15.0,), rtt_ms=100.0,
        sender_kinds=("pcc",), mean_on_s=100.0, mean_off_s=0.0,
        buffer_bdp=5.0)
    handle = build_simulation(config, seed=1)
    result = handle.run(duration_s)
    return result.flows[0].packets_delivered


def run_remycc_flow(duration_s: float = 10.0,
                    record_usage: bool = False) -> int:
    """Packets delivered by one saturated RemyCC dumbbell flow.

    This is the acceptance benchmark for the compiled hot path: every
    ACK walks the demo tree and applies its action, so the whisker
    lookup, Memory update, and event loop all sit on the timed path.
    """
    config = NetworkConfig(
        link_speeds_mbps=(15.0,), rtt_ms=100.0,
        sender_kinds=("learner",), mean_on_s=100.0, mean_off_s=0.0,
        buffer_bdp=5.0)
    handle = build_simulation(config, trees={"learner": demo_tree()},
                              seed=1, record_usage=record_usage)
    result = handle.run(duration_s)
    return result.flows[0].packets_delivered


def run_many_senders(duration_s: float = 3.0) -> int:
    """Total packets in the 50-sender on/off multiplexing scenario."""
    config = NetworkConfig(
        link_speeds_mbps=(15.0,), rtt_ms=150.0,
        sender_kinds=("newreno",) * 50,
        mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=5.0)
    handle = build_simulation(config, seed=1)
    result = handle.run(duration_s)
    return sum(f.packets_delivered for f in result.flows)


def run_build_many_senders(builds: int = 50) -> int:
    """``build_simulation`` calls on a 100-sender dumbbell, never run:
    the set-up cost a short many-sender task pays before its first
    event (topology, routes, senders, receivers, workloads).  The unit
    is one flow set up (100 per build), which keeps the normalized rate
    inside the six decimals the baseline file records."""
    config = NetworkConfig(
        link_speeds_mbps=(15.0,), rtt_ms=150.0,
        sender_kinds=("newreno",) * 100,
        mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=5.0)
    for _ in range(builds):
        build_simulation(config, seed=1)
    return builds * config.num_senders


def run_fluid_dumbbell(duration_s: float = 10.0) -> int:
    """The RemyCC dumbbell on the fluid backend (batched whisker
    lookups through the flat compiled tables every control interval)."""
    from repro.sim.fluid import simulate_fluid

    config = NetworkConfig(
        link_speeds_mbps=(15.0,), rtt_ms=100.0,
        sender_kinds=("learner", "newreno"), mean_on_s=100.0,
        mean_off_s=0.0, buffer_bdp=5.0)
    run = simulate_fluid(config, trees={"learner": demo_tree()},
                         seeds=(1,), duration_s=duration_s)[0]
    return sum(f.packets_delivered for f in run.flows)


def _kilosender_config(link_mbps: float) -> NetworkConfig:
    """1000 on/off NewReno senders into one bottleneck — the sweep
    shape the fluid backend exists for.  Shared by the fluid workload
    and its packet-engine twin so the speedup gate times the exact
    same scenario on both."""
    return NetworkConfig(
        link_speeds_mbps=(link_mbps,), rtt_ms=150.0,
        sender_kinds=("newreno",) * 1000,
        mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=5.0)


def run_fluid_kilosenders(duration_s: float = 2.0,
                          link_mbps: float = 15.0) -> int:
    """Total packets in the 1000-sender scenario on the fluid backend."""
    from repro.sim.fluid import simulate_fluid

    run = simulate_fluid(_kilosender_config(link_mbps), seeds=(1,),
                         duration_s=duration_s)[0]
    return sum(f.packets_delivered for f in run.flows)


def run_packet_kilosenders(duration_s: float = 2.0,
                           link_mbps: float = 15.0) -> int:
    """The same 1000-sender scenario on the packet engine (seconds per
    run at the speedup gate's link rate — only that gate times it,
    never the regression loop)."""
    handle = build_simulation(_kilosender_config(link_mbps), seed=1)
    result = handle.run(duration_s)
    return sum(f.packets_delivered for f in result.flows)


def run_whisker_lookups() -> int:
    """100k interpreted tree lookups over the prebuilt vectors."""
    lookup = _LOOKUP_TREE.lookup
    for vector in _LOOKUP_VECTORS:
        lookup(vector)
    return len(_LOOKUP_VECTORS)


def run_compiled_lookups() -> int:
    """100k compiled (flat-array) lookups over the same vectors."""
    lookup = _LOOKUP_TREE.compiled().lookup
    for vector in _LOOKUP_VECTORS:
        lookup(vector)
    return len(_LOOKUP_VECTORS)
