"""Determinism regression harness: golden result fingerprints.

One pinned scenario per experiment module, each digested to a SHA-1
over the canonical serialized :class:`SimTaskResult`.  The committed
GOLDEN table is the contract the whole reproduction stands on:

* the simulator is a pure function of the task — any change to the
  engine, transport, queues, or workload that shifts a single float
  shows up here as a digest mismatch (bump the goldens *knowingly*);
* serial, pooled, and store-backed execution all reproduce the same
  digests — the common-random-numbers property the Remy optimizer's
  candidate comparisons depend on;
* a result written to disk and read back is bitwise-identical — the
  store may substitute persisted results for live simulation.

If a legitimate simulator change lands, regenerate with::

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import hashlib
import json

from repro.core.scenario import NetworkConfig
from repro.exec import (SerialExecutor, SimTask, StoreExecutor,
                        SupervisedExecutor)
from repro.exec.store import encode_result
from repro.experiments.api import FAKE_TREE as TREE
from repro.experiments.api import Axis, adhoc_spec, expand
from repro.experiments.calibration import CALIBRATION_CONFIG
from repro.sim.dynamics import DynamicsSpec, LinkSchedule

_LEARNER = {"learner": TREE}
_DURATION = 2.0


def _dumbbell(speed, rtt_ms, kinds, queue="droptail", buffer_bdp=5.0,
              deltas=(), dynamics=None, ecn_threshold=None):
    return NetworkConfig(
        link_speeds_mbps=(speed,), rtt_ms=rtt_ms, sender_kinds=kinds,
        deltas=deltas, mean_on_s=1.0, mean_off_s=1.0,
        buffer_bdp=buffer_bdp, queue=queue, dynamics=dynamics,
        ecn_threshold=ecn_threshold)


#: One scenario per experiment module, mirroring that module's network
#: family (speeds/RTTs/mixes/queues from the module's own constants) at
#: a 2-simulated-second budget.
SCENARIOS = {
    # E1 calibration: the paper's 32 Mbps / 150 ms / 2-learner network.
    "calibration": SimTask.build(
        CALIBRATION_CONFIG, trees=_LEARNER, seed=1,
        duration_s=_DURATION),
    # E2 link_speed: one point of the 1-1000 Mbps sweep (150 ms RTT).
    "link_speed": SimTask.build(
        _dumbbell(10.0, 150.0, ("learner", "learner")),
        trees=_LEARNER, seed=1, duration_s=_DURATION),
    # E3 multiplexing: 15 Mbps, more senders, the "no drop" buffer.
    "multiplexing": SimTask.build(
        _dumbbell(15.0, 150.0, ("learner",) * 3, buffer_bdp=None),
        trees=_LEARNER, seed=1, duration_s=_DURATION),
    # E4 rtt: the 33 Mbps dumbbell at an off-training 50 ms RTT.
    "rtt": SimTask.build(
        _dumbbell(33.0, 50.0, ("learner", "learner")),
        trees=_LEARNER, seed=1, duration_s=_DURATION),
    # E5 structure: the two-bottleneck parking lot (75 ms per hop).
    "structure": SimTask.build(
        NetworkConfig(topology="parking_lot",
                      link_speeds_mbps=(10.0, 20.0), rtt_ms=150.0,
                      sender_kinds=("learner",) * 3,
                      deltas=(1.0,) * 3, mean_on_s=1.0, mean_off_s=1.0,
                      buffer_bdp=5.0),
        trees=_LEARNER, seed=1, duration_s=_DURATION),
    # E6/E7 tcp_awareness: a Tao sharing the link with NewReno.
    "tcp_awareness": SimTask.build(
        _dumbbell(10.0, 100.0, ("learner", "newreno")),
        trees=_LEARNER, seed=1, duration_s=_DURATION),
    # E8 diversity: mixed objectives (delta 0.1 vs 10) on an infinite
    # buffer, learner + peer trees.
    "diversity": SimTask.build(
        _dumbbell(10.0, 100.0, ("learner", "peer"),
                  buffer_bdp=None, deltas=(0.1, 10.0)),
        trees={"learner": TREE, "peer": TREE}, seed=1,
        duration_s=_DURATION),
    # E9 signals: the calibration network with per-whisker usage
    # recording on (the path the knockout training runs exercise).
    "signals": SimTask.build(
        CALIBRATION_CONFIG, trees=_LEARNER, seed=2,
        duration_s=_DURATION, record_usage=True),
}

#: The spec-engine path: a grid composed through the declarative sweep
#: API (an ad-hoc link×queue grid's CoDel cell — a queue discipline no
#: experiment module hardcodes), expanded by the same `expand` the
#: engine runs on.  Pins both the expansion (cell order, config
#: construction) and the codel simulation path.
_ADHOC_SPEC = adhoc_spec(
    axes=(Axis.log("link_mbps", 8.0, 32.0, 2),
          Axis.of("queue", ("droptail", "codel"))),
    schemes=("cubic",), name="golden_adhoc", bound=False)
_ADHOC_PLANS = expand(_ADHOC_SPEC)[1]
SCENARIOS["api"] = SimTask.build(
    _ADHOC_PLANS[1].cell.config, trees=None, seed=1,
    duration_s=_DURATION)

#: Simulator-path scenarios (no experiment module of their own): pin
#: both halves of the link hot path introduced with the pooled packet
#: work.
#
# zero_delay: every hop has zero propagation (rtt 0), so the whole
# forward/reverse path runs through the instant links' direct-call /
# relay-yield machinery and the bottleneck's zero-delay direct
# delivery.  Infinite buffer: a 0-RTT BDP would floor the buffer to one
# packet and starve the run.
SCENARIOS["zero_delay"] = SimTask.build(
    _dumbbell(10.0, 0.0, ("learner", "newreno"), buffer_bdp=None),
    trees=_LEARNER, seed=1, duration_s=_DURATION)
# sfq_codel: the generic (virtual-dispatch) queue path, which must stay
# byte-identical to the pre-fast-path machinery.
SCENARIOS["sfq_codel"] = SimTask.build(
    _dumbbell(15.0, 100.0, ("learner", "cubic"), queue="sfq_codel"),
    trees=_LEARNER, seed=1, duration_s=_DURATION)
# many_senders_fluid: the vectorized fluid backend at a sender count
# the packet engine would crawl on.  Pins the fluid integrator's
# determinism (and its seed-batch invariance, via the pooled run,
# which groups fluid tasks into one array program).
SCENARIOS["many_senders_fluid"] = SimTask.build(
    _dumbbell(15.0, 150.0, ("learner",) * 50, buffer_bdp=None),
    trees=_LEARNER, seed=1, duration_s=_DURATION, backend="fluid")

#: Link-dynamics scenarios: pin the dynamic serialization path the
#: static fast paths bypass.
#
# outage_blackout: two hold-policy blackout windows on the bottleneck —
# rate drops to 0 mid-serialization (re-pricing the in-flight packet's
# remaining bits) and recovery restarts the held queue.
SCENARIOS["outage_blackout"] = SimTask.build(
    _dumbbell(12.0, 150.0, ("learner", "newreno"),
              dynamics=DynamicsSpec.outage(((0.6, 1.0), (1.4, 1.6)))),
    trees=_LEARNER, seed=1, duration_s=_DURATION)
# rtt_jitter: periodic delay resampling plus random reordering — the
# two packet-only dynamics features (no fluid analogue), drawing from
# the dynamics RNG stream disjoint from the workload streams.
SCENARIOS["rtt_jitter"] = SimTask.build(
    _dumbbell(12.0, 100.0, ("learner", "newreno"),
              dynamics=DynamicsSpec(links=(LinkSchedule(
                  jitter_ms=10.0, jitter_period_s=0.05,
                  reorder_prob=0.05, reorder_extra_ms=8.0),))),
    trees=_LEARNER, seed=1, duration_s=_DURATION)

#: ECN + modern schemes: pin the marking path end to end.
#
# ecn: the E10 module's family — an ECN drop-tail bottleneck shared by
# a DCTCP (reacts to CE echoes) and a Cubic (ignores them) sender, so
# the digest pins both the marking machinery and the non-ECN scheme's
# indifference to it.
SCENARIOS["ecn"] = SimTask.build(
    _dumbbell(15.0, 50.0, ("dctcp", "cubic"), ecn_threshold=15.0),
    trees=None, seed=1, duration_s=_DURATION)
# dctcp_ecn: homogeneous DCTCP under a tight threshold — the
# marked-fraction EWMA and proportional-cut trajectory.  (50 ms RTT:
# slow start must actually reach the threshold inside the 2 s budget,
# or the digest would pin a mark-free — ECN-dead — trajectory.)
SCENARIOS["dctcp_ecn"] = SimTask.build(
    _dumbbell(15.0, 50.0, ("dctcp", "dctcp"), ecn_threshold=10.0),
    trees=None, seed=1, duration_s=_DURATION)
# pcc_dumbbell: PCC's monitor-interval/utility-gradient loop (packet
# only — no fluid analogue of rate trials).
SCENARIOS["pcc_dumbbell"] = SimTask.build(
    _dumbbell(15.0, 100.0, ("pcc", "pcc")),
    trees=None, seed=1, duration_s=_DURATION)

#: name -> SHA-1 of the canonical serialized result.  Regenerate by
#: running this file as a script — but only after convincing yourself
#: the simulator change behind the mismatch is intentional.
GOLDEN = {
    "calibration": "48d59864b2ad2111d27f6753116e2384897c1048",
    "link_speed": "ff018da7fd61b9c51e6551a0d70287ef199120c8",
    "multiplexing": "6bef938d7172d20502f46d76ba9620a1c7556502",
    "rtt": "21d6478b30858f7cb6344be790a7ba734792b84e",
    "structure": "5769c43d166243d7e43db24a1d20a5940a028d7e",
    "tcp_awareness": "e91183a85f17c3f7b9cf072ab19b14d35716586c",
    "diversity": "f749def2366abb41d3313591b31bf4798106c7ce",
    "signals": "b13307dd764739faeaeacf7ae52aa94907b0bdea",
    "api": "0db9043ca3c8c29b9776b3a321977c23ac9ca3f8",
    "zero_delay": "ec956bfd539121b708292613bd947951939d50ba",
    "sfq_codel": "a3c66118f8d3678804aeb47ef197bddb085e44d6",
    "many_senders_fluid": "bf1e625e1803dfd31fab55382206f8cf4d026074",
    "outage_blackout": "753836519abf3a4eee99198e9336f6b5555c7236",
    "rtt_jitter": "590d8579b90f3ef7fc5b4f7ea78d5b8e69c6a47a",
    "ecn": "f8bf29d38150840c7f771fdac013d61b78d80fb1",
    "dctcp_ecn": "1408f173aa738536ab43dc60e4deefb575f6e6b9",
    "pcc_dumbbell": "ada7aa9f913232a73c4c4eff4bae7d6b6a1298cd",
}


def result_digest(result) -> str:
    """Canonical SHA-1 of everything a result carries."""
    payload = json.dumps(encode_result(result), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha1(payload.encode()).hexdigest()


def _digests(results):
    return {name: result_digest(result)
            for name, result in zip(SCENARIOS, results)}


NAMES = list(SCENARIOS)
TASKS = [SCENARIOS[name] for name in NAMES]


class TestGoldenTraces:
    def test_scenarios_cover_every_experiment_module(self):
        """A new experiment module must bring a golden scenario along."""
        import inspect

        import repro.experiments as experiments
        # "common" and "adversary" are infrastructure (shared builders,
        # the search loop), not registered experiment modules.
        modules = {name for name in dir(experiments)
                   if not name.startswith("_")
                   and name not in ("common", "adversary")
                   and inspect.ismodule(getattr(experiments, name))}
        # Subset, not equality: SCENARIOS also pins simulator paths no
        # experiment module owns (zero_delay, sfq_codel).
        assert modules <= set(SCENARIOS)

    def test_serial_matches_golden(self):
        digests = _digests(SerialExecutor().run_batch(TASKS))
        assert digests == GOLDEN

    def test_pooled_matches_golden(self):
        with SupervisedExecutor(jobs=2) as pool:
            digests = _digests(pool.run_batch(TASKS))
        assert digests == GOLDEN

    def test_store_backed_matches_golden(self, tmp_path):
        """Persist, then serve everything from disk: both the freshly
        computed and the decoded-from-disk results must digest to the
        goldens (disk round-trip is bitwise)."""
        first = StoreExecutor(SerialExecutor(), store=tmp_path / "s")
        assert _digests(first.run_batch(TASKS)) == GOLDEN
        replay = StoreExecutor(SerialExecutor(), store=tmp_path / "s")
        assert _digests(replay.run_batch(TASKS)) == GOLDEN
        assert (replay.hits, replay.misses) == (len(TASKS), 0)


if __name__ == "__main__":
    for name, task in SCENARIOS.items():
        from repro.exec import run_sim_task
        print(f'    "{name}": "{result_digest(run_sim_task(task))}",')
