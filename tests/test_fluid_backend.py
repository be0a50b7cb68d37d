"""The vectorized fluid backend: fidelity, properties, and screening.

Three contracts, each load-bearing for a different consumer:

* **Cross-validation** — every golden packet scenario, re-run on the
  fluid backend, must land inside a committed per-scenario relative
  error band on per-flow mean throughput and mean delay.  The bands
  are the observed calibration errors plus headroom, ceilinged at the
  10% fidelity target docs/PERFORMANCE.md records; anyone changing
  the fluid integrator re-earns these bands, not just "close enough".
* **Physics properties** — results no fluid-model refactor may break:
  throughput monotone in link rate, and delivered bytes bounded by
  bottleneck capacity, across queue disciplines.
* **Screen-then-confirm** — when training screens candidates on the
  fluid backend, the batch argmax must still be a genuine packet-engine
  score, and seed-batched fluid runs must be bitwise identical to solo
  runs (the executor determinism contract extended to grouping).
"""

import dataclasses
import warnings

import pytest

from test_golden_traces import SCENARIOS

from repro.core.scenario import NetworkConfig
from repro.exec import SimTask, run_sim_task, run_task_group
from repro.remy.action import Action
from repro.remy.evaluator import TreeEvaluator
from repro.remy.optimizer import OptimizerSettings, RemyOptimizer
from repro.remy.tree import WhiskerTree
from repro.sim.fluid import simulate_fluid

from test_evaluator_optimizer import RANGE, TINY

#: name -> (throughput band, delay band): max |fluid - packet| / packet
#: over the scenario's flows.  Committed from the calibration pass that
#: landed the backend (worst observed: -6.4% throughput, +5.6% delay);
#: every band stays at or under the 10% target.
TOLERANCE = {
    "calibration":   (0.090, 0.020),
    "link_speed":    (0.090, 0.020),
    "multiplexing":  (0.090, 0.030),
    "rtt":           (0.040, 0.020),
    "structure":     (0.060, 0.030),
    "tcp_awareness": (0.070, 0.070),
    "diversity":     (0.090, 0.020),
    "signals":       (0.070, 0.020),
    "api":           (0.030, 0.030),
    "zero_delay":    (0.030, 0.080),
    "sfq_codel":     (0.080, 0.060),
    # Outage dynamics sit outside the 10% static-fidelity target: the
    # fluid blackout approximations (nominal-inverse delay pricing and
    # step-grid window edges — see docs/PERFORMANCE.md) cost ~12% on
    # the bursty learner flow.  Band widened accordingly, knowingly.
    "outage_blackout": (0.150, 0.030),
    # The DCTCP fluid port marks with a per-step threshold indicator,
    # not per-packet CE bits, so on a 2 s slow-start transient the cut
    # timing (and which flow grabs the early share) lands ~14-16% off
    # the packet engine — see docs/PERFORMANCE.md ("When not to trust
    # it").  Bands widened accordingly, knowingly.
    "ecn":       (0.060, 0.200),
    "dctcp_ecn": (0.200, 0.120),
}

#: Golden packet scenarios the fluid backend *refuses* (packet-only
#: dynamics features).  ``test_packet_only_scenarios_refused_by_name``
#: pins the refusal and its message.
FLUID_UNSUPPORTED = {"rtt_jitter", "pcc_dumbbell"}


def _fluid_twin(task: SimTask) -> SimTask:
    """The same simulation on the fluid backend (usage recording off:
    the fluid model has no per-whisker instrumentation)."""
    return dataclasses.replace(task, backend="fluid",
                               record_usage=False)


def _rel(fluid: float, packet: float, floor: float) -> float:
    return abs(fluid - packet) / max(abs(packet), floor)


class TestCrossValidation:
    @pytest.mark.parametrize("name", sorted(TOLERANCE))
    def test_within_band(self, name):
        tput_tol, delay_tol = TOLERANCE[name]
        packet = run_sim_task(SCENARIOS[name]).run
        fluid = run_sim_task(_fluid_twin(SCENARIOS[name])).run
        assert len(fluid.flows) == len(packet.flows)
        for pf, ff in zip(packet.flows, fluid.flows):
            # Floors keep an idle flow (nothing delivered on either
            # backend) from dividing by ~zero.
            tput = _rel(ff.throughput_bps, pf.throughput_bps, 1e3)
            delay = _rel(ff.mean_delay_s, pf.mean_delay_s, 1e-4)
            assert tput <= tput_tol, (
                f"{name} flow{pf.flow_id} ({pf.kind}): throughput "
                f"{pf.throughput_bps:.0f} -> {ff.throughput_bps:.0f} "
                f"bps, error {tput:.1%} > {tput_tol:.1%}")
            assert delay <= delay_tol, (
                f"{name} flow{pf.flow_id} ({pf.kind}): delay "
                f"{pf.mean_delay_s * 1e3:.2f} -> "
                f"{ff.mean_delay_s * 1e3:.2f} ms, "
                f"error {delay:.1%} > {delay_tol:.1%}")

    def test_every_golden_scenario_has_a_band(self):
        """A new golden scenario must bring its cross-validation band
        along (fluid-native scenarios have nothing to validate against,
        and packet-only dynamics scenarios must be declared in
        FLUID_UNSUPPORTED instead)."""
        packet = {name for name, task in SCENARIOS.items()
                  if task.backend == "packet"}
        assert packet == set(TOLERANCE) | FLUID_UNSUPPORTED
        assert not set(TOLERANCE) & FLUID_UNSUPPORTED

    @pytest.mark.parametrize("name", sorted(FLUID_UNSUPPORTED))
    def test_packet_only_scenarios_refused_by_name(self, name):
        """Rebuilding a packet-only scenario on the fluid backend must
        fail at build time with the offending feature named."""
        task = SCENARIOS[name]
        with pytest.raises(ValueError, match="packet-only"):
            SimTask.build(task.config, trees=dict(task.trees),
                          seed=task.seed, duration_s=task.duration_s,
                          backend="fluid")


def _dumbbell(rate, kinds, buffer_bdp=5.0, queue="droptail"):
    return NetworkConfig(
        link_speeds_mbps=(rate,), rtt_ms=100.0, sender_kinds=kinds,
        mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=buffer_bdp,
        queue=queue)


class TestFluidProperties:
    def test_throughput_monotone_in_link_rate(self):
        """Same workload, faster bottleneck: never fewer bytes out."""
        totals = []
        for rate in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            run = simulate_fluid(
                _dumbbell(rate, ("newreno", "newreno")),
                seeds=(1,), duration_s=4.0)[0]
            totals.append(sum(f.delivered_bytes for f in run.flows))
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]   # and it actually uses the rate

    @pytest.mark.parametrize("queue", ["droptail", "codel", "sfq_codel"])
    def test_delivered_bytes_bounded_by_capacity(self, queue):
        """Byte conservation: the bottleneck cannot be beaten."""
        rate, duration = 15.0, 4.0
        run = simulate_fluid(
            _dumbbell(rate, ("cubic",) * 6, buffer_bdp=2.0,
                      queue=queue),
            seeds=(3,), duration_s=duration)[0]
        delivered_bits = sum(f.delivered_bytes for f in run.flows) * 8
        assert 0 < delivered_bits <= rate * 1e6 * duration * (1 + 1e-9)

    def test_vegas_at_1000_senders_raises_no_warning(self):
        """Lanes not yet ACKed hold an infinite base RTT; the Vegas
        round must not compute inf / inf on them."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = simulate_fluid(
                _dumbbell(15.0, ("vegas",) * 1000),
                seeds=(1, 2), duration_s=2.0)
        for run in runs:
            assert sum(f.delivered_bytes for f in run.flows) > 0


def _flows_key(result):
    return [(f.kind, f.delivered_bytes, f.on_time_s, f.mean_delay_s,
             f.packets_delivered) for f in result.run.flows]


class TestSeedBatching:
    def test_grouped_seeds_match_solo_runs_bitwise(self):
        """run_task_group folds same-config fluid tasks into one array
        program; batch invariance makes that fold invisible."""
        config = _dumbbell(10.0, ("learner", "cubic"))
        tree = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))
        tasks = [SimTask.build(config, trees={"learner": tree},
                               seed=seed, duration_s=2.0,
                               backend="fluid")
                 for seed in (1, 2, 3, 4)]
        grouped = run_task_group(tasks)
        solo = [run_sim_task(task) for task in tasks]
        assert [_flows_key(r) for r in grouped] \
            == [_flows_key(r) for r in solo]


class TestScreenThenConfirm:
    def _candidates(self):
        return [WhiskerTree(default_action=Action(m, b, tau))
                for m, b, tau in ((1.0, 1.0, 1e-4), (0.8, 4.0, 0.002),
                                  (0.6, 8.0, 0.002), (0.0, 1.0, 1.0))]

    def test_batch_argmax_is_packet_exact(self):
        """Whatever screening returns for the winner must equal the
        packet engine's score for that tree — the optimizer adopts on
        packet evidence only."""
        trees = self._candidates()
        screened = TreeEvaluator(RANGE, TINY, screen="fluid",
                                 confirm_top=1)
        exact = TreeEvaluator(RANGE, TINY)
        scores = screened.evaluate_batch(trees)
        packet = exact.evaluate_batch(trees)
        best = max(range(len(trees)), key=scores.__getitem__)
        assert scores[best] == packet[best]
        # ... and the winner is the same tree the packet engine picks.
        assert best == max(range(len(trees)), key=packet.__getitem__)

    def test_confirmation_expands_past_confirm_top(self):
        """Every candidate whose fluid score still beats the best
        confirmed packet score gets packet-confirmed too, so a fluid
        overestimate can never hand an unconfirmed tree the argmax."""
        trees = self._candidates()
        evaluator = TreeEvaluator(RANGE, TINY, screen="fluid",
                                  confirm_top=1)
        scores = evaluator.evaluate_batch(trees)
        packet = TreeEvaluator(RANGE, TINY).evaluate_batch(trees)
        best = max(packet)
        for score, exact in zip(scores, packet):
            if score >= best:
                assert score == exact

    def test_screened_training_final_tree_confirmed_on_packet(self):
        """A quick screened training run must report a final score the
        packet engine stands behind for the tree it returns."""
        settings = OptimizerSettings(generations=0, max_action_steps=1,
                                     neighbor_scales=(1.0,))
        optimizer = RemyOptimizer(RANGE, TINY, settings,
                                  screen="fluid", confirm_top=2)
        tree, log = optimizer.train()
        exact = TreeEvaluator(RANGE, TINY).evaluate(tree).score
        assert log.final_score == pytest.approx(exact)

    def test_invalid_screen_rejected(self):
        with pytest.raises(ValueError):
            TreeEvaluator(RANGE, TINY, screen="warp")
