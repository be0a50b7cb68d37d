"""Tests for the Remy tree evaluator and optimizer (serial, tiny)."""

import pytest

from repro.core.scale import Scale
from repro.core.scenario import ScenarioRange
from repro.exec import SimTask, run_sim_task
from repro.remy import optimizer as optimizer_module
from repro.remy.action import Action
from repro.remy.evaluator import (EvalSettings, TreeEvaluator,
                                  score_training_run)
from repro.remy.optimizer import OptimizerSettings, RemyOptimizer
from repro.remy.tree import WhiskerTree

TINY = EvalSettings(
    n_configs=2, sim_seeds=(1,),
    scale=Scale(duration_s=4.0, packet_budget=6_000, min_duration_s=2.0))

RANGE = ScenarioRange(link_speed_mbps=(8.0, 16.0), rtt_ms=(100.0, 100.0),
                      num_senders=(1, 2), buffer_bdp=5.0)


def score_one_task(config, record_usage, **trees):
    """One training simulation: ``(score, usage_counts, usage_sums)``."""
    task = SimTask.build(config, trees=trees, seed=1, duration_s=4.0,
                         record_usage=record_usage)
    out = run_sim_task(task)
    return score_training_run(out.run), out.usage_counts, out.usage_sums


class TestRunTrainingTask:
    def test_returns_finite_score(self):
        tree = WhiskerTree()
        config = RANGE.sample_many(1, seed=1)[0]
        score, counts, sums = score_one_task(
            config, True, learner=tree.to_json())
        assert score == score   # not NaN
        assert len(counts) == len(tree)
        assert len(sums) == len(tree)
        assert sum(counts) > 0

    def test_usage_skipped_when_disabled(self):
        tree = WhiskerTree()
        config = RANGE.sample_many(1, seed=1)[0]
        _, counts, sums = score_one_task(
            config, False, learner=tree.to_json())
        assert counts == [] and sums == []

    def test_peer_tree_accepted(self):
        tree = WhiskerTree()
        peer = WhiskerTree(default_action=Action(0.5, 4.0, 0.01))
        mixed = ScenarioRange(
            link_speed_mbps=(8.0, 8.0), rtt_ms=(100.0, 100.0),
            sender_mixes=(("learner", "peer"),), buffer_bdp=5.0)
        config = mixed.sample_many(1, seed=1)[0]
        score, _, _ = score_one_task(
            config, False, learner=tree.to_json(), peer=peer.to_json())
        assert score == score


class TickingClock:
    """Stands in for the ``time`` module inside the optimizer: every
    ``monotonic()`` reading is one second later than the last, and is
    logged next to what ``probe()`` says at that moment."""

    def __init__(self, probe):
        self.probe = probe
        self.readings = []

    def monotonic(self):
        now = 1000.0 + len(self.readings)
        self.readings.append((now, self.probe()))
        return now


class TestTreeEvaluator:
    def test_deterministic_scores(self):
        tree = WhiskerTree()
        first = TreeEvaluator(RANGE, TINY).evaluate(tree)
        second = TreeEvaluator(RANGE, TINY).evaluate(tree)
        assert first.score == second.score

    def test_usage_merged_into_tree(self):
        tree = WhiskerTree()
        evaluator = TreeEvaluator(RANGE, TINY)
        evaluator.evaluate(tree, record_usage=True)
        assert tree.whiskers()[0].use_count > 0

    def test_batch_matches_single(self):
        evaluator = TreeEvaluator(RANGE, TINY)
        tree_a = WhiskerTree()
        tree_b = WhiskerTree(default_action=Action(0.6, 8.0, 0.002))
        single_a = evaluator.evaluate(tree_a).score
        single_b = evaluator.evaluate(tree_b).score
        batch = evaluator.evaluate_batch([tree_a, tree_b])
        assert batch == pytest.approx([single_a, single_b])

    def test_batch_caching_avoids_resimulation(self):
        evaluator = TreeEvaluator(RANGE, TINY)
        tree = WhiskerTree()
        evaluator.evaluate_batch([tree])
        count = evaluator.evaluations
        evaluator.evaluate_batch([tree])     # cache hit
        assert evaluator.evaluations == count

    def test_better_action_scores_better(self):
        """A sane rate-matching rule beats a pathological one."""
        evaluator = TreeEvaluator(RANGE, TINY)
        sane = WhiskerTree(default_action=Action(1.0, 1.0, 1e-4))
        # Pathological: window pinned at 1 and pacing of 1 s per packet.
        crippled = WhiskerTree(default_action=Action(0.0, 1.0, 1.0))
        scores = evaluator.evaluate_batch([sane, crippled])
        assert scores[0] > scores[1]


class TestOptimizer:
    def test_training_improves_or_holds_score(self):
        optimizer = RemyOptimizer(
            RANGE, TINY,
            OptimizerSettings(generations=1, max_action_steps=2,
                              neighbor_scales=(1.0,)))
        tree, log = optimizer.train()
        assert len(log.scores) >= 1
        assert log.scores[-1] >= log.scores[0] - 1e-9
        assert log.evaluations > 0
        assert log.wall_time_s > 0

    def test_generations_grow_the_tree(self):
        optimizer = RemyOptimizer(
            RANGE, TINY,
            OptimizerSettings(generations=1, max_action_steps=1,
                              neighbor_scales=(1.0,)))
        tree, log = optimizer.train()
        assert log.tree_sizes[-1] > log.tree_sizes[0]

    def test_time_budget_respected(self, monkeypatch):
        optimizer = RemyOptimizer(
            RANGE, TINY,
            OptimizerSettings(generations=50, max_action_steps=1,
                              neighbor_scales=(1.0,),
                              time_budget_s=2.0))
        clock = TickingClock(lambda: optimizer.evaluator.evaluations)
        monkeypatch.setattr(optimizer_module, "time", clock)
        _, log = optimizer.train()
        # One reading at the start, one per budget check (after each
        # refined whisker and each generation), one for the log: the
        # check at 1003 s is the first past the 2 s budget and ends
        # training in generation 1 of 50, with no simulation after it.
        started = clock.readings[0][0]
        late = [evaluations for now, evaluations in clock.readings
                if now - started > 2.0]
        assert len(late) >= 2 and len(set(late)) == 1
        assert len(log.scores) == 2
        assert log.wall_time_s == len(clock.readings) - 1

    def test_mask_restricts_split_dims(self):
        optimizer = RemyOptimizer(
            RANGE, TINY,
            OptimizerSettings(generations=1, max_action_steps=1,
                              neighbor_scales=(1.0,)))
        tree, _ = optimizer.train(WhiskerTree(mask=(True, False,
                                                    False, False)))
        assert len(tree) <= 3   # binary splits only on one dim
