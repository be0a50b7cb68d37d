"""The Remy search procedure (paper section 3.3).

Following Winstein & Balakrishnan (SIGCOMM 2013), the optimizer
alternates two moves on the whisker tree:

1. **Action refinement.**  Evaluate the tree over sampled training
   scenarios, pick the most-used whisker that has not been optimized in
   this generation, and hill-climb its (m, b, tau) action over the
   six single-dimension neighbour moves at geometrically growing step
   sizes.  Common random numbers make candidate comparisons low-variance.
2. **Structural growth.**  When every whisker has been refined, split
   the busiest whisker at the mean of its observed signal vectors (one
   binary split per active signal dimension) and start a new generation.

The original tool burned a CPU-year per protocol; this reproduction runs
the same loop at a reduced budget (see "Substitutions" in README.md),
scaling with the ``EvalSettings`` and ``OptimizerSettings`` knobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.scenario import ScenarioRange
from ..exec import Executor
from .action import Action
from .evaluator import EvalSettings, TreeEvaluator
from .tree import WhiskerTree

__all__ = ["OptimizerSettings", "TrainingLog", "RemyOptimizer",
           "cooptimize"]

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class OptimizerSettings:
    """Search budget for one training run."""

    generations: int = 3            # number of whisker splits
    max_action_steps: int = 10      # hill-climb rounds per whisker
    neighbor_scales: tuple = (1.0, 4.0)
    min_improvement: float = 1e-3   # log2 units of objective
    time_budget_s: Optional[float] = None


@dataclass
class TrainingLog:
    """What happened during a training run."""

    scores: List[float]
    tree_sizes: List[int]
    evaluations: int
    wall_time_s: float

    @property
    def final_score(self) -> float:
        return self.scores[-1] if self.scores else float("-inf")


class RemyOptimizer:
    """Searches for a Tao protocol over a training scenario range."""

    def __init__(self, scenario_range: ScenarioRange,
                 eval_settings: EvalSettings = EvalSettings(),
                 settings: OptimizerSettings = OptimizerSettings(),
                 executor: Optional[Executor] = None,
                 progress: Optional[ProgressFn] = None,
                 screen: Optional[str] = None,
                 confirm_top: int = 4):
        # screen="fluid" makes candidate batches screen-then-confirm
        # (see TreeEvaluator); incumbents are always packet-scored.
        self.evaluator = TreeEvaluator(scenario_range, eval_settings,
                                       executor=executor,
                                       screen=screen,
                                       confirm_top=confirm_top)
        self.settings = settings
        self._progress = progress or (lambda message: None)

    # ------------------------------------------------------------------
    def train(self, tree: Optional[WhiskerTree] = None,
              peer: Optional[WhiskerTree] = None
              ) -> tuple[WhiskerTree, TrainingLog]:
        """Run the full search; returns the tree and a log."""
        started = time.monotonic()
        settings = self.settings
        if tree is None:
            tree = WhiskerTree()
        log = TrainingLog(scores=[], tree_sizes=[], evaluations=0,
                          wall_time_s=0.0)

        for generation in range(settings.generations + 1):
            score = self._refine_generation(tree, peer, started)
            log.scores.append(score)
            log.tree_sizes.append(len(tree))
            self._progress(
                f"generation {generation}: score={score:.3f} "
                f"whiskers={len(tree)}")
            if generation == settings.generations:
                break
            if self._out_of_time(started):
                self._progress("time budget exhausted; stopping")
                break
            target = tree.most_used_whisker()
            if target is None:  # pragma: no cover - defensive
                break
            tree.split(target)
            tree.reset_optimized_flags()
            # The split changed the tree's fingerprint: every cached
            # task result is now unreachable, so drop them.
            self.evaluator.clear_cache()

        log.evaluations = self.evaluator.evaluations
        log.wall_time_s = time.monotonic() - started
        return tree, log

    # ------------------------------------------------------------------
    def _out_of_time(self, started: float) -> bool:
        budget = self.settings.time_budget_s
        return budget is not None and time.monotonic() - started > budget

    def _refine_generation(self, tree: WhiskerTree,
                           peer: Optional[WhiskerTree],
                           started: float) -> float:
        """Optimize every whisker's action once; returns final score."""
        tree.reset_stats()
        baseline = self.evaluator.evaluate(tree, peer=peer,
                                           record_usage=True)
        score = baseline.score
        while True:
            whisker = tree.most_used_whisker(only_unoptimized=True)
            if whisker is None or whisker.optimized:
                return score
            index = tree.whiskers().index(whisker)
            score = self._improve_action(tree, index, score, peer)
            whisker.optimized = True
            if self._out_of_time(started):
                return score

    def _improve_action(self, tree: WhiskerTree, index: int,
                        current_score: float,
                        peer: Optional[WhiskerTree]) -> float:
        """Hill-climb one whisker's action; returns the best score."""
        settings = self.settings
        for _ in range(settings.max_action_steps):
            action = tree.whiskers()[index].action
            candidates: List[Action] = []
            for scale in settings.neighbor_scales:
                for neighbor in action.neighbors(scale):
                    if neighbor not in candidates:
                        candidates.append(neighbor)
            candidate_trees = []
            for candidate in candidates:
                clone = tree.clone()
                clone.set_action(index, candidate)
                candidate_trees.append(clone)
            scores = self.evaluator.evaluate_batch(candidate_trees,
                                                   peer=peer)
            best_index = max(range(len(scores)), key=scores.__getitem__)
            if scores[best_index] <= current_score + settings.min_improvement:
                return current_score
            current_score = scores[best_index]
            tree.set_action(index, candidates[best_index])
        return current_score


def cooptimize(range_a: ScenarioRange, range_b: ScenarioRange,
               eval_settings: EvalSettings = EvalSettings(),
               settings: OptimizerSettings = OptimizerSettings(),
               rounds: int = 2, executor: Optional[Executor] = None,
               progress: Optional[ProgressFn] = None,
               screen: Optional[str] = None,
               confirm_top: int = 4) -> tuple[WhiskerTree, WhiskerTree]:
    """Alternating co-optimization (paper section 4.6).

    Trains tree A against fixed tree B as its "peer" cross-traffic and
    vice versa, alternating ``rounds`` times.  Used for the
    sender-diversity experiment where a throughput-sensitive and a
    delay-sensitive protocol learn to share one bottleneck.
    """
    tree_a = WhiskerTree()
    tree_b = WhiskerTree()
    for round_number in range(rounds):
        if progress:
            progress(f"co-optimization round {round_number}: side A")
        optimizer_a = RemyOptimizer(range_a, eval_settings, settings,
                                    executor=executor, progress=progress,
                                    screen=screen,
                                    confirm_top=confirm_top)
        tree_a, _ = optimizer_a.train(tree_a, peer=tree_b)
        if progress:
            progress(f"co-optimization round {round_number}: side B")
        optimizer_b = RemyOptimizer(range_b, eval_settings, settings,
                                    executor=executor, progress=progress,
                                    screen=screen,
                                    confirm_top=confirm_top)
        tree_b, _ = optimizer_b.train(tree_b, peer=tree_a)
    return tree_a, tree_b
