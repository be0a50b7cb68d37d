"""E10 — ablations of the Remy optimizer's design choices.

Two structural decisions of the optimizer are worth ablating:

1. **Whisker splitting** — does growing the rule table (piecewise
   resolution) actually buy objective, versus optimizing a single
   global action?
2. **Pacing (tau)** — RemyCC actions include a pacing floor; how much
   of the trained protocols' performance depends on it?

Both ablations run at a tiny training budget; they compare *relative*
scores under common random numbers, which is exactly how the optimizer
itself makes decisions.
"""

from conftest import banner, require_assets

from repro.core.scale import Scale
from repro.core.scenario import ScenarioRange
from repro.experiments.common import run_seeds
from repro.experiments.calibration import CALIBRATION_CONFIG
from repro.remy.assets import load_tree
from repro.remy.evaluator import EvalSettings, TreeEvaluator
from repro.remy.optimizer import OptimizerSettings, RemyOptimizer
from repro.remy.tree import WhiskerTree

_RANGE = ScenarioRange(link_speed_mbps=(32.0, 32.0),
                       rtt_ms=(150.0, 150.0), num_senders=(2, 2),
                       buffer_bdp=5.0)

_EVAL = EvalSettings(n_configs=3, sim_seeds=(1,),
                     scale=Scale(duration_s=6.0, packet_budget=12_000,
                                 min_duration_s=4.0))


def test_ablation_whisker_splitting(benchmark):
    """Score with 0 splits vs. 1 split, same action budget."""

    def train(generations):
        optimizer = RemyOptimizer(
            _RANGE, _EVAL,
            OptimizerSettings(generations=generations,
                              max_action_steps=4,
                              time_budget_s=120.0))
        tree, log = optimizer.train(WhiskerTree())
        return log.final_score, len(tree)

    def run_ablation():
        return train(0), train(1)

    (flat_score, flat_size), (split_score, split_size) = \
        benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    banner("Ablation — whisker splitting",
           "Remy's structural growth should not hurt the objective")
    print(f"no splits : score={flat_score:8.3f}  whiskers={flat_size}")
    print(f"one split : score={split_score:8.3f}  whiskers={split_size}")
    assert split_size > flat_size
    # Splitting re-optimizes the same (and more) knobs under common
    # random numbers, so it can only help or tie (up to search noise).
    assert split_score >= flat_score - 0.2


def test_ablation_pacing(benchmark):
    """Strip the pacing floor off a trained Tao and re-measure."""
    require_assets("tao_calibration")

    def run_ablation():
        trained = load_tree("tao_calibration")
        stripped = trained.clone()
        for index, whisker in enumerate(stripped.whiskers()):
            action = whisker.action
            stripped.set_action(index, type(action)(
                action.window_multiple, action.window_increment,
                2e-5))  # effectively unpaced
        scale = Scale(duration_s=20.0, packet_budget=40_000,
                      min_duration_s=4.0, n_seeds=2)
        with_pacing = run_seeds(CALIBRATION_CONFIG,
                                trees={"learner": trained}, scale=scale)
        without = run_seeds(CALIBRATION_CONFIG,
                            trees={"learner": stripped}, scale=scale)

        def mean_qdelay(runs):
            flows = [f for r in runs for f in r.flows
                     if f.packets_delivered]
            return sum(f.queueing_delay_s for f in flows) / len(flows)

        return mean_qdelay(with_pacing), mean_qdelay(without)

    paced_delay, unpaced_delay = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1)

    banner("Ablation — pacing floor (tau)",
           "pacing is part of the action space; stripping it changes "
           "queueing behaviour")
    print(f"with trained tau : qdelay={paced_delay * 1e3:8.1f} ms")
    print(f"tau stripped     : qdelay={unpaced_delay * 1e3:8.1f} ms")
    # Stripping pacing must not *reduce* queueing delay: the trained
    # tau is what keeps the rule table from bursting into the buffer.
    assert unpaced_delay >= paced_delay * 0.8
