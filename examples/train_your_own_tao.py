#!/usr/bin/env python
"""Train your own Tao protocol from scratch, then race it against TCP.

This walks the full pipeline of the paper in miniature:

1. declare a *training model* — a distribution over networks
   (here: a 5-50 Mbps dumbbell with 100 ms RTT and 1-4 senders),
2. run the Remy optimizer for a couple of generations,
3. test the synthesized protocol on a scenario drawn from the model,
   next to TCP Cubic and the omniscient bound.

Run:  python examples/train_your_own_tao.py        (~2-4 minutes)
"""

from repro import NetworkConfig, Scale, ScenarioRange, run_seeds
from repro.core.omniscient import omniscient_dumbbell
from repro.exec import SupervisedExecutor
from repro.remy.evaluator import EvalSettings
from repro.remy.optimizer import OptimizerSettings, RemyOptimizer

TRAINING_MODEL = ScenarioRange(
    link_speed_mbps=(5.0, 50.0),     # log-uniform
    rtt_ms=(100.0, 100.0),
    num_senders=(1, 4),
    buffer_bdp=5.0)

TEST_CONFIG = NetworkConfig(
    link_speeds_mbps=(20.0,), rtt_ms=100.0,
    sender_kinds=("learner", "learner"),
    mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=5.0)

TEST_SCALE = Scale(duration_s=45.0, packet_budget=120_000, n_seeds=3)


def report(runs, label):
    flows = [flow for run in runs for flow in run.flows
             if flow.packets_delivered > 0]
    tpt = sum(f.throughput_bps for f in flows) / len(flows) / 1e6
    qdelay = sum(f.queueing_delay_s for f in flows) / len(flows) * 1e3
    print(f"{label:<18} {tpt:8.2f} Mbps  {qdelay:8.1f} ms queueing")


def main():
    eval_settings = EvalSettings(
        n_configs=6, sim_seeds=(1,),
        scale=Scale(duration_s=8.0, packet_budget=20_000,
                    min_duration_s=4.0))
    optimizer_settings = OptimizerSettings(
        generations=2, max_action_steps=6, time_budget_s=180.0)

    print("training a Tao on 5-50 Mbps x 1-4 senders ...")
    with SupervisedExecutor() as executor:
        optimizer = RemyOptimizer(TRAINING_MODEL, eval_settings,
                                  optimizer_settings, executor=executor,
                                  progress=lambda m: print("  " + m))
        tree, log = optimizer.train()
    print(f"trained: {len(tree)} whiskers, "
          f"{log.evaluations} simulations, "
          f"{log.wall_time_s:.0f}s wall clock")

    print("\ntesting on a 20 Mbps / 100 ms dumbbell, 2 senders:")
    report(run_seeds(TEST_CONFIG, trees={"learner": tree},
                     scale=TEST_SCALE), "your Tao")

    cubic_config = NetworkConfig.from_dict(
        {**TEST_CONFIG.to_dict(), "sender_kinds": ["cubic", "cubic"]})
    report(run_seeds(cubic_config, scale=TEST_SCALE), "TCP Cubic")

    omni = omniscient_dumbbell(TEST_CONFIG)[0]
    print(f"{'omniscient':<18} {omni.throughput_bps / 1e6:8.2f} Mbps  "
          f"{0.0:8.1f} ms queueing")


if __name__ == "__main__":
    main()
