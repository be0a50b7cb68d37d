"""E12 — execution-layer throughput microbenchmarks.

Not a paper artifact: these time ``run_batch`` over a small scenario
grid through the serial and process-pool executors, so the speedup of
the parallel execution layer (and any regression in its dispatch
overhead) shows up in the perf trajectory.  On a multi-core machine the
2-worker pool should approach 2x the serial throughput once the pool is
warm; on a single core it measures the dispatch overhead floor.
"""

from repro.core.scenario import NetworkConfig
from repro.exec import ProcessPoolExecutor, SerialExecutor, SimTask

from conftest import banner


def _grid(n_seeds: int = 3) -> list:
    """A small (config x seed) grid: 8 tasks, a few seconds of sim."""
    tasks = []
    for speed in (8.0, 16.0):
        for senders in (1, 2):
            config = NetworkConfig(
                link_speeds_mbps=(speed,), rtt_ms=100.0,
                sender_kinds=("newreno",) * senders,
                mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=5.0)
            for seed in range(1, n_seeds):
                tasks.append(SimTask.build(config, seed=seed,
                                           duration_s=3.0))
    return tasks


def test_run_batch_serial(benchmark):
    """Baseline: the whole grid in-process."""
    banner("executor throughput — serial",
           "reference for the pooled speedup")
    tasks = _grid()

    results = benchmark.pedantic(
        lambda: SerialExecutor().run_batch(tasks),
        rounds=3, iterations=1)
    assert len(results) == len(tasks)
    assert all(out.run.flows for out in results)


def test_run_batch_pool_two_workers(benchmark):
    """The same grid through a warm 2-worker process pool."""
    banner("executor throughput — 2-worker pool",
           "approaches 2x serial on >=2 free cores")
    tasks = _grid()
    with ProcessPoolExecutor(jobs=2) as pool:
        pool.run_batch(tasks[:1])      # warm the workers outside timing

        results = benchmark.pedantic(
            lambda: pool.run_batch(tasks), rounds=3, iterations=1)
        assert len(results) == len(tasks)

        # The determinism contract, re-checked where it is cheapest:
        serial = SerialExecutor().run_batch(tasks[:2])
        for a, b in zip(serial, results[:2]):
            assert [f.delivered_bytes for f in a.run.flows] \
                == [f.delivered_bytes for f in b.run.flows]
