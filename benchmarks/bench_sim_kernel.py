"""E11 — simulator kernel microbenchmarks.

Not a paper artifact: these time the discrete-event core that every
experiment rests on, so performance regressions in the hot path
(event loop, link forwarding, transport ACK processing, whisker
lookup) are caught.

The workloads live in :mod:`kernel_workloads`, shared with
``compare.py`` — the committed-baseline regression gate CI runs; use
``pytest benchmarks/bench_sim_kernel.py --benchmark-only`` for
interactive numbers and ``python benchmarks/compare.py --check`` for
the pass/fail verdict.
"""

import kernel_workloads as workloads


def test_event_loop_throughput(benchmark):
    """Raw schedule/execute cycles per second."""
    events = benchmark(workloads.spin_event_loop)
    assert events >= 100_000


def test_whisker_lookup_interpreted(benchmark):
    """Node-walking ``WhiskerTree.lookup`` on a 46-leaf table."""
    hits = benchmark(workloads.run_whisker_lookups)
    assert hits == 100_000


def test_whisker_lookup_compiled(benchmark):
    """Flat-array ``CompiledTree.lookup`` over the same vectors."""
    hits = benchmark(workloads.run_compiled_lookups)
    assert hits == 100_000


def test_single_flow_simulation_rate(benchmark):
    """Packets simulated per second for a saturated dumbbell flow."""
    delivered = benchmark(workloads.run_newreno_flow)
    assert delivered > 5_000


def test_remycc_single_flow_rate(benchmark):
    """The acceptance workload: a saturated RemyCC dumbbell flow.

    Every ACK exercises Memory.on_ack, the compiled whisker lookup,
    and the action application — the training inner loop's unit cost.
    """
    delivered = benchmark(workloads.run_remycc_flow)
    assert delivered > 1_000


def test_many_sender_simulation_rate(benchmark):
    """The 50-sender multiplexing scenario's cost per simulated second."""
    delivered = benchmark(workloads.run_many_senders)
    assert delivered > 500


def test_many_sender_build_rate(benchmark):
    """Set-up cost alone: 100-sender ``build_simulation`` calls."""
    flows = benchmark(workloads.run_build_many_senders)
    assert flows == 5_000


def test_fluid_dumbbell_rate(benchmark):
    """The RemyCC dumbbell on the vectorized fluid backend."""
    delivered = benchmark(workloads.run_fluid_dumbbell)
    assert delivered > 1_000


def test_fluid_kilosender_rate(benchmark):
    """1000-sender multiplexing on the fluid backend — the sweep shape
    the backend exists for (compare.py gates its speedup over the
    packet engine's twin run)."""
    delivered = benchmark(workloads.run_fluid_kilosenders)
    assert delivered > 500
