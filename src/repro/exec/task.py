"""Declarative simulation tasks.

A :class:`SimTask` is a pickle-friendly description of *one* simulation
run: the network config (as a plain dict), the whisker trees by sender
kind (as JSON strings), the RNG seed, the simulated duration, and
whether to record per-whisker usage.  Everything an executor needs to
reproduce the run in another process — and nothing else — lives on the
task, which is what makes the execution layer's determinism contract
possible: the same task always produces the same result, bit for bit,
regardless of which worker runs it.

Tasks carry a stable :meth:`SimTask.fingerprint` (a SHA-1 over the
canonical JSON form), exposed to every cache through :func:`cache_key`:
:class:`~repro.exec.executors.CachingExecutor` keys its in-memory memo
with it, :class:`~repro.exec.store.StoreExecutor` keys the on-disk
result store with it, and the evaluator uses it to avoid re-running
incumbents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.scale import PACKET_BYTES

__all__ = ["SimTask", "SimTaskResult", "TaskFailure", "run_sim_task",
           "run_task_group", "task_units", "task_cost", "cache_key",
           "BACKENDS", "BackendRefusal"]

#: Simulation backends a task may select.  ``"packet"`` is the exact
#: event-driven engine (the source of truth); ``"fluid"`` is the
#: vectorized discrete-time approximation (:mod:`repro.sim.fluid`).
BACKENDS = ("packet", "fluid")


class BackendRefusal(ValueError):
    """The selected backend cannot run a scenario (a packet-only scheme
    or dynamics feature on ``"fluid"``).  Raised by :meth:`SimTask.build`
    — so before anything in the batch has run — for the CLIs to report
    as one line instead of a traceback."""


@dataclass(frozen=True)
class SimTask:
    """One simulation, fully described by plain picklable data.

    Build instances with :meth:`build` (from live ``NetworkConfig`` /
    ``WhiskerTree`` objects) rather than the raw constructor.
    """

    config: dict                           # NetworkConfig.to_dict()
    trees: Tuple[Tuple[str, str], ...]     # sorted (kind, tree_json)
    seed: int
    duration_s: float
    record_usage: bool = False
    backend: str = "packet"

    @classmethod
    def build(cls, config, trees=None, seed: int = 0,
              duration_s: float = 10.0,
              record_usage: bool = False,
              backend: str = "packet") -> "SimTask":
        """Construct from a :class:`~repro.core.scenario.NetworkConfig`
        and a ``{kind: WhiskerTree}`` mapping (either may already be in
        serialized form)."""
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        config_dict = config if isinstance(config, dict) \
            else config.to_dict()
        pairs = []
        for kind, tree in sorted((trees or {}).items()):
            pairs.append((kind, tree if isinstance(tree, str)
                          else tree.to_json()))
        if backend == "fluid":
            # Fail at build time, not mid-batch: by the time a mixed
            # task group reaches the fluid branch, every packet task in
            # the batch has already been simulated — an unsupported
            # scheme or packet-only dynamics feature should reject the
            # task before any work happens, with the reason named.
            from ..core.scenario import NetworkConfig
            from ..sim.fluid import fluid_refusal
            cfg = config if isinstance(config, NetworkConfig) \
                else NetworkConfig.from_dict(config_dict)
            reason = fluid_refusal(cfg, tree_kinds=[k for k, _ in pairs])
            if reason is not None:
                raise BackendRefusal(
                    f"backend 'fluid' cannot run this task: {reason}")
        return cls(config=config_dict, trees=tuple(pairs), seed=seed,
                   duration_s=duration_s, record_usage=record_usage,
                   backend=backend)

    def fingerprint(self) -> str:
        """Stable digest over every field that affects the result.

        The default ``backend="packet"`` is *omitted* from the hashed
        payload, so packet tasks fingerprint exactly as they did before
        the field existed — every pre-existing store shard and evaluator
        memo stays valid.  Non-default backends are hashed in, so a
        fluid result can never be filed under (or served for) the
        packet key of the same scenario.
        """
        payload = {"config": self.config, "trees": self.trees,
                   "seed": self.seed, "duration_s": self.duration_s,
                   "record_usage": self.record_usage}
        if self.backend != "packet":
            payload["backend"] = self.backend
        text = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha1(text.encode()).hexdigest()


def cache_key(task: "SimTask") -> str:
    """The one key every result cache uses, memory or disk.

    Both :class:`~repro.exec.executors.CachingExecutor` and
    :class:`~repro.exec.store.StoreExecutor` key results through this
    helper, so an in-memory entry and an on-disk entry for the same task
    can never be filed under different keys.  The format is pinned by
    ``tests/test_exec.py::TestSimTask::test_fingerprint_format_pinned``;
    changing it invalidates every existing on-disk store, so bump
    :data:`repro.exec.store.SCHEMA_VERSION` alongside any change here.
    """
    return task.fingerprint()


@dataclass(frozen=True)
class TaskFailure:
    """Why a task produced no :class:`RunResult`.

    ``kind`` is one of ``"exception"`` (the task itself raised),
    ``"timeout"`` (it exceeded its cost-derived wall-clock budget), or
    ``"worker-death"`` (the worker process died while — after
    bisection, provably *because of* — running it).  ``attempts`` is
    how many times the task was tried before the executor gave up.
    ``resubmissions`` counts how many crash-triggered resubmissions the
    task rode through (the bisection depth for a poison task).
    """

    kind: str
    message: str
    attempts: int = 1
    error_type: str = ""
    traceback: str = ""
    resubmissions: int = 0


@dataclass
class SimTaskResult:
    """What one executed :class:`SimTask` produced.

    ``run`` holds the full per-flow statistics; ``usage_counts`` /
    ``usage_sums`` carry the learner tree's per-whisker usage when the
    task asked for it (empty otherwise).  Consumers derive scores from
    these fields on the submitting side, so scoring policy never needs
    to travel to the workers.

    A result is *either* a run *or* a failure: under the supervised
    executor's quarantine policy a task that exhausted its retries
    yields ``run=None`` with ``failure`` describing why, instead of
    killing the batch.  Check :attr:`ok` before touching :attr:`run`.
    """

    run: Optional["RunResult"] = None   # repro.core.results.RunResult
    usage_counts: List[int] = field(default_factory=list)
    usage_sums: List[List[float]] = field(default_factory=list)
    failure: Optional[TaskFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def task_cost(task: SimTask) -> float:
    """Expected cost of one task, in simulated packet-events.

    The dominant cost of a pure-Python simulation is the number of
    packet events, which is known *before* running: the task's duration
    (already set via ``Scale.duration_for``) times the bottleneck packet
    rate.  Used to pack pool chunks by cost instead of count, so one
    1000 Mbps run doesn't straggle behind a chunk of 1 Mbps runs.
    """
    speeds = (1.0,)
    if isinstance(task.config, dict):
        speeds = task.config.get("link_speeds_mbps") or (1.0,)
    rate_pps = max(speeds) * 1e6 / (8.0 * PACKET_BYTES)
    return max(task.duration_s, 0.0) * max(rate_pps, 1.0)


def task_units(tasks: Sequence[SimTask]) -> List[List[int]]:
    """Split a batch into execution units (lists of task indices).

    Packet tasks are singleton units, in task order; after them, fluid
    tasks that differ only by seed form one vectorized unit each.
    :func:`run_task_group` runs a batch unit by unit, and a worker that
    iterates the same units itself can acknowledge each task as its
    unit completes — the scheduler's heartbeat, and what keeps a crash
    from losing already-finished work.
    """
    units: List[List[int]] = []
    fluid: Dict[Tuple, List[int]] = {}
    for i, task in enumerate(tasks):
        if task.backend != "fluid":
            units.append([i])
            continue
        key = (json.dumps(task.config, sort_keys=True,
                          separators=(",", ":")),
               task.trees, task.duration_s, task.record_usage)
        fluid.setdefault(key, []).append(i)
    units.extend(fluid.values())
    return units


def _decode_trees(task: SimTask) -> Dict[str, "WhiskerTree"]:
    """The task's whisker trees, parsed and compiled."""
    from ..remy.compiled import compiled_from_json
    from ..remy.tree import WhiskerTree

    trees: Dict[str, WhiskerTree] = {}
    for kind, text in task.trees:
        tree = WhiskerTree.from_json(text)
        # The task's tree JSON is the canonical serialization its
        # fingerprint hashes, so it keys a process-wide compilation
        # memo: evaluating one candidate over a (config x seed) grid
        # compiles it once per worker, not once per task.
        tree.adopt_compiled(compiled_from_json(text))
        trees[kind] = tree
    return trees


def run_sim_task(task: SimTask) -> SimTaskResult:
    """Execute one task (module-level so multiprocessing can pickle it).

    This is the single choke point every executor funnels through:
    serial and pooled execution differ only in *where* this function
    runs, never in what it computes.
    """
    if task.backend == "fluid":
        return run_task_group([task])[0]    # a seed batch of one
    # Imported at call time, not module top: experiments.common imports
    # the protocols package, which imports repro.remy — a cycle at
    # import time but not at call time.
    from ..core.scenario import NetworkConfig
    from ..experiments.common import build_simulation

    trees = _decode_trees(task)
    config = NetworkConfig.from_dict(task.config)
    handle = build_simulation(config, trees=trees, seed=task.seed,
                              record_usage=task.record_usage)
    run = handle.run(task.duration_s)
    counts: List[int] = []
    sums: List[List[float]] = []
    if task.record_usage and "learner" in trees:
        counts, sums = trees["learner"].extract_stats()
    return SimTaskResult(run=run, usage_counts=counts, usage_sums=sums)


def run_task_group(tasks: Sequence[SimTask]) -> List[SimTaskResult]:
    """Execute a batch of tasks, vectorizing fluid seed batches.

    Packet tasks run one at a time through :func:`run_sim_task`.  Fluid
    tasks that differ only by seed are grouped (:func:`task_units`) and
    evaluated by a single :func:`~repro.sim.fluid.simulate_fluid` call —
    one array program per (config, trees, duration) group.  Because the
    fluid integrator is batch-invariant (elementwise across seeds), the
    grouped results are bitwise-identical to running each task alone,
    so every executor may route through here without weakening the
    determinism contract.
    """
    from ..core.scenario import NetworkConfig

    results: List[Optional[SimTaskResult]] = [None] * len(tasks)
    for unit in task_units(tasks):
        first = tasks[unit[0]]
        if first.backend != "fluid":
            results[unit[0]] = run_sim_task(first)
            continue
        from ..sim.fluid import simulate_fluid
        runs = simulate_fluid(NetworkConfig.from_dict(first.config),
                              trees=_decode_trees(first),
                              seeds=[tasks[i].seed for i in unit],
                              duration_s=first.duration_s)
        # The fluid model has no per-whisker usage instrumentation;
        # usage-recording consumers must stay on the packet backend.
        for i, run in zip(unit, runs):
            results[i] = SimTaskResult(run=run)
    return results  # type: ignore[return-value]
