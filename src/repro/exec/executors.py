"""Executors: strategies for running a batch of :class:`SimTask`.

The determinism contract
------------------------
``run_batch`` returns one :class:`~repro.exec.task.SimTaskResult` per
task, *in task order*, and every executor produces bitwise-identical
results for the same batch: a task is a pure function of its fields, so
where it runs (this process, a worker process, or a cache) can never
change the answer.  The Remy optimizer's common-random-numbers
comparisons and the experiment tables both rely on this.

Executors also expose a streaming view, :meth:`Executor.run_iter`,
yielding ``(index, result)`` pairs *as tasks complete* (in any order).
The disk-backed :class:`~repro.exec.store.StoreExecutor` consumes this
to persist each result the moment it exists — which is what makes a
killed sweep resumable from everything it finished, not just from the
batches it completed.

The strategies:

* :class:`SerialExecutor` — run in-process, in order.  The reference
  implementation the others must match.
* :class:`ProcessPoolExecutor` — the shell of the two parallel
  executors: cost-packed chunks handed to the one
  :class:`~repro.exec.scheduler.Scheduler` over the lanes a subclass
  provides (:class:`~repro.exec.supervise.SupervisedExecutor`: local
  worker processes; :class:`~repro.exec.remote.RemoteExecutor`: worker
  daemons over TCP).
* :class:`CachingExecutor` — an in-memory wrapper keyed by
  :func:`~repro.exec.task.cache_key`; hits skip execution entirely.
* :class:`~repro.exec.store.StoreExecutor` — the disk-backed analogue
  (in :mod:`repro.exec.store`), sharing the same cache key.

New backends plug in by subclassing :class:`Executor`; callers only
ever see ``run_batch``/``run_iter``.
"""

from __future__ import annotations

import heapq
import itertools
import os
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .scheduler import Lanes, RetryPolicy, Scheduler
from .task import (SimTask, SimTaskResult, cache_key, run_task_group,
                   task_cost, task_units)

__all__ = ["Executor", "SerialExecutor", "ProcessPoolExecutor",
           "CachingExecutor", "default_jobs", "pack_chunks", "task_cost"]

#: ``progress(done, total)`` — called after each task completes.
ProgressFn = Callable[[int, int], None]


def default_jobs() -> int:
    """A sensible worker count for this machine (always >= 1).

    Uses the process's CPU *affinity* when the platform exposes it:
    in a cgroup-limited container (CI) ``cpu_count()`` reports the
    host's cores, and sizing the pool to that oversubscribes the few
    CPUs the scheduler will actually grant.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):   # no affinity on this platform
        cpus = os.cpu_count()
    return max((cpus or 1) - 1, 1)


def pack_chunks(costs: Sequence[float], n_chunks: int) -> List[List[int]]:
    """Partition task indices into at most ``n_chunks`` balanced chunks.

    Greedy LPT (longest processing time first): indices are assigned in
    decreasing cost order to the currently lightest chunk.  Guarantees:

    * every index appears in exactly one chunk, no chunk is empty;
    * the costliest chunk is at most 2x the ideal lower bound
      ``max(sum(costs) / n_chunks, max(costs))`` (the classic
      list-scheduling bound; LPT is in fact within 4/3);
    * fully deterministic — ties break on index, so the same batch
      always packs the same way on every machine.
    """
    n_chunks = max(int(n_chunks), 1)
    if not costs:
        return []
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    heap: List[Tuple[float, int]] = [
        (0.0, j) for j in range(min(n_chunks, len(costs)))]
    chunks: List[List[int]] = [[] for _ in heap]
    for i in order:
        load, j = heapq.heappop(heap)
        chunks[j].append(i)
        heapq.heappush(heap, (load + max(costs[i], 0.0), j))
    # Zero-cost ties can starve a chunk; empties carry no work, drop
    # them rather than ship them to a worker.
    return [sorted(chunk) for chunk in chunks if chunk]


class Executor:
    """Interface: run task batches, optionally report progress.

    Executors are context managers; ``close()`` releases any worker
    state and is always safe to call (idempotent, including on
    executors that never ran anything).
    """

    def run_batch(self, tasks: Sequence[SimTask],
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimTaskResult]:
        raise NotImplementedError

    def run_iter(self, tasks: Sequence[SimTask]
                 ) -> Iterator[Tuple[int, SimTaskResult]]:
        """Yield ``(task index, result)`` as tasks complete, any order.

        The streaming counterpart of :meth:`run_batch`, consumed by
        wrappers that act on each result as soon as it exists (the disk
        store persists per result, so a crash loses at most the tasks
        still in flight).  The default buffers one blocking
        ``run_batch``; executors that can genuinely stream override it.
        """
        yield from enumerate(self.run_batch(list(tasks)))

    def _collect(self, tasks: Sequence[SimTask],
                 progress: Optional[ProgressFn]) -> List[SimTaskResult]:
        """``run_batch`` in terms of :meth:`run_iter`: reorder to task
        order, fire ``progress`` once per completed task."""
        tasks = list(tasks)
        results: List[Optional[SimTaskResult]] = [None] * len(tasks)
        done = 0
        stream = self.run_iter(tasks)
        try:
            for i, result in stream:
                results[i] = result
                done += 1
                if progress is not None:
                    progress(done, len(tasks))
        finally:
            # Close the generator *now*, not at GC time: run_iter
            # implementations reap worker processes in their except/
            # finally blocks, and a progress callback that raises must
            # not leave that cleanup pending on the collector.
            stream.close()
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Release workers/state.  Default: nothing to release."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every task in the calling process, in order."""

    def run_iter(self, tasks: Sequence[SimTask]
                 ) -> Iterator[Tuple[int, SimTaskResult]]:
        tasks = list(tasks)
        # One vectorized call per fluid seed batch; batch-invariance
        # makes this bitwise-identical to running each task alone.
        for unit in task_units(tasks):
            yield from zip(unit, run_task_group([tasks[i] for i in unit]))

    def run_batch(self, tasks: Sequence[SimTask],
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimTaskResult]:
        return self._collect(tasks, progress)


class ProcessPoolExecutor(Executor, Lanes):
    """What the parallel executors share: chunking and the scheduler.

    Not a strategy on its own: ``run_iter`` hands the batch to one
    :class:`~repro.exec.scheduler.Scheduler`, which applies ``policy``
    (the failure contract) over the :class:`~repro.exec.scheduler.Lanes`
    methods a subclass provides; without a subclass ``run_batch``
    raises ``NotImplementedError``.

    Dispatch is chunked.  By default chunks are *cost-packed*: per-task
    costs are known up front (simulated duration x bottleneck packet
    rate, see :func:`~repro.exec.task.task_cost`), so tasks are packed
    into ~4 chunks per worker balanced by expected cost rather than
    count — a heterogeneous sweep (or the cache-miss remainder of a
    resumed one) can't degenerate into one straggler chunk holding all
    the expensive runs.  An explicit ``chunk_size`` opts back into
    contiguous count-based chunks.  Results come back in task order
    regardless of completion order.
    """

    #: Counters the scheduler and the lanes increment; set by subclasses.
    stats = None
    #: Whether idle lanes duplicate the tails of busy ones.
    steal = False

    def __init__(self, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or default_jobs()
        self.chunk_size = chunk_size
        self.policy = policy if policy is not None else RetryPolicy()
        self._aids = itertools.count(1)

    def _chunks_for(self, tasks: List[SimTask]) -> List[List[int]]:
        if self.chunk_size is not None:
            size = max(self.chunk_size, 1)
            return [list(range(lo, min(lo + size, len(tasks))))
                    for lo in range(0, len(tasks), size)]
        n_chunks = min(len(tasks), self.jobs * 4)
        return pack_chunks([task_cost(task) for task in tasks], n_chunks)

    def run_iter(self, tasks: Sequence[SimTask]
                 ) -> Iterator[Tuple[int, SimTaskResult]]:
        tasks = list(tasks)
        if tasks:
            yield from Scheduler(tasks, self._chunks_for(tasks),
                                 self.policy, self, self.stats,
                                 self._aids, steal=self.steal).run()

    def run_batch(self, tasks: Sequence[SimTask],
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimTaskResult]:
        return self._collect(tasks, progress)


class CachingExecutor(Executor):
    """Memoize an inner executor in memory, keyed by
    :func:`~repro.exec.task.cache_key`.

    Because the key covers *every* field of the task (config, trees,
    seed, duration, flags), a hit is guaranteed to be the result the
    inner executor would have produced — there is no way to get a stale
    answer by changing evaluation settings, which is exactly the bug the
    old tree-keyed score cache had.  Duplicate tasks within one batch
    execute once.  The disk-backed analogue is
    :class:`repro.exec.store.StoreExecutor`; both file results under the
    same key, so memory and disk caches can never diverge.
    """

    def __init__(self, inner: Optional[Executor] = None):
        self.inner = inner or SerialExecutor()
        self._cache: Dict[str, SimTaskResult] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()

    def run_batch(self, tasks: Sequence[SimTask],
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimTaskResult]:
        tasks = list(tasks)
        keys = [cache_key(task) for task in tasks]
        pending: List[SimTask] = []
        pending_keys: List[str] = []
        seen = set()
        for task, key in zip(tasks, keys):
            if key in self._cache:
                self.hits += 1
            elif key not in seen:
                seen.add(key)
                pending.append(task)
                pending_keys.append(key)
        # Progress is reported over the *submitted* batch: cached (and
        # duplicate) tasks count as already done, and a fully-cached
        # batch still fires one final progress(n, n).
        done_offset = len(tasks) - len(pending)
        if pending:
            self.misses += len(pending)
            inner_progress = None
            if progress is not None:
                inner_progress = lambda done, _total: progress(
                    done_offset + done, len(tasks))
            fresh = self.inner.run_batch(pending,
                                         progress=inner_progress)
            for key, result in zip(pending_keys, fresh):
                self._cache[key] = result
        elif progress is not None and tasks:
            progress(len(tasks), len(tasks))
        return [self._cache[key] for key in keys]

    def close(self) -> None:
        self.inner.close()
