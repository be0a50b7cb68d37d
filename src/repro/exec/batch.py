"""``run_batch`` — the one-call entry point to the execution layer.

Callers that hold an :class:`~repro.exec.executors.Executor` pass it in
and keep ownership (the pool stays warm for the next batch); callers
that just want "N jobs, please" pass ``jobs=`` and a throwaway executor
is created and torn down around the batch.  Either way, ``store=``
layers a disk-backed :class:`~repro.exec.store.StoreExecutor` on top,
so results persist across crashes and processes.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

from .executors import Executor, ProgressFn, SerialExecutor
from .remote import RemoteExecutor
from .scheduler import RetryPolicy
from .store import ResultStore, StoreExecutor
from .supervise import SupervisedExecutor
from .task import SimTask, SimTaskResult

__all__ = ["run_batch", "executor_for"]

#: Anything ``store=`` accepts: an open store or a directory path.
StoreLike = Union[ResultStore, str, os.PathLike]

#: Anything ``workers=`` accepts: a ``"host:port,host:port"`` string or
#: a sequence of addresses (see :func:`repro.exec.remote.parse_workers`).
WorkersLike = Union[str, Sequence[Union[str, Tuple[str, int]]]]


def executor_for(jobs: Optional[int],
                 store: Optional[StoreLike] = None,
                 resume: bool = False,
                 policy: Optional[RetryPolicy] = None,
                 workers: Optional[WorkersLike] = None) -> Executor:
    """The executor implied by ``--jobs N`` / ``--store PATH`` flags.

    ``None``, ``0``, or ``1`` jobs mean serial; anything larger is a
    supervised worker pool with that many workers (a
    :class:`~repro.exec.supervise.SupervisedExecutor`: per-task
    exception capture, worker respawn with chunk bisection, cost-derived
    timeouts — see ``docs/EXECUTION.md``, "Failure semantics").
    Negative counts are rejected loudly — silently running a sweep
    single-core after a ``--jobs -8`` typo would waste hours.

    ``policy`` tunes retries/timeouts/quarantine (default
    :class:`RetryPolicy`, which raises on the first exhausted task).

    ``workers`` (``--workers host:port,...``) overrides local
    execution with a :class:`~repro.exec.remote.RemoteExecutor`
    dispatching to those worker daemons under the same policy; ``jobs``
    then sizes only the local fallback pool used when no worker is
    reachable.

    ``store`` (a directory path or an open :class:`ResultStore`) wraps
    the executor in a :class:`StoreExecutor`: results already on disk
    are served without simulating, fresh results are persisted as they
    complete.  Under a quarantine policy the store also records poison
    fingerprints and — on ``resume`` — serves their recorded failures
    instead of re-executing them.  ``resume`` additionally requires the
    store to already exist — the ``--resume`` guard against a typo'd
    path quietly recomputing a finished sweep (``FileNotFoundError``
    otherwise).

    The caller owns the result and should ``close()`` it (or use it as
    a context manager).
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if resume and store is None:
        raise ValueError("resume requires a result store "
                         "(pass store=/--store)")
    if workers:
        inner: Executor = RemoteExecutor(workers, policy=policy,
                                         fallback_jobs=jobs or None)
    elif jobs is not None and jobs > 1:
        inner = SupervisedExecutor(jobs, policy=policy)
    else:
        inner = SerialExecutor()
    if store is None:
        return inner
    if not isinstance(store, ResultStore):
        store = ResultStore(store, require_exists=resume)
    quarantining = policy is not None and policy.on_failure == "quarantine"
    return StoreExecutor(inner, store=store,
                         skip_quarantined=quarantining)


def run_batch(tasks: Sequence[SimTask],
              executor: Optional[Executor] = None,
              jobs: Optional[int] = None,
              progress: Optional[ProgressFn] = None,
              store: Optional[StoreLike] = None,
              policy: Optional[RetryPolicy] = None,
              workers: Optional[WorkersLike] = None
              ) -> List[SimTaskResult]:
    """Run ``tasks`` and return their results in task order.

    Exactly one of ``executor`` / ``jobs`` is normally given; with
    neither, the batch runs serially.  A passed-in executor is *not*
    closed (it may be reused); a ``jobs``-created one is.  ``store``
    layers disk-backed result persistence over either — a passed-in
    executor is then wrapped for this batch but still not closed.
    Callers issuing *many* batches against one store should pass an
    open :class:`ResultStore` (or a long-lived
    :class:`StoreExecutor`), not a path: a path is opened fresh each
    call, re-parsing its shards from disk.
    """
    if executor is not None:
        if store is not None:
            # Wrap without taking ownership: StoreExecutor.close would
            # close the caller's executor, so don't close the wrapper.
            executor = StoreExecutor(executor, store=store)
        return executor.run_batch(tasks, progress=progress)
    with executor_for(jobs, store=store, policy=policy,
                      workers=workers) as owned:
        return owned.run_batch(tasks, progress=progress)
