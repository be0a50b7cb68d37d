"""Supervised local execution: worker processes as scheduler lanes.

:class:`SupervisedExecutor` runs batches on worker processes it
actually *watches*.  The failure contract — retry, lease deadlines,
bisection, quarantine — is :mod:`repro.exec.scheduler`'s; this module
supplies only what a pipe transport can know: how to start a worker and
hand it an assignment, that EOF on its result pipe (the supervisor
holds no write end) or a dead process means the lane is lost, and that
a lost, expired or abandoned worker is killed and reaped — a hung task
cannot be interrupted any other way, and a worker still running a stale
assignment must not survive into the next batch.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait
from typing import List, Optional, Tuple

from . import faults
from .executors import ProcessPoolExecutor
from .scheduler import LOST, RetryPolicy, run_assignment

__all__ = ["SupervisedExecutor", "SuperviseStats"]


@dataclass
class SuperviseStats:
    """Cumulative counters, mostly for the chaos tests and logs."""

    retries: int = 0            # single-task retries (exception/timeout)
    worker_deaths: int = 0      # workers that died mid-assignment
    timeouts: int = 0           # assignments killed on deadline
    bisections: int = 0         # crash-triggered chunk splits
    resubmissions: int = 0      # assignments requeued after a crash
    serial_fallbacks: int = 0   # in-process last-resort executions
    quarantined: int = 0        # tasks finalized as failure results


def _worker_main(inbox, results) -> None:
    """Worker loop: run assignments until told to stop (``None``) or
    the supervisor is gone (either channel breaks)."""
    faults.mark_worker_process()
    try:
        injector = faults.injector_from_env()
    except ValueError:
        injector = None
    while True:
        try:
            assignment = inbox.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if assignment is None:
            return
        try:
            run_assignment(assignment,
                           lambda message, key: results.send(message),
                           injector)
        except OSError:
            return


class _WorkerHandle:
    """One supervised worker process plus its two channels."""

    __slots__ = ("inbox", "results", "process", "busy")

    def __init__(self, ctx, wid: int):
        self.busy = False
        self.inbox = ctx.SimpleQueue()
        # duplex=False: (receive end, send end).  The supervisor closes
        # its copy of the send end, so worker death reads as EOF on
        # `results` instead of a silent hang.
        self.results, send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main, args=(self.inbox, send),
            name=f"repro-supervised-{wid}", daemon=True)
        self.process.start()
        send.close()

    def reap(self) -> None:
        """Kill (if needed), join, and release both channels."""
        try:
            self.process.kill()
        except (OSError, ValueError, AttributeError):
            pass
        self.process.join(timeout=5.0)
        try:
            self.results.close()
        except OSError:
            pass
        close_inbox = getattr(self.inbox, "close", None)
        if close_inbox is not None:
            try:
                close_inbox()
            except OSError:
                pass


class SupervisedExecutor(ProcessPoolExecutor):
    """Cost-packed fan-out over supervised local worker processes.

    Same chunking, determinism and streaming ``run_iter`` as every
    executor, plus the scheduler's failure semantics governed by a
    :class:`~repro.exec.scheduler.RetryPolicy`.  Workers start on
    demand (at most ``jobs``) and stay warm across batches.
    """

    def __init__(self, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None):
        super().__init__(jobs=jobs, chunk_size=chunk_size, policy=policy)
        self.stats = SuperviseStats()
        self._ctx = multiprocessing.get_context()
        self._workers: List[_WorkerHandle] = []
        self._next_wid = 0

    # -- the scheduler's lanes --------------------------------------------

    def acquire(self) -> Optional[_WorkerHandle]:
        handle = next((h for h in self._workers if not h.busy), None)
        if handle is None:
            if len(self._workers) >= self.jobs:
                return None
            self._next_wid += 1
            handle = _WorkerHandle(self._ctx, self._next_wid)
            self._workers.append(handle)
        handle.busy = True
        return handle

    def launch(self, handle: _WorkerHandle, assignment: tuple) -> bool:
        handle.inbox.put(assignment)
        return True

    def wait(self, timeout: float) -> List[Tuple[_WorkerHandle, object]]:
        busy = [h for h in self._workers if h.busy]
        if busy:
            _wait([h.results for h in busy], timeout=timeout)
        else:
            time.sleep(timeout)
        events: List[Tuple[_WorkerHandle, object]] = []
        for handle in busy:
            # Liveness is sampled *before* the drain: whatever a worker
            # wrote before it died is already in the pipe, so its
            # last-gasp results are delivered ahead of the loss.
            alive = handle.process.is_alive()
            try:
                while handle.results.poll():
                    events.append((handle, handle.results.recv()))
            except (EOFError, OSError):
                alive = False
            if not alive:
                events.append((handle, LOST))
        return events

    def release(self, handle: _WorkerHandle) -> None:
        handle.busy = False

    def drop(self, handle: _WorkerHandle, kind: str) -> None:
        if kind == "worker-death":
            self.stats.worker_deaths += 1
        else:
            self.stats.timeouts += 1
        self.abandon(handle)

    def abandon(self, handle: _WorkerHandle) -> None:
        if handle in self._workers:     # not already detached by close()
            self._workers.remove(handle)
        handle.reap()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        # Detach the worker list *first*: a ^C landing mid-teardown
        # leaves nothing double-owned, and a second close() is a no-op.
        workers, self._workers = self._workers, []
        for handle in workers:
            try:
                handle.inbox.put(None)     # graceful: exit the loop
            except (OSError, ValueError):
                pass
        for handle in workers:
            handle.process.join(timeout=1.0)
            handle.reap()
