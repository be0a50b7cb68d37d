"""The scheduler: one failure contract for every parallel executor.

A batch is cut into *assignments* (sets of task positions), each sent
down a *lane* — a worker process behind a pipe
(:class:`~repro.exec.supervise.SupervisedExecutor`) or a worker daemon
behind a socket (:class:`~repro.exec.remote.RemoteExecutor`).  What a
lane is made of is the transport's business (:class:`Lanes`); what
happens to an assignment is decided here, once:

* **Leases.**  A launched assignment's deadline is ``timeout_slack_s``
  plus the sum of its unacknowledged tasks' budgets
  (:meth:`RetryPolicy.timeout_for`); every per-task message is an ack
  that shrinks the budget and pushes the deadline out.  A lane that
  keeps delivering never expires; a silent one — hung, partitioned or
  dead, the scheduler cannot tell and need not — is dropped.
* **In-task exceptions** arrive as structured messages and are retried
  up to ``max_retries`` times with exponential backoff, then fail the
  task with ``kind="exception"``.
* **A lost lane** (worker death, dropped connection, expired lease)
  resubmits its unacked tasks with **bisection**: halves keep splitting
  until the poison task is alone — at most ``log2(chunk)``
  resubmissions — while every innocent chunk-mate completes.  An
  isolated singleton that loses its lane again is proven poison and
  failed at once (``kind="worker-death"``); one whose every lease
  expires gets one in-process run before failing (``kind="timeout"``).
* **First result wins.**  A task is emitted once; messages from an
  assignment that no longer holds its lane are discarded.  That makes
  speculative duplicates safe, so with ``steal`` on, an idle lane takes
  the tail half of the busiest in-flight assignment.
* **A failed task** is raised or quarantined: ``RetryPolicy.on_failure``.

A task is a pure function of its fields, so *which* attempt produced a
result cannot change it: under any fault schedule, completed results
are bitwise-identical to a fault-free serial run (``tests/
test_scheduler.py`` over scripted lanes; ``test_faults.py`` and
``test_remote.py`` over real ones).  :func:`run_assignment` is the
other end of the protocol: the loop both kinds of worker run.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
import traceback
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from .task import (SimTask, SimTaskResult, TaskFailure, cache_key,
                   run_task_group, task_cost, task_units)

__all__ = ["LOST", "Lanes", "RetryPolicy", "Scheduler", "TaskFailedError",
           "run_assignment"]

#: Poll tick: bounds how stale the liveness/deadline view can get.
#: Results still stream back the moment they arrive (:meth:`Lanes.wait`
#: returns early on any readable lane).
_TICK_S = 0.05

#: The "message" of a ``(lane, message)`` event that reports the lane
#: itself gone (EOF, dead process, undecodable stream).
LOST = object()


class TaskFailedError(RuntimeError):
    """A task exhausted its retries under ``on_failure="raise"``.

    ``failures`` is a list of ``(fingerprint, TaskFailure)`` pairs —
    usually one, but consumers that collect failures batch-wide (the
    experiment runner under quarantine) reuse this type.
    """

    def __init__(self, failures: Sequence[Tuple[str, TaskFailure]]):
        self.failures = list(failures)
        key, failure = self.failures[0]
        more = (f" (+{len(self.failures) - 1} more)"
                if len(self.failures) > 1 else "")
        super().__init__(
            f"task {key[:12]} failed [{failure.kind}] after "
            f"{failure.attempts} attempt(s): {failure.message}{more}")


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler reacts to failures.

    Timeouts: a task's wall-clock budget is ``task_timeout_s`` when
    set, else ``min_timeout_s + seconds_per_event * task_cost(task)``
    — proportional to the work the task is *known* to contain, so a
    1000 Mbps run is not killed on a budget sized for 1 Mbps ones.
    ``timeout_slack_s`` is what a lease adds on top (module docstring).

    ``on_failure``: ``"raise"`` aborts the batch with
    :class:`TaskFailedError` once a task is out of retries;
    ``"quarantine"`` yields the failure as a result variant so the
    batch completes and the store records the poison fingerprint.
    """

    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    min_timeout_s: float = 60.0
    seconds_per_event: float = 1e-4
    timeout_slack_s: float = 5.0
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 10.0
    on_failure: str = "raise"
    serial_fallback: bool = True

    def __post_init__(self):
        if self.on_failure not in ("raise", "quarantine"):
            raise ValueError(f"on_failure must be 'raise' or "
                             f"'quarantine', got {self.on_failure!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, "
                             f"got {self.max_retries}")

    def timeout_for(self, task: SimTask) -> float:
        if self.task_timeout_s is not None:
            return self.task_timeout_s
        return self.min_timeout_s + self.seconds_per_event * task_cost(task)

    def backoff_for(self, attempt: int) -> float:
        return min(self.backoff_base_s
                   * self.backoff_factor ** max(attempt - 1, 0),
                   self.backoff_max_s)


class Lanes:
    """What a transport provides: the only things it alone can know.

    A *lane* is an opaque hashable handle (a worker process, a
    connection) running one assignment at a time.  Every lane the
    scheduler checks out comes back through exactly one of
    :meth:`release`, :meth:`drop` or :meth:`abandon`.
    """

    def begin(self) -> None:
        """A batch is starting: (re)open whatever can be opened."""

    def acquire(self):
        """Check out a free lane, or ``None`` if there is none now."""
        raise NotImplementedError

    def launch(self, lane, assignment: tuple) -> bool:
        """Send ``(aid, attempt, positions, tasks)`` down ``lane``.
        False: it never started — the lane is dropped and the
        assignment requeued unchanged, at no cost in attempts."""
        raise NotImplementedError

    def wait(self, timeout: float) -> Iterable[tuple]:
        """Block at most ``timeout`` s, less if a lane turns readable;
        return ``(lane, message)`` events in arrival order — the
        messages of :func:`run_assignment`, shape-checked if the peer
        is not trusted — and ``(lane, LOST)`` for a lane found gone."""
        raise NotImplementedError

    def release(self, lane) -> None:
        """``lane`` finished its assignment and is free again."""
        raise NotImplementedError

    def drop(self, lane, kind: str) -> None:
        """``lane`` was lost (``"worker-death"``) or let its lease
        expire (``"timeout"``): tear it down, count the event."""
        raise NotImplementedError

    def abandon(self, lane) -> None:
        """The batch ended (or aborted) with ``lane`` still running an
        assignment nobody waits for any more."""
        raise NotImplementedError

    def exhausted(self) -> bool:
        """True when no lane is open and none will come back."""
        return False

    def stranded(self, tasks: List[SimTask], positions: List[int]
                 ) -> Iterator[Tuple[int, SimTaskResult]]:
        """Run what was still owed when the lanes ran out."""
        return iter(())


@dataclass(eq=False)
class _Assignment:
    """A set of task positions dispatched (or queued) as one message."""

    aid: int
    positions: List[int]
    attempt: int


@dataclass(eq=False)
class _Lease:
    """One in-flight assignment's hold on its lane."""

    assignment: _Assignment
    unacked: Set[int]
    budget: float
    deadline: float


class Scheduler:
    """One batch's assignment state machine; :meth:`run` streams it.

    ``chunks`` is the initial cut of ``tasks`` into assignments,
    ``stats`` any object with the counters incremented below, and
    ``aids`` an iterator of assignment ids that outlives the batch, so
    a late message from an abandoned one never passes for a current one.
    """

    def __init__(self, tasks: List[SimTask], chunks: List[List[int]],
                 policy: RetryPolicy, lanes: Lanes, stats,
                 aids: Iterator[int], steal: bool = False):
        self.tasks = tasks
        self.policy = policy
        self.lanes = lanes
        self.stats = stats
        self.aids = aids
        self.steal = steal
        self.timeouts = [policy.timeout_for(task) for task in tasks]
        self.pending: Set[int] = set(range(len(tasks)))
        self.attempts: Dict[int, int] = {}    # per-task tries consumed
        self.resubmits: Dict[int, int] = {}   # crash-resubmission depth
        self.speculated: Set[int] = set()     # already duplicated once
        self.ready: List[Tuple[float, int, _Assignment]] = []
        self.busy: Dict[object, _Lease] = {}
        self.emitted: List[Tuple[int, SimTaskResult]] = []
        self.fatal: List[Tuple[str, TaskFailure]] = []
        for chunk in chunks:
            self.enqueue(chunk, 0, 0.0)

    def enqueue(self, positions: List[int], attempt: int,
                ready_at: float) -> None:
        assignment = _Assignment(next(self.aids), list(positions), attempt)
        heapq.heappush(self.ready, (ready_at, assignment.aid, assignment))

    def finalize(self, pos: int, failure: TaskFailure) -> None:
        """Out of options for this task: quarantine or abort."""
        self.pending.discard(pos)
        failure = dataclasses.replace(
            failure, resubmissions=self.resubmits.get(pos, 0))
        if self.policy.on_failure == "quarantine":
            self.stats.quarantined += 1
            self.emitted.append((pos, SimTaskResult(failure=failure)))
        else:
            self.fatal.append((cache_key(self.tasks[pos]), failure))

    def on_message(self, lane, msg: tuple) -> None:
        lease = self.busy.get(lane)
        kind, aid = msg[0], msg[1]
        if lease is None or aid != lease.assignment.aid:
            return                    # stale: abandoned assignment
        if kind == "done":
            del self.busy[lane]
            self.lanes.release(lane)
            return
        pos = msg[2]
        if pos in lease.unacked:
            # The ack is the heartbeat: shrink the remaining budget
            # and extend the lease for what's left.
            lease.unacked.discard(pos)
            lease.budget -= self.timeouts[pos]
            lease.deadline = (time.monotonic()
                              + self.policy.timeout_slack_s
                              + max(lease.budget, 0.0))
        if pos not in self.pending:
            return                    # a duplicate: first result won
        if kind == "result":
            self.pending.discard(pos)
            self.emitted.append((pos, msg[3]))
            return
        error_type, message, tb = msg[3]
        count = self.attempts[pos] = self.attempts.get(pos, 0) + 1
        if count <= self.policy.max_retries:
            self.stats.retries += 1
            self.enqueue([pos], count, time.monotonic()
                         + self.policy.backoff_for(count))
        else:
            self.finalize(pos, TaskFailure(
                kind="exception",
                message=f"task raised {error_type}: {message}",
                attempts=count, error_type=error_type, traceback=tb))

    def on_crash(self, lease: _Lease, kind: str, now: float) -> None:
        """The lease's lane was lost or went silent past the deadline."""
        policy, stats = self.policy, self.stats
        lost = [pos for pos in lease.assignment.positions
                if pos in lease.unacked and pos in self.pending]
        if not lost:
            return
        if len(lost) > 1:
            # Bisection: whichever half holds the poison crashes
            # again and splits again; the other half completes.
            # attempt+1 so seeded *transient* faults (attempt-0
            # only) don't re-fire down the lineage.
            stats.bisections += 1
            stats.resubmissions += 2
            for pos in lost:
                self.resubmits[pos] = self.resubmits.get(pos, 0) + 1
            mid = (len(lost) + 1) // 2
            for part in (lost[:mid], lost[mid:]):
                self.enqueue(part, lease.assignment.attempt + 1, now)
            return
        pos = lost[0]
        count = self.attempts[pos] = self.attempts.get(pos, 0) + 1
        if kind == "worker-death" and lease.assignment.attempt > 0:
            # A bisection-isolated singleton that still takes its lane
            # down is proven poison: fail it now instead of burning
            # max_retries more lanes on it.
            self.finalize(pos, TaskFailure(
                kind="worker-death", attempts=count,
                message="lane lost while running this task "
                        "(isolated by bisection)"))
            return
        if count <= policy.max_retries:
            stats.retries += 1
            stats.resubmissions += 1
            self.resubmits[pos] = self.resubmits.get(pos, 0) + 1
            self.enqueue([pos], count, now + policy.backoff_for(count))
            return
        if kind == "timeout" and policy.serial_fallback:
            # Graceful degradation: lanes keep timing out on it, so
            # give the task one undisturbed in-process run (no
            # deadline, no injection — this is the submitting process).
            stats.serial_fallbacks += 1
            try:
                result = run_task_group([self.tasks[pos]])[0]
            except Exception as error:
                self.finalize(pos, TaskFailure(
                    kind="timeout", attempts=count + 1,
                    message=f"timed out {count} time(s); serial "
                            f"fallback raised "
                            f"{type(error).__name__}: {error}",
                    error_type=type(error).__name__,
                    traceback=traceback.format_exc()))
            else:
                self.pending.discard(pos)
                self.emitted.append((pos, result))
            return
        what = "timed out" if kind == "timeout" else "lost its lane"
        self.finalize(pos, TaskFailure(
            kind=kind, attempts=count,
            message=f"{what} on every one of {count} attempt(s)"))

    def crash(self, lane, kind: str, now: float) -> None:
        lease = self.busy.pop(lane, None)
        self.lanes.drop(lane, kind)
        if lease is not None:
            self.on_crash(lease, kind, now)

    def launch(self, lane, assignment: _Assignment, now: float) -> bool:
        positions = assignment.positions
        if not self.lanes.launch(lane, (
                assignment.aid, assignment.attempt, positions,
                [self.tasks[pos] for pos in positions])):
            self.lanes.drop(lane, "worker-death")
            return False
        budget = sum(self.timeouts[pos] for pos in positions)
        self.busy[lane] = _Lease(
            assignment, set(positions), budget,
            now + self.policy.timeout_slack_s + budget)
        return True

    def _due(self, now: float) -> bool:
        return bool(self.ready) and self.ready[0][0] <= now

    def dispatch(self, now: float) -> None:
        while self._due(now):
            assignment = self.ready[0][2]
            assignment.positions = [pos for pos in assignment.positions
                                    if pos in self.pending]
            if not assignment.positions:
                heapq.heappop(self.ready)
                continue
            lane = self.lanes.acquire()
            if lane is None:
                return
            if self.launch(lane, assignment, now):
                heapq.heappop(self.ready)

    def steal_tails(self, now: float) -> None:
        """Free lane + empty queue: speculatively duplicate the tail
        half of the busiest in-flight assignment."""
        while not self._due(now):     # real work exists: dispatch wins
            lane = self.lanes.acquire()
            if lane is None:
                return
            victim: Optional[_Lease] = None
            tail: List[int] = []
            for lease in self.busy.values():
                avail = [pos for pos in lease.assignment.positions
                         if pos in lease.unacked and pos in self.pending
                         and pos not in self.speculated]
                if len(avail) > len(tail):
                    victim, tail = lease, avail
            if victim is None:
                self.lanes.release(lane)
                return
            tail = tail[len(tail) // 2:]
            self.speculated.update(tail)
            self.stats.steals += 1
            self.stats.duplicates += len(tail)
            duplicate = _Assignment(next(self.aids), tail,
                                    victim.assignment.attempt)
            if not self.launch(lane, duplicate, now):
                self.speculated.difference_update(tail)

    def _flush(self) -> Iterator[Tuple[int, SimTaskResult]]:
        yield from self.emitted
        self.emitted.clear()
        if self.fatal:
            raise TaskFailedError(self.fatal)

    def _owed_a_done(self) -> bool:
        """A lane that acked every task owes only its trailing ``done``:
        worth waiting for (within its lease), so that it is free for
        the next batch instead of abandoned."""
        return any(not lease.unacked for lease in self.busy.values())

    def run(self) -> Iterator[Tuple[int, SimTaskResult]]:
        lanes, busy = self.lanes, self.busy
        lanes.begin()
        try:
            while (self.pending or self._owed_a_done()) \
                    and not lanes.exhausted():
                now = time.monotonic()
                self.dispatch(now)
                if self.steal:
                    self.steal_tails(now)
                timeout = _TICK_S
                if not busy and self.ready and self.ready[0][0] > now:
                    timeout = min(self.ready[0][0] - now, _TICK_S)
                events = lanes.wait(timeout)
                now = time.monotonic()
                for lane, msg in events:
                    if msg is LOST:
                        self.crash(lane, "worker-death", now)
                    else:
                        self.on_message(lane, msg)
                yield from self._flush()
                now = time.monotonic()
                for lane, lease in list(busy.items()):
                    if now > lease.deadline:
                        self.crash(lane, "timeout", now)
                yield from self._flush()
        finally:
            # Whatever is still in flight — the loser of a steal, or
            # everything on an abort (failure, ^C, an abandoned
            # generator) — must not leak into the next batch.
            for lane in busy:
                lanes.abandon(lane)
            busy.clear()
        if self.pending:
            yield from lanes.stranded(self.tasks, sorted(self.pending))


def run_assignment(assignment: tuple,
                   send: Callable[[tuple, Optional[str]], None],
                   injector=None, cache=None) -> None:
    """Worker side: run one assignment, one message per task, each
    tagged with the assignment id so stale ones can be discarded:

    * ``("result", aid, pos, SimTaskResult)`` — one task done; doubles
      as the heartbeat/ack that extends the assignment's lease.
    * ``("failure", aid, pos, (error_type, message, traceback))`` — the
      task raised; structured, never a pickled exception object (which
      may itself fail to unpickle).
    * ``("done", aid)`` — assignment finished, the lane is idle.

    ``send(message, key)`` delivers one message and raises to stop the
    loop; ``key`` is the task's fingerprint on a result (when an
    injector or cache needs fingerprints at all), else ``None``.
    ``injector`` fires in-task faults; ``cache`` (``get`` / ``put`` by
    fingerprint) answers units that already ran in this session
    without re-executing — or re-injecting — them.
    """
    aid, attempt, positions, tasks = assignment
    keyed = injector is not None or cache is not None
    keys = [cache_key(task) if keyed else None for task in tasks]
    for unit in task_units(tasks):
        outs = None
        if cache is not None:
            cached = [cache.get(keys[j]) for j in unit]
            if all(result is not None for result in cached):
                outs = cached
        if outs is None:
            try:
                if injector is not None:
                    for j in unit:
                        injector.on_task(keys[j], attempt)
                outs = run_task_group([tasks[j] for j in unit])
            except Exception as error:
                detail = (type(error).__name__, str(error),
                          traceback.format_exc())
                for j in unit:
                    send(("failure", aid, positions[j], detail), None)
                continue
            if cache is not None:
                for j, out in zip(unit, outs):
                    cache.put(keys[j], out)
        for j, out in zip(unit, outs):
            send(("result", aid, positions[j], out), keys[j])
    send(("done", aid), None)
