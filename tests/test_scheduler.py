"""The failure contract, against scripted in-memory lanes.

``repro.exec.scheduler`` decides what happens to an assignment; what a
lane *is* sits behind :class:`~repro.exec.scheduler.Lanes`.  Here the
lanes are a script — no processes, no sockets, and the scheduler's
clock is a counter that ``wait`` advances — so every branch of the
contract (docs/EXECUTION.md, "Failure semantics") is driven in
milliseconds and asserted exactly.  ``tests/test_faults.py`` and
``tests/test_remote.py`` run the same contract over real workers.
"""

import collections
import dataclasses
import itertools

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (RemoteStats, RetryPolicy, SimTask,
                        TaskFailedError, cache_key)
from repro.exec import scheduler
from repro.exec.scheduler import LOST, Lanes, Scheduler

#: Flat 1 s budgets, 0.5 s slack, no waiting between retries.
POLICY = RetryPolicy(max_retries=2, task_timeout_s=1.0,
                     timeout_slack_s=0.5, backoff_base_s=0.0)


def make_tasks(n):
    """Distinct tasks that are never simulated: a lane "runs" one by
    answering :func:`result_of`."""
    return [SimTask(config={"n": k}, trees=(), seed=k, duration_s=1.0)
            for k in range(n)]


def result_of(task):
    return f"result-{task.seed}"


class Clock:
    """Stands in for the ``time`` module inside the scheduler."""

    def __init__(self):
        self.now = 1000.0

    def monotonic(self):
        return self.now


class ScriptedLanes(Lanes):
    """``n`` lanes playing ``script(pos, attempt)`` for every task of
    every assignment: ``"result"``, ``"raise"``, ``"lose"`` (the lane
    dies there), ``"silent"`` (it never says anything again) or
    ``"after-stale"`` (the result, preceded by a forged one tagged with
    another assignment's id).

    Each task takes ``task_s`` of scripted time; ``wait`` advances the
    clock by its timeout and delivers what has come due.  A dropped
    lane comes back fresh (a respawned worker) unless ``respawn`` is
    off; ``starts(lane, assignment)`` may refuse a launch.
    """

    def __init__(self, clock, n, script, task_s=0.05, respawn=True,
                 starts=lambda lane, assignment: True):
        self.clock, self.script, self.task_s = clock, script, task_s
        self.respawn, self.starts = respawn, starts
        self.free = list(range(n))
        self.outbox = {lane: collections.deque() for lane in range(n)}
        self.launched = []      # every assignment tuple offered
        self.dropped = []       # (lane, kind, time)
        self.stranded_with = None

    def acquire(self):
        return self.free.pop(0) if self.free else None

    def launch(self, lane, assignment):
        self.launched.append(assignment)
        if not self.starts(lane, assignment):
            return False
        aid, attempt, positions, tasks = assignment
        at = self.clock.now
        for pos, task in zip(positions, tasks):
            at += self.task_s
            action = self.script(pos, attempt)
            if action == "silent":
                return True
            if action == "lose":
                self.outbox[lane].append((at, LOST))
                return True
            if action == "after-stale":
                self.outbox[lane].append(
                    (at, ("result", aid - 1, pos, "forged")))
            message = (("failure", aid, pos, ("Boom", "scripted", "tb"))
                       if action == "raise" else
                       ("result", aid, pos, result_of(task)))
            self.outbox[lane].append((at, message))
        self.outbox[lane].append((at, ("done", aid)))
        return True

    def wait(self, timeout):
        self.clock.now += timeout
        events = []
        for lane, outbox in self.outbox.items():
            while outbox and outbox[0][0] <= self.clock.now + 1e-9:
                events.append((lane, outbox.popleft()[1]))
        return events

    def release(self, lane):
        self.free.append(lane)

    def drop(self, lane, kind):
        self.dropped.append((lane, kind, self.clock.now))
        self.outbox[lane].clear()
        if self.respawn:
            self.free.append(lane)

    def abandon(self, lane):
        self.outbox[lane].clear()
        self.free.append(lane)

    def exhausted(self):
        return not self.respawn and len(self.dropped) == len(self.outbox)

    def stranded(self, tasks, positions):
        self.stranded_with = list(positions)
        return [(pos, result_of(tasks[pos])) for pos in positions]


def run(monkeypatch, n_tasks, script, lanes=2, chunk=None, policy=POLICY,
        steal=False, **lane_options):
    """Drive one batch; returns (emitted pairs, stats, lanes)."""
    clock = Clock()
    monkeypatch.setattr(scheduler, "time", clock)
    monkeypatch.setattr(scheduler, "run_task_group",
                        lambda tasks: [result_of(t) for t in tasks])
    tasks = make_tasks(n_tasks)
    chunk = chunk or n_tasks
    chunks = [list(range(lo, min(lo + chunk, n_tasks)))
              for lo in range(0, n_tasks, chunk)]
    scripted = ScriptedLanes(clock, lanes, script, **lane_options)
    stats = RemoteStats()
    emitted = list(Scheduler(tasks, chunks, policy, scripted, stats,
                             itertools.count(1), steal=steal).run())
    return emitted, stats, scripted


def always(action):
    return lambda pos, attempt: action


def assert_each_once(emitted, n_tasks, failed=()):
    assert sorted(pos for pos, _ in emitted) == list(range(n_tasks))
    for pos, result in emitted:
        if pos not in failed:
            assert result == f"result-{pos}"


class TestCleanPath:
    def test_every_task_emitted_once_lanes_reused(self, monkeypatch):
        emitted, stats, lanes = run(monkeypatch, 6, always("result"),
                                    chunk=2)
        assert_each_once(emitted, 6)
        assert sorted(lanes.free) == [0, 1]       # all handed back
        assert not lanes.dropped
        assert dataclasses.asdict(stats) == dataclasses.asdict(
            RemoteStats())

    def test_stale_assignment_id_is_ignored(self, monkeypatch):
        """A late frame from an abandoned assignment arrives on a lane
        that now runs another one: it must neither ack nor emit."""
        emitted, _, lanes = run(monkeypatch, 3, always("after-stale"),
                                lanes=1)
        assert_each_once(emitted, 3)
        assert len(lanes.launched) == 1 and not lanes.dropped


class TestBisection:
    def test_poison_isolated_within_log2_chunk(self, monkeypatch):
        poison = 0      # first in the chunk: nothing is acked before it
        policy = dataclasses.replace(POLICY, on_failure="quarantine")
        emitted, stats, lanes = run(
            monkeypatch, 8,
            lambda pos, attempt: "lose" if pos == poison else "result",
            policy=policy)
        assert_each_once(emitted, 8, failed={poison})
        failure = dict(emitted)[poison].failure
        assert failure.kind == "worker-death"
        assert "bisection" in failure.message
        assert stats.bisections == 3 == failure.resubmissions
        assert stats.quarantined == 1
        # 8 -> 4 -> 2 -> 1: the proven-poison singleton is failed at
        # once, not fed max_retries more lanes.
        assert [len(a[2]) for a in lanes.launched if poison in a[2]] \
            == [8, 4, 2, 1]
        assert stats.retries == 0

    def test_unstarted_launch_costs_no_attempt(self, monkeypatch):
        """The first launch never starts; every task then raises on
        attempts 0 and 1.  That is exactly ``max_retries`` failures
        each — one more consumed attempt would exhaust them."""
        refused = []

        def starts(lane, assignment):
            if not refused:
                refused.append((lane, assignment))
                return False
            return True
        emitted, stats, lanes = run(
            monkeypatch, 3,
            lambda pos, attempt: "raise" if attempt < 2 else "result",
            starts=starts)
        assert_each_once(emitted, 3)
        (lane, first), second = refused[0], lanes.launched[1]
        assert lanes.dropped[0][:2] == (lane, "worker-death")
        assert second[:3] == first[:3]            # same aid, attempt 0
        assert (stats.retries, stats.resubmissions, stats.bisections) \
            == (6, 0, 0)


class TestLeases:
    def test_acks_extend_the_lease(self, monkeypatch):
        """Four 1 s budgets + 0.5 s slack: the lease starts at 4.5 s.
        A lane acking every 1.4 s needs 5.6 s — alive only because each
        ack pushes the deadline out to slack + what is still unacked."""
        emitted, stats, lanes = run(monkeypatch, 4, always("result"),
                                    lanes=1, task_s=1.4)
        assert_each_once(emitted, 4)
        assert not lanes.dropped

    def test_silent_lane_expires_at_slack_plus_remaining_budget(
            self, monkeypatch):
        silent_once = lambda pos, attempt: \
            "silent" if (pos, attempt) == (2, 0) else "result"
        emitted, stats, lanes = run(monkeypatch, 4, silent_once, lanes=1,
                                    task_s=0.1)
        assert_each_once(emitted, 4)
        (lane, kind, when), = lanes.dropped
        # Acks at +0.1 and +0.2; then 0.5 slack + 2 unacked x 1.0.
        assert kind == "timeout"
        assert when - 1000.0 == pytest.approx(0.2 + 0.5 + 2.0, abs=0.11)
        assert stats.bisections == 1              # tasks 2, 3 split


class TestFirstResultWins:
    def test_steal_duplicates_the_tail_half(self, monkeypatch):
        emitted, stats, lanes = run(monkeypatch, 4, always("result"),
                                    steal=True)
        assert_each_once(emitted, 4)
        assert (stats.steals, stats.duplicates) == (1, 2)
        original, duplicate = lanes.launched
        assert duplicate[2] == [2, 3] and duplicate[1] == original[1]
        assert sorted(lanes.free) == [0, 1]

    def test_steal_losers_late_result_is_dropped(self, monkeypatch):
        """Both copies of a stolen task answer: only the first is
        emitted, but the second still acks its own lease."""
        monkeypatch.setattr(scheduler, "time", Clock())
        lanes = ScriptedLanes(scheduler.time, 2, always("silent"))
        batch = Scheduler(make_tasks(2), [[0, 1]], POLICY, lanes,
                          RemoteStats(), itertools.count(1), steal=True)
        batch.dispatch(1000.0)
        batch.steal_tails(1000.0)
        (victim, lease), (thief, stolen) = batch.busy.items()
        assert stolen.assignment.positions == [1]
        batch.on_message(thief, ("result", stolen.assignment.aid, 1, "a"))
        batch.on_message(victim, ("result", lease.assignment.aid, 1, "b"))
        assert batch.emitted == [(1, "a")]
        assert lease.unacked == {0} and not stolen.unacked

    def test_no_stealing_unless_asked(self, monkeypatch):
        _, stats, lanes = run(monkeypatch, 4, always("result"))
        assert stats.steals == 0 and len(lanes.launched) == 1


class TestExhaustion:
    def test_exception_raises_with_fingerprint(self, monkeypatch):
        with pytest.raises(TaskFailedError) as excinfo:
            run(monkeypatch, 2,
                lambda pos, attempt: "raise" if pos == 1 else "result",
                chunk=1)
        key, failure = excinfo.value.failures[0]
        assert key == cache_key(make_tasks(2)[1])
        assert (failure.kind, failure.attempts, failure.error_type) \
            == ("exception", POLICY.max_retries + 1, "Boom")

    def test_exception_quarantined_with_counts(self, monkeypatch):
        policy = dataclasses.replace(POLICY, on_failure="quarantine")
        emitted, stats, _ = run(
            monkeypatch, 3,
            lambda pos, attempt: "raise" if pos == 1 else "result",
            policy=policy)
        assert_each_once(emitted, 3, failed={1})
        failure = dict(emitted)[1].failure
        assert (failure.kind, failure.attempts, failure.resubmissions) \
            == ("exception", 3, 0)
        assert (stats.retries, stats.quarantined) == (2, 1)

    def test_timeouts_end_in_one_serial_attempt(self, monkeypatch):
        emitted, stats, lanes = run(
            monkeypatch, 2,
            lambda pos, attempt: "silent" if pos == 0 else "result",
            chunk=1)
        assert_each_once(emitted, 2)    # the in-process run succeeded
        assert stats.serial_fallbacks == 1
        assert [kind for _, kind, _ in lanes.dropped] == ["timeout"] * 3

    def test_timeouts_without_fallback_quarantine(self, monkeypatch):
        policy = dataclasses.replace(POLICY, on_failure="quarantine",
                                     serial_fallback=False)
        emitted, stats, _ = run(
            monkeypatch, 2,
            lambda pos, attempt: "silent" if pos == 0 else "result",
            chunk=1, policy=policy)
        failure = dict(emitted)[0].failure
        assert (failure.kind, failure.attempts, failure.resubmissions) \
            == ("timeout", 3, 2)

    def test_every_lane_lost_strands_the_rest(self, monkeypatch):
        emitted, _, lanes = run(
            monkeypatch, 6,
            lambda pos, attempt: "lose" if pos in (1, 4) else "result",
            chunk=3, respawn=False)
        assert_each_once(emitted, 6)
        assert lanes.stranded_with == [1, 2, 4, 5]
        assert len(lanes.dropped) == 2


ACTIONS = st.sampled_from(["result", "result", "raise", "lose", "silent"])


class TestProperty:
    @settings(max_examples=60, deadline=None)
    @given(n_tasks=st.integers(1, 9), lanes=st.integers(1, 3),
           chunk=st.integers(1, 9), steal=st.booleans(),
           first=st.lists(ACTIONS, min_size=9, max_size=9),
           second=st.lists(ACTIONS.filter(lambda a: a != "lose"),
                           min_size=9, max_size=9))
    def test_transient_faults_never_lose_or_duplicate_a_task(
            self, n_tasks, lanes, chunk, steal, first, second):
        """Any script of faults on attempts 0 and 1 (a lane may die
        only on attempt 0: dying again after isolation is *proven*
        poison, not transient): every position is emitted exactly once
        and carries its own task's result."""
        def script(pos, attempt):
            return (first, second)[attempt][pos] if attempt < 2 \
                else "result"
        # Retries to spare: a stolen task's fault is counted on both
        # copies, and this property is about emission, not budgets.
        policy = dataclasses.replace(POLICY, max_retries=6)
        with pytest.MonkeyPatch.context() as monkeypatch:
            emitted, stats, scripted = run(
                monkeypatch, n_tasks, script, lanes=lanes, chunk=chunk,
                steal=steal, policy=policy)
        assert_each_once(emitted, n_tasks)
        assert stats.quarantined == 0
        assert sorted(scripted.free) == list(range(lanes))
