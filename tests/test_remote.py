"""Chaos suite for multi-host dispatch (repro.exec.remote).

The contract under test is the PR-8 failure semantics carried over TCP
(docs/EXECUTION.md, "Remote execution"): every task a
:class:`RemoteExecutor` completes is bitwise-identical to a fault-free
serial run — transient wire faults (conn-drop, frame-corrupt, delay)
are absorbed by session-resuming reconnects and retries, silent workers
blow their heartbeat lease and their tasks re-dispatch with bisection,
stragglers are speculatively duplicated first-result-wins, persistent
poison is quarantined, and zero reachable workers degrades to the
local supervised pool with a warning instead of an error.
"""

import json
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.core.scenario import NetworkConfig
from repro.exec import (RemoteExecutor, ResultStore, RetryPolicy,
                        SerialExecutor, SimTask, StoreExecutor,
                        TaskFailedError, WorkerServer, cache_key,
                        executor_for, parse_workers, run_batch,
                        serve_worker)
from repro.exec.faults import FAULTS_ENV, FaultInjector, FaultPlan
from repro.exec.remote import (FrameError, _parse_frames, recv_frame,
                               send_frame)
from repro.remy.action import Action
from repro.remy.tree import WhiskerTree

CONFIG = NetworkConfig(
    link_speeds_mbps=(10.0,), rtt_ms=100.0,
    sender_kinds=("learner", "cubic"), mean_on_s=1.0, mean_off_s=1.0,
    buffer_bdp=5.0)

TREE = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))

#: PR-8 retry semantics, waiting compressed to test scale.
FAST = RetryPolicy(max_retries=2, task_timeout_s=20.0,
                   timeout_slack_s=5.0, backoff_base_s=0.01,
                   backoff_max_s=0.05)


def small_batch(n=4, duration=2.0):
    return [SimTask.build(CONFIG, trees={"learner": TREE},
                          seed=1 + k, duration_s=duration)
            for k in range(n)]


def flows_key(results):
    """A comparable projection of every float the tables consume."""
    return [[(f.kind, f.delivered_bytes, f.on_time_s, f.mean_delay_s,
              f.packets_delivered, f.packets_sent, f.retransmissions)
             for f in out.run.flows] for out in results]


@pytest.fixture
def server():
    """One in-process worker daemon on an ephemeral port."""
    srv = WorkerServer()
    srv.start()
    yield srv
    srv.stop()


def remote(srv, lanes=1, policy=FAST, **kwargs):
    kwargs.setdefault("fallback_jobs", 1)
    kwargs.setdefault("connect_timeout_s", 2.0)
    kwargs.setdefault("reconnect_base_s", 0.01)
    kwargs.setdefault("reconnect_max_s", 0.05)
    return RemoteExecutor([f"127.0.0.1:{srv.port}"] * lanes,
                          policy=policy, **kwargs)


# ----------------------------------------------------------------------
# Protocol units.


class TestParseWorkers:
    def test_string_and_sequence_forms(self):
        assert parse_workers("a:1, b:2,") == [("a", 1), ("b", 2)]
        assert parse_workers(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
        # Duplicates are meaningful: one lane per listing.
        assert parse_workers("a:1,a:1") == [("a", 1), ("a", 1)]

    @pytest.mark.parametrize("bad", ["hostonly", ":7070", "a:port",
                                     "a:1:2:x"])
    def test_malformed_addresses_rejected(self, bad):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_workers(bad)

    def test_cli_round_trip(self, capsys):
        import argparse

        from repro.exec import add_execution_arguments, executor_from_args
        parser = argparse.ArgumentParser()
        add_execution_arguments(parser)
        args = parser.parse_args(["--workers", "h:1,h:2", "--jobs", "3"])
        with executor_from_args(args) as executor:
            assert isinstance(executor, RemoteExecutor)
            assert executor.addrs == [("h", 1), ("h", 2)]
            assert executor.fallback_jobs == 3
        with executor_from_args(parser.parse_args([])) as executor:
            assert isinstance(executor, SerialExecutor)
        # A malformed list is one stderr line and exit status 2.
        with pytest.raises(SystemExit) as exit_info:
            executor_from_args(parser.parse_args(["--workers", "h"]))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("--workers: ") and "HOST:PORT" in err


class TestFrames:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = ("result", 3, 1, {"x": [1.5, None, "s"]})
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_corrupt_frame_fails_checksum(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, ("result", 1, 0, "data"), corrupt=True)
            with pytest.raises(FrameError, match="checksum"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_frames_incremental(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, ("one",))
            send_frame(a, ("two", 2))
            data = b.recv(1 << 16)
        finally:
            a.close()
            b.close()
        buf = bytearray()
        seen = []
        for i in range(len(data)):      # byte-at-a-time arrival
            buf.extend(data[i:i + 1])
            seen.extend(_parse_frames(buf))
        assert seen == [("one",), ("two", 2)]
        assert not buf

    def test_bad_magic_is_a_frame_error(self):
        with pytest.raises(FrameError, match="magic"):
            _parse_frames(bytearray(b"XXXX" + b"\0" * 16))


# ----------------------------------------------------------------------
# Clean-path remote execution (in-process daemon).


class TestRemoteCleanPath:
    def test_bitwise_equal_to_serial(self, server):
        tasks = small_batch(5)
        with remote(server, lanes=2) as executor:
            results = executor.run_batch(tasks)
        assert flows_key(results) \
            == flows_key(SerialExecutor().run_batch(tasks))
        assert executor.stats.conn_losses == 0
        assert executor.stats.local_fallbacks == 0

    def test_empty_batch(self, server):
        with remote(server) as executor:
            assert executor.run_batch([]) == []

    def test_reused_across_batches(self, server):
        with remote(server) as executor:
            first = executor.run_batch(small_batch(2))
            second = executor.run_batch(small_batch(2))
        assert flows_key(first) == flows_key(second)

    def test_close_idempotent(self, server):
        executor = remote(server)
        executor.run_batch(small_batch(1))
        executor.close()
        executor.close()                 # clean no-op

    def test_executor_for_prefers_workers(self, server):
        executor = executor_for(4, workers=f"127.0.0.1:{server.port}")
        try:
            assert isinstance(executor, RemoteExecutor)
            assert executor.fallback_jobs == 4
        finally:
            executor.close()

    def test_run_batch_accepts_workers(self, server):
        tasks = small_batch(2)
        results = run_batch(tasks, workers=f"127.0.0.1:{server.port}",
                            policy=FAST)
        assert flows_key(results) \
            == flows_key(SerialExecutor().run_batch(tasks))


class TestSessionLifetime:
    """The daemon's per-session result cache lives exactly as long as
    its client can still resume it."""

    @staticmethod
    def settled(srv, count):
        # The daemon handles ``bye`` on its own thread.
        deadline = time.monotonic() + 5.0
        while len(srv._sessions) != count \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        return len(srv._sessions)

    def test_bye_drops_the_session(self, server):
        for _ in range(3):
            with remote(server, lanes=2) as executor:
                executor.run_batch(small_batch(2, duration=1.0))
                assert self.settled(server, 2) == 2   # one per lane
        assert self.settled(server, 0) == 0

    def test_bye_behind_an_abandoned_assignment_is_still_read(
            self, server):
        """A client that closes with an assignment still running (the
        loser of a steal) makes the daemon's next sends fail; the
        ``bye`` queued behind them must still drop the session."""
        sock = socket.create_connection(("127.0.0.1", server.port))
        try:
            send_frame(sock, ("hello", None))
            assert recv_frame(sock)[0] == "welcome"
            send_frame(sock, ("run", 1, 0, [0, 1],
                              small_batch(2, duration=1.0)))
            send_frame(sock, ("bye",))
        finally:
            sock.close()
        assert self.settled(server, 0) == 0

    def test_dropped_connection_keeps_the_session(self):
        # Every first result's connection is dropped: the client must
        # find its session (and the cached result) when it reconnects.
        srv = chaos_server(FaultPlan(seed=11, p_conn_drop=1.0))
        try:
            with remote(srv, chunk_size=2) as executor:
                executor.run_batch(small_batch(2, duration=1.0))
                assert executor.stats.reconnects >= 1
                assert len(srv._sessions) == 1        # resumed, not new
            assert self.settled(srv, 0) == 0
        finally:
            srv.stop()


# ----------------------------------------------------------------------
# Graceful degradation: no workers is a warning, not an error.


class TestDegradation:
    def test_zero_reachable_workers_runs_locally(self):
        sink = socket.socket()          # bound, never accepts: refuse
        sink.bind(("127.0.0.1", 0))
        port = sink.getsockname()[1]
        sink.close()
        tasks = small_batch(3)
        executor = RemoteExecutor([f"127.0.0.1:{port}"], policy=FAST,
                                  fallback_jobs=1,
                                  connect_timeout_s=0.5,
                                  reconnect_base_s=0.01,
                                  reconnect_max_s=0.02,
                                  max_reconnects=1)
        try:
            with pytest.warns(RuntimeWarning, match="degraded"):
                results = executor.run_batch(tasks)
        finally:
            executor.close()
        assert flows_key(results) \
            == flows_key(SerialExecutor().run_batch(tasks))
        assert executor.stats.local_fallbacks == 1

    def test_double_close_after_fallback_leaks_nothing(self):
        executor = RemoteExecutor(["127.0.0.1:9"], policy=FAST,
                                  fallback_jobs=1,
                                  connect_timeout_s=0.5,
                                  max_reconnects=0)
        with pytest.warns(RuntimeWarning):
            executor.run_batch(small_batch(1))
        executor.close()
        executor.close()                 # second close: clean no-op
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-supervised-")]


# ----------------------------------------------------------------------
# Chaos: injected wire faults (explicit injector, in-process daemon).


def chaos_server(plan):
    srv = WorkerServer(injector=FaultInjector(plan))
    srv.start()
    return srv


class TestWireChaos:
    def test_transient_conn_drop_absorbed(self):
        srv = chaos_server(FaultPlan(seed=11, p_conn_drop=1.0))
        try:
            tasks = small_batch(4)
            with remote(srv, lanes=2, chunk_size=2) as executor:
                results = executor.run_batch(tasks)
                stats = executor.stats
        finally:
            srv.stop()
        assert flows_key(results) \
            == flows_key(SerialExecutor().run_batch(tasks))
        assert stats.conn_losses >= 1
        assert stats.reconnects >= 1     # session resumed after drop

    def test_transient_frame_corruption_absorbed(self):
        srv = chaos_server(FaultPlan(seed=5, p_frame_corrupt=1.0))
        try:
            tasks = small_batch(3)
            with remote(srv, lanes=2) as executor:
                results = executor.run_batch(tasks)
                stats = executor.stats
        finally:
            srv.stop()
        assert flows_key(results) \
            == flows_key(SerialExecutor().run_batch(tasks))
        assert stats.frame_errors >= 1

    def test_partition_blows_lease_then_serial_fallback(self):
        tasks = small_batch(3)
        poison = cache_key(tasks[1])
        srv = chaos_server(FaultPlan(partition_keys=(poison,)))
        policy = RetryPolicy(max_retries=1, task_timeout_s=0.5,
                             timeout_slack_s=0.2, backoff_base_s=0.01,
                             backoff_max_s=0.05)
        try:
            with remote(srv, lanes=2, policy=policy,
                        chunk_size=1) as executor:
                results = executor.run_batch(tasks)
                stats = executor.stats
        finally:
            srv.stop()
        assert flows_key(results) \
            == flows_key(SerialExecutor().run_batch(tasks))
        assert stats.lease_expiries >= 1
        assert stats.serial_fallbacks == 1

    def test_straggler_is_stolen(self):
        # One lane is slowed on every send; the idle lane steals the
        # tail of its assignment and the duplicate's results win.
        srv = chaos_server(FaultPlan(p_delay=1.0, delay_s=0.4,
                                     max_attempt=None))
        try:
            tasks = small_batch(6, duration=1.0)
            with remote(srv, lanes=2, chunk_size=3) as executor:
                results = executor.run_batch(tasks)
                stats = executor.stats
        finally:
            srv.stop()
        assert flows_key(results) \
            == flows_key(SerialExecutor().run_batch(tasks))
        assert stats.steals >= 1
        assert stats.duplicates >= 1

    def test_persistent_conn_drop_is_poison_quarantine(self):
        tasks = small_batch(4)
        poison = cache_key(tasks[2])
        srv = chaos_server(FaultPlan(conn_drop_keys=(poison,)))
        policy = RetryPolicy(max_retries=2, task_timeout_s=20.0,
                             backoff_base_s=0.01, backoff_max_s=0.05,
                             on_failure="quarantine")
        try:
            with remote(srv, lanes=2, policy=policy,
                        chunk_size=4) as executor:
                results = executor.run_batch(tasks)
        finally:
            srv.stop()
        failure = results[2].failure
        assert failure is not None and failure.kind == "worker-death"
        assert "bisection" in failure.message
        clean = [r for i, r in enumerate(results) if i != 2]
        serial = SerialExecutor().run_batch(
            [t for i, t in enumerate(tasks) if i != 2])
        assert flows_key(clean) == flows_key(serial)

    def test_persistent_conn_drop_raises_under_raise_policy(self):
        tasks = small_batch(2)
        poison = cache_key(tasks[0])
        srv = chaos_server(FaultPlan(conn_drop_keys=(poison,)))
        policy = RetryPolicy(max_retries=1, task_timeout_s=20.0,
                             backoff_base_s=0.01, backoff_max_s=0.05)
        try:
            with remote(srv, policy=policy) as executor:
                with pytest.raises(TaskFailedError, match=poison[:12]):
                    executor.run_batch(tasks)
        finally:
            srv.stop()

    def test_task_exception_retries_then_succeeds(self):
        # In-task transient fault (the PR-8 kind), not a wire fault:
        # the remote worker reports it per-task and the client retries.
        tasks = small_batch(3)
        srv = chaos_server(FaultPlan(seed=2, p_exception=1.0))
        try:
            with remote(srv, lanes=2) as executor:
                results = executor.run_batch(tasks)
                stats = executor.stats
        finally:
            srv.stop()
        assert flows_key(results) \
            == flows_key(SerialExecutor().run_batch(tasks))
        assert stats.retries >= 1


# ----------------------------------------------------------------------
# Real daemons in subprocesses: death, partition-then-resume.


def _spawn_worker(env=None):
    """Start serve_worker in a child process; return (process, port)."""
    queue = multiprocessing.Queue()
    saved = {}
    env = env or {}
    for key, value in env.items():
        saved[key] = os.environ.get(key)
        os.environ[key] = value
    try:
        process = multiprocessing.Process(
            target=serve_worker, kwargs=dict(port=0, on_ready=queue.put),
            daemon=True)
        process.start()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    port = queue.get(timeout=10)
    return process, port


class TestRealWorkers:
    def test_worker_death_mid_batch_finishes_on_survivors(self):
        # Worker 2 is partitioned (sleeps on every send) so it can
        # never deliver; it is then SIGKILLed mid-batch.  The client
        # must re-dispatch its tasks to the survivor and finish with
        # bitwise-identical results.
        plan = FaultPlan(p_partition=1.0, partition_s=3600.0,
                         max_attempt=None)
        alive, port1 = _spawn_worker()
        victim, port2 = _spawn_worker(
            env={FAULTS_ENV: plan.to_json()})
        tasks = small_batch(6, duration=1.0)
        try:
            # steal=False: the victim's task must complete through the
            # death path (conn loss -> re-dispatch), not a speculative
            # duplicate racing the kill timer.
            executor = RemoteExecutor(
                [f"127.0.0.1:{port1}", f"127.0.0.1:{port2}"],
                policy=FAST, fallback_jobs=1, connect_timeout_s=2.0,
                reconnect_base_s=0.01, reconnect_max_s=0.05,
                max_reconnects=1, steal=False)
            timer = threading.Timer(
                0.3, lambda: os.kill(victim.pid, signal.SIGKILL))
            timer.start()
            try:
                results = executor.run_batch(tasks)
                stats = executor.stats
            finally:
                timer.cancel()
                executor.close()
        finally:
            for process in (alive, victim):
                process.terminate()
                process.join(timeout=5)
        assert flows_key(results) \
            == flows_key(SerialExecutor().run_batch(tasks))
        assert stats.conn_losses >= 1        # the kill was observed
        assert stats.dead_workers >= 1       # and the worker written off

    def test_partition_then_resume_reexecutes_nothing(self, tmp_path):
        # Satellite: a batch that loses a worker mid-flight still fills
        # the store; a --resume run re-executes zero tasks and is
        # byte-identical to a clean serial run's store.
        plan = FaultPlan(p_partition=1.0, partition_s=3600.0,
                         max_attempt=None)
        alive, port1 = _spawn_worker()
        victim, port2 = _spawn_worker(
            env={FAULTS_ENV: plan.to_json()})
        tasks = small_batch(5, duration=1.0)
        store_path = tmp_path / "chaos-store"
        try:
            inner = RemoteExecutor(
                [f"127.0.0.1:{port1}", f"127.0.0.1:{port2}"],
                policy=FAST, fallback_jobs=1, connect_timeout_s=2.0,
                reconnect_base_s=0.01, reconnect_max_s=0.05,
                max_reconnects=1, steal=False)
            timer = threading.Timer(
                0.3, lambda: os.kill(victim.pid, signal.SIGKILL))
            timer.start()
            try:
                with StoreExecutor(inner, store=store_path) as executor:
                    first = executor.run_batch(tasks)
            finally:
                timer.cancel()
        finally:
            for process in (alive, victim):
                process.terminate()
                process.join(timeout=5)
        serial = SerialExecutor().run_batch(tasks)
        assert flows_key(first) == flows_key(serial)
        # Resume: every result comes off disk, zero re-executions.
        with executor_for(None, store=store_path,
                          resume=True) as resumed:
            again = resumed.run_batch(tasks)
            assert resumed.hits == len(tasks)
            assert resumed.misses == 0
        assert flows_key(again) == flows_key(serial)
        # The chaos store's records match a clean serial store's,
        # record for record (ts excluded: it is wall-clock metadata).
        clean_path = tmp_path / "clean-store"
        with StoreExecutor(SerialExecutor(),
                           store=clean_path) as executor:
            executor.run_batch(tasks)

        def canonical(path):
            records = {}
            for shard in sorted((path / "shards").iterdir()):
                for line in shard.read_text().splitlines():
                    record = json.loads(line)
                    record.pop("ts", None)
                    records[record["key"]] = json.dumps(
                        record, sort_keys=True)
            return records

        assert canonical(store_path) == canonical(clean_path)


# ----------------------------------------------------------------------
# The golden pin: full chaos schedule over the golden scenarios.


class TestGoldenChaos:
    def test_digests_survive_full_chaos_schedule(self):
        """Worker death (conn loss), heartbeat-timeout lease expiry,
        and at least one speculative duplicate — same digests as the
        fault-free golden table."""
        from test_golden_traces import (GOLDEN, SCENARIOS,
                                        result_digest)
        names = list(SCENARIOS)
        tasks = [SCENARIOS[name] for name in names]
        partitioned = cache_key(SCENARIOS["api"])
        plan = FaultPlan(seed=13, p_conn_drop=0.35, p_delay=0.5,
                         delay_s=0.3, partition_keys=(partitioned,),
                         partition_s=3600.0)
        policy = RetryPolicy(max_retries=2, task_timeout_s=2.0,
                             timeout_slack_s=0.5, backoff_base_s=0.01,
                             backoff_max_s=0.05)
        srv = chaos_server(plan)
        try:
            with remote(srv, lanes=2, policy=policy,
                        chunk_size=3) as executor:
                results = executor.run_batch(tasks)
                stats = executor.stats
        finally:
            srv.stop()
        digests = {name: result_digest(result)
                   for name, result in zip(names, results)}
        assert digests == GOLDEN
        assert stats.conn_losses >= 1        # worker death happened
        assert stats.lease_expiries >= 1     # a lease blew
        assert stats.duplicates >= 1         # a steal speculated
