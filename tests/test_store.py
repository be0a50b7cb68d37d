"""Tests for the disk-backed result store (repro.exec.store).

The store extends the execution layer's determinism contract across
process lifetimes: a result read from disk must be bitwise-identical to
the one that was computed, a killed sweep must resume from everything
it finished, and no amount of corruption, concurrency, or schema drift
may ever produce a *wrong* answer (a smaller cache is fine, a stale or
garbled result is not).
"""

import hashlib
import importlib.util
import json
import multiprocessing
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scale import Scale
from repro.core.scenario import NetworkConfig
from repro.exec import (Executor, ResultStore, SerialExecutor, SimTask,
                        StoreExecutor, StoreSchemaError, cache_key,
                        run_batch, run_sim_task, store_main)
from repro.exec import TaskFailure
from repro.exec.store import (SCHEMA_VERSION, decode_failure,
                              decode_result, encode_failure,
                              encode_result)
from repro.remy.action import Action
from repro.remy.tree import WhiskerTree

CONFIG = NetworkConfig(
    link_speeds_mbps=(10.0,), rtt_ms=100.0,
    sender_kinds=("learner", "cubic"), mean_on_s=1.0, mean_off_s=1.0,
    buffer_bdp=5.0)

TREE = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))


def small_batch(n=4, duration=2.0):
    return [SimTask.build(CONFIG, trees={"learner": TREE},
                          seed=1 + k, duration_s=duration)
            for k in range(n)]


def flows_key(results):
    """A comparable projection of every float the tables consume."""
    return [[(f.kind, f.delivered_bytes, f.on_time_s, f.mean_delay_s,
              f.packets_delivered, f.packets_sent, f.retransmissions)
             for f in out.run.flows] for out in results]


class CountingExecutor(Executor):
    """Streams tasks serially, counting executions; can simulate a
    crash by dying after ``fail_after`` tasks."""

    def __init__(self, fail_after=None):
        self.executed = 0
        self.fail_after = fail_after

    def run_iter(self, tasks):
        for i, task in enumerate(list(tasks)):
            if self.fail_after is not None \
                    and self.executed >= self.fail_after:
                raise RuntimeError("simulated crash")
            self.executed += 1
            yield i, run_sim_task(task)

    def run_batch(self, tasks, progress=None):
        return self._collect(tasks, progress)


# ----------------------------------------------------------------------
class TestSerialization:
    def test_round_trip_is_exact(self):
        task = small_batch(1)[0]
        out = run_sim_task(task)
        decoded = decode_result(encode_result(out))
        assert decoded == out            # dataclass equality, bitwise

    def test_round_trip_through_json_text(self):
        """What actually happens on disk: dict -> JSON text -> dict."""
        out = run_sim_task(small_batch(1)[0])
        text = json.dumps(encode_result(out), sort_keys=True)
        assert decode_result(json.loads(text)) == out

    def test_usage_stats_survive(self):
        import dataclasses
        task = dataclasses.replace(small_batch(1)[0], record_usage=True)
        out = run_sim_task(task)
        assert sum(out.usage_counts) > 0
        decoded = decode_result(encode_result(out))
        assert decoded.usage_counts == out.usage_counts
        assert decoded.usage_sums == out.usage_sums


# ----------------------------------------------------------------------
class TestResultStore:
    def test_put_get_within_and_across_opens(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        task = small_batch(1)[0]
        out = run_sim_task(task)
        key = cache_key(task)
        assert store.get(key) is None
        store.put(key, out)
        assert store.get(key) == out
        assert key in store
        # A second open (another process, conceptually) sees it too.
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get(key) == out
        assert len(reopened) == 1

    def test_missing_store_rejected_when_resuming(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ResultStore(tmp_path / "nope", require_exists=True)
        ResultStore(tmp_path / "made")  # creates
        ResultStore(tmp_path / "made", require_exists=True)  # now fine

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "s"
        ResultStore(path)
        meta = path / "meta.json"
        record = json.loads(meta.read_text())
        record["schema"] = SCHEMA_VERSION + 999
        meta.write_text(json.dumps(record))
        with pytest.raises(StoreSchemaError):
            ResultStore(path)

    def test_regular_file_rejected(self, tmp_path):
        """--store pointed at a file (say, the -o report) must fail
        with the clean error path, not a raw NotADirectoryError."""
        path = tmp_path / "report.md"
        path.write_text("not a store")
        with pytest.raises(StoreSchemaError):
            ResultStore(path)

    def test_non_store_directory_rejected(self, tmp_path):
        path = tmp_path / "s"
        path.mkdir()
        (path / "meta.json").write_text('{"something": "else"}')
        with pytest.raises(StoreSchemaError):
            ResultStore(path)

    def test_foreign_schema_records_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        task = small_batch(1)[0]
        key = cache_key(task)
        store.put(key, run_sim_task(task))
        shard = tmp_path / "s" / "shards" / f"{key[:2]}.jsonl"
        lines = shard.read_text().splitlines()
        stale = json.loads(lines[0])
        stale["schema"] = SCHEMA_VERSION - 1
        shard.write_text(json.dumps(stale) + "\n")
        assert ResultStore(tmp_path / "s").get(key) is None

    def test_truncated_and_garbled_shards_recover(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        tasks = small_batch(2)
        outs = [run_sim_task(task) for task in tasks]
        for task, out in zip(tasks, outs):
            store.put(cache_key(task), out)
        # Crash-corrupt one shard: binary garbage plus a half-written
        # record (what a kill -9 mid-append leaves behind).
        shard_dir = tmp_path / "s" / "shards"
        victim = sorted(shard_dir.iterdir())[0]
        with open(victim, "ab") as fh:
            fh.write(b"\x00\xffgarbage not json\n")
            fh.write(b'{"schema": 1, "key": "dead', )  # truncated
        reopened = ResultStore(tmp_path / "s")
        for task, out in zip(tasks, outs):
            assert reopened.get(cache_key(task)) == out
        stats = reopened.stats()
        assert stats.records == 2
        assert stats.corrupt == 2

    def test_gc_drops_corruption_and_duplicates(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        task = small_batch(1)[0]
        key = cache_key(task)
        out = run_sim_task(task)
        store.put(key, out)
        store.put(key, out)          # duplicate (racing writers)
        shard = tmp_path / "s" / "shards" / f"{key[:2]}.jsonl"
        with open(shard, "ab") as fh:
            fh.write(b"not json either\n")
        reopened = ResultStore(tmp_path / "s")
        dropped = reopened.gc()
        assert dropped == 2          # one duplicate + one corrupt line
        assert shard.read_text().count("\n") == 1
        assert reopened.get(key) == out
        # And a fresh open agrees with the compacted file.
        assert ResultStore(tmp_path / "s").get(key) == out
        assert reopened.verify().corrupt == 0

    def test_verify_catches_undecodable_payloads(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        task = small_batch(1)[0]
        store.put(cache_key(task), run_sim_task(task))
        shard_dir = tmp_path / "s" / "shards"
        victim = sorted(shard_dir.iterdir())[0]
        # Parses as JSON, carries the right schema, but the payload has
        # lost its flows: stats() can't see that, verify() must.
        with open(victim, "ab") as fh:
            fh.write(json.dumps({"schema": SCHEMA_VERSION,
                                 "key": "ab" * 20,
                                 "result": {"run": {}}}).encode() + b"\n")
        fresh = ResultStore(tmp_path / "s")
        assert fresh.stats().corrupt == 0
        assert fresh.verify().corrupt == 1


# ----------------------------------------------------------------------
# The lazy read path: a shard line is indexed by the key sniffed off its
# canonical prefix and parsed only when that key is asked for.

def _key(k, shard="ab"):
    return shard + hashlib.sha1(str(k).encode()).hexdigest()[2:]


def _line(key, payload, schema=SCHEMA_VERSION, canonical=True):
    """One shard line, as ``put`` writes it or (``canonical=False``) as
    ``json.dumps`` defaults would: spaces, ``schema`` first."""
    record = {"schema": schema, "key": key, "result": payload}
    if canonical:
        return json.dumps(record, sort_keys=True,
                          separators=(",", ":")).encode() + b"\n"
    return json.dumps(record).encode() + b"\n"


def _eager_oracle(lines):
    """The read loop this store had before it went lazy: parse every
    line, last valid record per key wins."""
    records = {}
    for line in b"".join(lines).split(b"\n"):
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) \
                and record.get("schema") == SCHEMA_VERSION \
                and isinstance(record.get("key"), str) \
                and isinstance(record.get("result"), dict):
            records[record["key"]] = record["result"]
    return records


def _store_of(root, lines, shard="ab"):
    """A store whose one shard holds exactly ``lines``; a fresh open."""
    ResultStore(root)
    (Path(root) / "shards" / f"{shard}.jsonl").write_bytes(b"".join(lines))
    return ResultStore(root)


@pytest.fixture(scope="module")
def payloads():
    return [encode_result(run_sim_task(task)) for task in small_batch(3)]


class TestLazyRead:
    def test_one_parse_per_served_record(self, tmp_path, payloads,
                                         monkeypatch):
        n = 4
        keys = [_key(k, shard=("ab", "cd")[k % 2]) for k in range(10 * n)]
        writer = ResultStore(tmp_path / "s")
        for k, key in enumerate(keys):
            writer.put(key, decode_result(payloads[k % 3]))
        store = ResultStore(tmp_path / "s")
        calls = []
        real = json.loads
        monkeypatch.setattr(
            json, "loads", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        served = [store.get(key) for key in keys[:n]]
        assert len(calls) == n
        assert served == [decode_result(payloads[k % 3]) for k in range(n)]
        assert store.get(keys[0]) == served[0] and keys[1] in store
        assert len(calls) == n           # memoized: no second parse
        assert store.get(_key("absent")) is None
        assert len(calls) == n           # a miss parses nothing either

    def test_corrupt_duplicate_falls_back_to_the_good_record(
            self, tmp_path, payloads):
        key, other = _key(1), _key(2)
        good = _line(key, payloads[0])
        later = _line(key, payloads[1])
        torn = later[:len(later) // 2] + b"\n"
        garbled = later[:60] + b"\x00\xff" + later[62:]
        for k, bad in enumerate((torn, garbled)):
            store = _store_of(tmp_path / f"after{k}", [good, bad])
            assert store.get(key) == decode_result(payloads[0])
            store = _store_of(tmp_path / f"before{k}", [bad, later])
            assert store.get(key) == decode_result(payloads[1])
        # Two good records: the later one, as ever.
        store = _store_of(tmp_path / "both", [good, later])
        assert store.get(key) == decode_result(payloads[1])
        # A spaced (parsed-at-load) good record, then a torn canonical
        # duplicate, with an unrelated key between them.
        store = _store_of(tmp_path / "mixed", [
            _line(key, payloads[2], canonical=False),
            _line(other, payloads[0]), torn])
        assert store.get(key) == decode_result(payloads[2])
        assert store.keys() == {key, other}

    def test_lines_that_must_read_as_misses(self, tmp_path, payloads):
        good, claimed, inner, foreign, listy = (_key(k) for k in range(5))
        # Sniffs as ``claimed``; JSON (last duplicate member wins) says
        # ``inner``: served under neither.
        two_keys = b'{"key":"' + claimed.encode() + b'",' \
            + _line(inner, payloads[0])[1:]
        assert json.loads(two_keys)["key"] == inner
        store = _store_of(tmp_path / "s", [
            _line(good, payloads[0]), two_keys,
            _line(foreign, payloads[0], schema=SCHEMA_VERSION + 1),
            _line(listy, [1, 2]), b'{"key":"ab\n'])
        for key in (claimed, inner, foreign, listy, "ab"):
            assert store.get(key) is None
            assert key not in store
        assert store.keys() == {good}
        assert len(store) == 1
        # keys() first, on a fresh open, agrees.
        assert ResultStore(tmp_path / "s").keys() == {good}

    def test_differently_written_record_is_served(self, tmp_path,
                                                  payloads):
        key = _key(1)
        store = _store_of(tmp_path / "s",
                          [_line(key, payloads[0], canonical=False)])
        assert key in store
        assert store.get(key) == decode_result(payloads[0])
        # A key ``put`` has to escape cannot be read off the prefix.
        odd = 'ab"é\\'
        store.put(odd, decode_result(payloads[1]))
        assert ResultStore(tmp_path / "s").get(odd) \
            == decode_result(payloads[1])

    @given(spec=st.lists(st.tuples(
        st.sampled_from(("put", "spaced", "foreign", "torn", "torn_key",
                         "garbage", "blank")),
        st.integers(0, 2), st.integers(0, 2),
        st.floats(0.05, 0.95), st.booleans()), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_lazy_reads_equal_the_eager_loop(self, payloads, spec):
        """Random interleavings of valid, duplicate, foreign, torn
        (newline-terminated or fused into the next line) and garbage
        lines over three keys of one shard."""
        keys = [_key(k) for k in range(3)]
        lines = []
        for kind, k, p, cut, newline in spec:
            line = _line(keys[k], payloads[p], canonical=kind != "spaced",
                         schema=SCHEMA_VERSION + (kind == "foreign"))
            if kind == "torn":
                line = line[:int(len(line) * cut)] + b"\n" * newline
            elif kind == "torn_key":
                line = line[:8 + int(40 * cut)] + b"\n" * newline
            elif kind == "garbage":
                line = b"\x00\xffnot json\n"
            elif kind == "blank":
                line = b"\n"
            lines.append(line)
        expected = _eager_oracle(lines)
        with tempfile.TemporaryDirectory() as root:
            store = _store_of(root, lines)
            assert {key: store.get(key) for key in keys} \
                == {key: decode_result(expected[key])
                    if key in expected else None for key in keys}
            assert store.keys() == set(expected) == \
                ResultStore(root).keys()
            assert len(store) == len(expected)


# ----------------------------------------------------------------------
def _writer_process(path, start, count):
    """Child-process body for the concurrency test (module-level so it
    pickles under any multiprocessing start method)."""
    store = ResultStore(path)
    for task in small_batch(count)[start:]:
        store.put(cache_key(task), run_sim_task(task))


class TestConcurrentWriters:
    def test_two_processes_share_one_store(self, tmp_path):
        path = str(tmp_path / "s")
        n = 4
        ctx = multiprocessing.get_context()
        first = ctx.Process(target=_writer_process, args=(path, 0, 2))
        second = ctx.Process(target=_writer_process, args=(path, 2, n))
        first.start()
        second.start()
        first.join(timeout=120)
        second.join(timeout=120)
        assert first.exitcode == 0 and second.exitcode == 0
        # The parent (a third process) reads everything both wrote,
        # bitwise-equal to computing locally.
        store = ResultStore(path)
        tasks = small_batch(n)
        local = [run_sim_task(task) for task in tasks]
        stored = [store.get(cache_key(task)) for task in tasks]
        assert flows_key(stored) == flows_key(local)
        assert store.verify().corrupt == 0


# ----------------------------------------------------------------------
class TestStoreExecutor:
    def test_hits_skip_execution_across_processes(self, tmp_path):
        """Two executors on the same path model two processes: the
        second serves everything from disk."""
        tasks = small_batch(3)
        first = StoreExecutor(CountingExecutor(),
                              store=tmp_path / "s")
        a = first.run_batch(tasks)
        assert first.inner.executed == 3
        assert (first.hits, first.misses) == (0, 3)
        second = StoreExecutor(CountingExecutor(),
                               store=tmp_path / "s")
        b = second.run_batch(tasks)
        assert second.inner.executed == 0
        assert (second.hits, second.misses) == (3, 0)
        assert flows_key(a) == flows_key(b)

    def test_duplicates_within_batch_run_once(self, tmp_path):
        executor = StoreExecutor(CountingExecutor(),
                                 store=tmp_path / "s")
        task = small_batch(1)[0]
        results = executor.run_batch([task, task, task])
        assert executor.inner.executed == 1
        assert flows_key(results[:1]) == flows_key(results[1:2])

    def test_memory_and_disk_share_the_cache_key(self, tmp_path):
        """A result cached in memory is filed on disk under the same
        key: warm a store, then a CachingExecutor-style lookup by
        cache_key() finds exactly that entry."""
        task = small_batch(1)[0]
        executor = StoreExecutor(SerialExecutor(), store=tmp_path / "s")
        out, = executor.run_batch([task])
        assert executor.store.get(cache_key(task)) == out

    def test_progress_spans_submitted_batch(self, tmp_path):
        tasks = small_batch(3)
        executor = StoreExecutor(SerialExecutor(), store=tmp_path / "s")
        executor.run_batch(tasks[:2])
        seen = []
        executor.run_batch(tasks,
                           progress=lambda d, n: seen.append((d, n)))
        assert seen == [(3, 3)]      # 2 hits + 1 executed
        seen = []
        executor.run_batch(tasks,
                           progress=lambda d, n: seen.append((d, n)))
        assert seen == [(3, 3)]      # fully cached still fires

    def test_crash_mid_batch_resumes_from_disk(self, tmp_path):
        """The resumability contract: kill a sweep mid-batch and the
        rerun completes from disk, re-simulating only what's missing,
        with results bitwise-identical to an uninterrupted run."""
        tasks = small_batch(4)
        reference = SerialExecutor().run_batch(tasks)

        dying = StoreExecutor(CountingExecutor(fail_after=2),
                              store=tmp_path / "s")
        with pytest.raises(RuntimeError):
            dying.run_batch(tasks)
        assert dying.inner.executed == 2
        # Everything that finished before the crash is already on disk.
        assert len(ResultStore(tmp_path / "s")) == 2

        resumed = StoreExecutor(CountingExecutor(),
                                store=tmp_path / "s")
        results = resumed.run_batch(tasks)
        assert resumed.inner.executed == 2          # only the missing
        assert (resumed.hits, resumed.misses) == (2, 2)
        assert flows_key(results) == flows_key(reference)

    def test_run_batch_store_param(self, tmp_path):
        """run_batch(store=...) persists through a caller-owned
        executor without closing it."""
        tasks = small_batch(2)
        owned = CountingExecutor()
        first = run_batch(tasks, executor=owned, store=tmp_path / "s")
        second = run_batch(tasks, executor=owned, store=tmp_path / "s")
        assert owned.executed == 2                  # second was all hits
        assert flows_key(first) == flows_key(second)

    def test_run_seed_batch_store_param(self, tmp_path):
        from repro.experiments.common import run_seed_batch
        scale = Scale(duration_s=2.0, packet_budget=3_000,
                      min_duration_s=2.0, n_seeds=2)
        specs = [(CONFIG, {"learner": TREE})]
        first = run_seed_batch(specs, scale=scale, store=tmp_path / "s")
        # Second run: everything from disk, nothing executed.
        counting = CountingExecutor()
        second = run_seed_batch(specs, scale=scale, executor=counting,
                                store=tmp_path / "s")
        assert counting.executed == 0
        assert [[f.delivered_bytes for f in r.flows]
                for r in first[0]] \
            == [[f.delivered_bytes for f in r.flows]
                for r in second[0]]


# ----------------------------------------------------------------------
class TestStoreCli:
    def _warm(self, tmp_path):
        path = tmp_path / "s"
        executor = StoreExecutor(SerialExecutor(), store=path)
        executor.run_batch(small_batch(2))
        return path

    def test_stats_and_verify_ok(self, tmp_path, capsys):
        path = self._warm(tmp_path)
        assert store_main(["stats", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 distinct" in out
        assert store_main(["verify", "--store", str(path)]) == 0
        assert "verify: ok" in capsys.readouterr().out

    def test_verify_fails_on_corruption(self, tmp_path, capsys):
        path = self._warm(tmp_path)
        victim = sorted((path / "shards").iterdir())[0]
        with open(victim, "ab") as fh:
            fh.write(b"garbage\n")
        assert store_main(["verify", "--store", str(path)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_gc_then_verify_recovers(self, tmp_path, capsys):
        path = self._warm(tmp_path)
        victim = sorted((path / "shards").iterdir())[0]
        with open(victim, "ab") as fh:
            fh.write(b"garbage\n")
        assert store_main(["gc", "--store", str(path)]) == 0
        assert "dropped 1" in capsys.readouterr().out
        assert store_main(["verify", "--store", str(path)]) == 0

    def test_missing_store_is_an_error(self, tmp_path, capsys):
        assert store_main(["stats", "--store",
                           str(tmp_path / "nope")]) == 2
        assert "no result store" in capsys.readouterr().err


def _stamp_ts(path, stamps):
    """Rewrite every shard record's ``ts`` from ``stamps[key]``."""
    for shard in sorted((path / "shards").iterdir()):
        if shard.name.startswith("quarantine"):
            continue
        lines = []
        for line in shard.read_text().splitlines():
            record = json.loads(line)
            record["ts"] = stamps[record["key"]]
            lines.append(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
        shard.write_text("\n".join(lines) + "\n")


def _shard_bytes(path):
    return sum(shard.stat().st_size
               for shard in (path / "shards").iterdir()
               if not shard.name.startswith("quarantine"))


class TestEviction:
    """``store gc --max-bytes N`` — least-recently-written eviction."""

    def _warm(self, tmp_path, n=4):
        path = tmp_path / "s"
        tasks = small_batch(n)
        with StoreExecutor(SerialExecutor(), store=path) as executor:
            executor.run_batch(tasks)
        return path, [cache_key(task) for task in tasks]

    def test_oldest_records_go_first(self, tmp_path):
        path, keys = self._warm(tmp_path)
        # Ages increase with batch position: keys[0] oldest.
        _stamp_ts(path, {key: 1000 + i for i, key in enumerate(keys)})
        store = ResultStore(path, require_exists=True)
        before = _shard_bytes(path)
        evicted, shards = store.evict(before // 2)
        assert evicted >= 1 and shards >= 1
        assert _shard_bytes(path) <= before // 2
        survivors = store.keys()
        # The survivors are exactly the newest tail of the batch.
        assert survivors == set(keys[len(keys) - len(survivors):])
        # Survivors are still served, from this handle and a fresh one.
        reopened = ResultStore(path, require_exists=True)
        for key in survivors:
            assert store.get(key) is not None
            assert reopened.get(key) is not None
        for key in keys[:len(keys) - len(survivors)]:
            assert reopened.get(key) is None

    def test_within_budget_is_a_no_op(self, tmp_path):
        path, keys = self._warm(tmp_path, n=2)
        store = ResultStore(path, require_exists=True)
        assert store.evict(_shard_bytes(path)) == (0, 0)
        assert store.keys() == set(keys)

    def test_missing_ts_counts_as_oldest(self, tmp_path):
        path, keys = self._warm(tmp_path, n=3)
        stamps = {key: 5000 for key in keys}
        _stamp_ts(path, stamps)
        # Strip ts from one record entirely (a pre-eviction store).
        for shard in sorted((path / "shards").iterdir()):
            lines = [json.loads(line)
                     for line in shard.read_text().splitlines()]
            if any(rec["key"] == keys[1] for rec in lines):
                for rec in lines:
                    rec.pop("ts", None)
                shard.write_text("\n".join(
                    json.dumps(rec, sort_keys=True,
                               separators=(",", ":"))
                    for rec in lines) + "\n")
        store = ResultStore(path, require_exists=True)
        evicted, _shards = store.evict(_shard_bytes(path) - 1)
        assert evicted == 1
        assert keys[1] not in store.keys()

    def test_quarantine_is_never_evicted(self, tmp_path):
        path, keys = self._warm(tmp_path, n=2)
        store = ResultStore(path, require_exists=True)
        store.quarantine("deadbeef" * 5, TaskFailure(
            kind="crash", attempts=3, message="poison"))
        evicted, _shards = store.evict(0)
        assert evicted == len(keys)
        assert store.keys() == set()
        assert store.get_quarantine("deadbeef" * 5) is not None

    def test_gc_preserves_ts(self, tmp_path):
        path, keys = self._warm(tmp_path, n=2)
        _stamp_ts(path, {key: 1234 for key in keys})
        store = ResultStore(path, require_exists=True)
        store.gc()
        for shard in (path / "shards").iterdir():
            for line in shard.read_text().splitlines():
                assert json.loads(line)["ts"] == 1234

    def test_cli_prints_eviction_stats(self, tmp_path, capsys):
        path, keys = self._warm(tmp_path, n=2)
        assert store_main(["gc", "--store", str(path),
                           "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert f"evicted {len(keys)} record(s)" in out
        assert ResultStore(path, require_exists=True).keys() == set()

    def test_cli_rejects_max_bytes_outside_gc(self, tmp_path):
        path, _keys = self._warm(tmp_path, n=1)
        with pytest.raises(SystemExit):
            store_main(["stats", "--store", str(path),
                        "--max-bytes", "5"])


# ----------------------------------------------------------------------
def _load_script(name):
    """Import a scripts/*.py file (scripts/ is not a package)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / name
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSweepResume:
    """The acceptance criterion: a run_experiments.py --store sweep
    killed halfway and rerun with --resume produces byte-identical
    output while re-simulating only the missing fingerprints."""

    def test_scripts_expose_store_subcommand(self, tmp_path, capsys):
        path = tmp_path / "s"
        StoreExecutor(SerialExecutor(),
                      store=path).run_batch(small_batch(1))
        for name in ("run_experiments.py", "train_assets.py"):
            module = _load_script(name)
            assert module.main(["store", "stats",
                                "--store", str(path)]) == 0
            assert "1 distinct" in capsys.readouterr().out

    def test_resume_without_store_rejected(self, capsys):
        run_experiments = _load_script("run_experiments.py")
        with pytest.raises(SystemExit):
            run_experiments.main(["--resume"])

    def test_killed_sweep_resumes_identically(self, tmp_path,
                                              monkeypatch, capsys):
        from repro.core import scale as scale_module

        run_experiments = _load_script("run_experiments.py")
        tiny = Scale(duration_s=2.0, packet_budget=3_000,
                     min_duration_s=2.0, n_seeds=2, sweep_points=2)
        monkeypatch.setitem(scale_module.NAMED_SCALES, "quick", tiny)

        # Count what the inner executor actually simulates per run.
        executors = []
        real_executor_from_args = run_experiments.executor_from_args

        def counting_executor_from_args(args):
            executor = real_executor_from_args(args)
            if isinstance(executor, StoreExecutor):
                executor.inner = CountingExecutor()
                executors.append(executor)
            return executor

        monkeypatch.setattr(run_experiments, "executor_from_args",
                            counting_executor_from_args)
        args = ["--scale", "quick", "--only", "calibration",
                "--fake-taos"]
        store = tmp_path / "store"
        ref, out = tmp_path / "ref.md", tmp_path / "out.md"

        # Uninterrupted reference, no store involved at all.
        assert run_experiments.main(args + ["-o", str(ref)]) == 0
        # Full run into the store; output must match the reference.
        assert run_experiments.main(
            args + ["--store", str(store), "-o", str(out)]) == 0
        total = executors[0].inner.executed
        assert total > 0
        assert out.read_text() == ref.read_text()

        # "Kill it halfway": drop half the shard files, as a crash
        # partway through the sweep would have left them unwritten.
        shards = sorted((store / "shards").glob("*.jsonl"))
        assert len(shards) >= 2
        lost = 0
        for shard in shards[:len(shards) // 2]:
            lost += sum(1 for _ in shard.open())
            shard.unlink()
        assert 0 < lost < total

        assert run_experiments.main(
            args + ["--store", str(store), "--resume",
                    "-o", str(out)]) == 0
        resumed = executors[1]
        # Only the lost fingerprints were re-simulated...
        assert resumed.inner.executed == lost
        assert resumed.hits == total - lost
        # ...and the report is byte-identical to the uninterrupted run.
        assert out.read_text() == ref.read_text()

    def test_resume_against_missing_store_fails_fast(self, tmp_path,
                                                     capsys):
        run_experiments = _load_script("run_experiments.py")
        with pytest.raises(SystemExit) as exit_info:
            run_experiments.main(
                ["--scale", "quick", "--only", "calibration",
                 "--fake-taos", "--store", str(tmp_path / "typo"),
                 "--resume"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("--store: ") and "no result store" in err


FAILURE = TaskFailure(kind="worker-death", message="poison",
                      attempts=3, resubmissions=3)


class TestQuarantine:
    """The quarantine shard: poison fingerprints recorded apart from
    results, surfaced by stats/verify, enforced only under --strict."""

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.quarantine("deadbeef", FAILURE)
        assert store.get_quarantine("deadbeef") == FAILURE
        assert store.get_quarantine("cafebabe") is None
        # A fresh open reads it back from disk.
        reopened = ResultStore(tmp_path / "s")
        assert reopened.quarantined_keys() == {"deadbeef"}
        assert reopened.get_quarantine("deadbeef") == FAILURE

    def test_encode_decode_tolerant(self):
        assert decode_failure(encode_failure(FAILURE)) == FAILURE
        sparse = decode_failure({"kind": "timeout"})
        assert sparse.kind == "timeout" and sparse.attempts == 1

    def test_never_lands_in_result_shards(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = cache_key(small_batch(1)[0])
        store.quarantine(key, FAILURE)
        assert key not in store            # not servable as a result
        stats = store.stats()
        assert stats.records == 0 and stats.quarantined == 1

    def test_stats_and_verify_count_quarantine(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        StoreExecutor(SerialExecutor(),
                      store=store).run_batch(small_batch(1))
        store.quarantine("deadbeef", FAILURE)
        store.quarantine("deadbeef", FAILURE)   # duplicate: 1 distinct
        for stats in (store.stats(), store.verify()):
            assert stats.distinct == 1
            assert stats.quarantined == 1
        assert any("quarantined 1" in line
                   for line in store.stats().lines())

    def test_gc_compacts_quarantine_shard(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.quarantine("deadbeef", FAILURE)
        store.quarantine("deadbeef", FAILURE)
        with open(store._quarantine_path(), "ab") as fh:
            fh.write(b"\x00not json\n")
        assert store.gc() == 2                  # duplicate + garbage
        reopened = ResultStore(tmp_path / "s")
        assert reopened.quarantined_keys() == {"deadbeef"}
        assert reopened.stats().corrupt == 0

    def test_store_main_strict_gates_on_quarantine(self, tmp_path,
                                                   capsys):
        path = str(tmp_path / "s")
        store = ResultStore(path)
        StoreExecutor(SerialExecutor(),
                      store=store).run_batch(small_batch(1))
        # Healthy, no quarantine: strict and non-strict both pass.
        for extra in ([], ["--strict"]):
            assert store_main(["stats", "--store", path] + extra) == 0
            assert store_main(["verify", "--store", path] + extra) == 0
        store.quarantine("deadbeef", FAILURE)
        capsys.readouterr()
        # Quarantined fingerprints are reported but only fail --strict.
        assert store_main(["stats", "--store", path]) == 0
        assert "quarantined 1" in capsys.readouterr().out
        assert store_main(["stats", "--store", path, "--strict"]) == 1
        assert "deadbeef"[:12] in capsys.readouterr().out
        assert store_main(["verify", "--store", path, "--strict"]) == 1
