"""Disk-backed result persistence for the execution layer.

A :class:`ResultStore` is a directory of sharded JSON-lines files
holding one :class:`~repro.exec.task.SimTaskResult` per task
fingerprint, and a :class:`StoreExecutor` wraps any inner executor to
serve cache hits from that store and persist misses *as they complete*.
Together they make crashed sweeps resumable (rerun and only the missing
fingerprints are simulated) and let separate processes — training in
one terminal, experiments in another — share simulation results for
free, because both key the store through the same
:func:`~repro.exec.task.cache_key` the in-memory cache uses.

On-disk layout::

    <store>/
      meta.json            {"magic": ..., "schema": SCHEMA_VERSION}
      shards/
        <2 hex chars>.jsonl   one record per line:
                              {"schema": N, "key": <sha1>, "result": ...}

Durability and concurrency come from the layout, not from locks:

* records are appended as a single ``write`` of one complete line, so
  concurrent writers interleave whole records (POSIX ``O_APPEND``) and
  a crash can truncate at most the final line;
* readers skip lines that fail to parse or carry a foreign schema
  version, so a truncated or corrupted shard degrades into a smaller
  cache, never an error;
* duplicate keys (two processes racing on the same task) are benign —
  fingerprint-equal tasks are result-equal by the determinism contract,
  and ``gc`` rewrites shards down to one record per key;
* ``meta.json`` is written atomically (temp file + rename) and pins the
  schema: opening a store written by an incompatible version fails
  loudly instead of quietly missing every key.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.results import FlowStats, RunResult
from .executors import Executor, ProgressFn, SerialExecutor
from .faults import shard_sabotage
from .task import SimTask, SimTaskResult, TaskFailure, cache_key

__all__ = ["SCHEMA_VERSION", "StoreSchemaError", "StoreStats",
           "ResultStore", "StoreExecutor", "encode_result",
           "decode_result", "encode_failure", "decode_failure",
           "store_main"]

#: Version of the on-disk record format.  Bump whenever
#: :func:`encode_result` / :func:`decode_result` change shape *or* the
#: :func:`~repro.exec.task.cache_key` format changes — old stores are
#: then rejected at open (meta) and old records skipped (per line)
#: rather than silently misread.
SCHEMA_VERSION = 1

_MAGIC = "repro-result-store"
_META = "meta.json"
_SHARDS = "shards"
#: The quarantine shard: one JSONL of ``{"schema", "key", "failure"}``
#: records naming fingerprints whose tasks exhausted their retries
#: (poison tasks).  Kept apart from the result shards so a quarantined
#: key can never be confused with a completed result, and so ``stats``
#: can report it without scanning every shard.
_QUARANTINE = "quarantine.jsonl"


class StoreSchemaError(RuntimeError):
    """The directory is not a compatible result store."""


# ----------------------------------------------------------------------
# Serialization.  JSON round-trips Python floats exactly (repr is the
# shortest string that parses back to the same IEEE double), so a result
# read from disk is bitwise-identical to the one that was written —
# which is what lets store hits participate in the determinism contract.

def encode_result(out: SimTaskResult) -> dict:
    """``SimTaskResult`` -> plain JSON-able dict."""
    run = out.run
    return {
        "run": {
            "flows": [dataclasses.asdict(flow) for flow in run.flows],
            "seed": run.seed,
            "duration_s": run.duration_s,
            "bottleneck_drops": run.bottleneck_drops,
            "bottleneck_utilization": run.bottleneck_utilization,
            "metadata": run.metadata,
        },
        "usage_counts": list(out.usage_counts),
        "usage_sums": [list(row) for row in out.usage_sums],
    }


def decode_result(data: dict) -> SimTaskResult:
    """Inverse of :func:`encode_result`."""
    run = data["run"]
    return SimTaskResult(
        run=RunResult(
            flows=[FlowStats(**flow) for flow in run["flows"]],
            seed=run["seed"],
            duration_s=run["duration_s"],
            bottleneck_drops=run["bottleneck_drops"],
            bottleneck_utilization=run["bottleneck_utilization"],
            metadata=dict(run.get("metadata") or {})),
        usage_counts=list(data.get("usage_counts") or []),
        usage_sums=[list(row) for row in data.get("usage_sums") or []])


def encode_failure(failure: TaskFailure) -> dict:
    """``TaskFailure`` -> plain JSON-able dict (quarantine records)."""
    return dataclasses.asdict(failure)


def decode_failure(data: dict) -> TaskFailure:
    """Inverse of :func:`encode_failure`; tolerant of absent fields."""
    return TaskFailure(
        kind=str(data.get("kind", "exception")),
        message=str(data.get("message", "")),
        attempts=int(data.get("attempts", 1)),
        error_type=str(data.get("error_type", "")),
        traceback=str(data.get("traceback", "")),
        resubmissions=int(data.get("resubmissions", 0)))


def _parse_record(line: bytes, payload: str = "result"
                  ) -> Optional[dict]:
    """One shard line -> record dict, or ``None`` if unusable.

    Unusable covers truncated/garbled JSON (crash mid-append), records
    from a different schema version, and records missing fields —
    corruption tolerance means all of these read as cache misses.
    ``payload`` names the required dict field: ``"result"`` for result
    shards, ``"failure"`` for the quarantine shard.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) \
            or record.get("schema") != SCHEMA_VERSION \
            or not isinstance(record.get("key"), str) \
            or not isinstance(record.get(payload), dict):
        return None
    return record


#: How every line ``put`` / ``gc`` / ``evict`` write starts (sorted keys,
#: compact separators, ASCII with non-ASCII escaped): enough to file a
#: line under the key it claims without parsing it.  A line that starts
#: any other way (spaced, reordered, torn inside the key, an escape in
#: it) is parsed when its shard is loaded instead.
_CLAIMED_KEY = re.compile(rb'\{"key":"([ !#-\[\]-~]*)"')


def _scan_lines(path: str, payload: str = "result"):
    """Parse every non-blank line of one file eagerly: yields the
    record, or ``None`` for an unusable line."""
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                yield _parse_record(line, payload)


def _atomic_write(path: str, data: bytes) -> None:
    handle, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-")
    try:
        with os.fdopen(handle, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class StoreStats:
    """What a scan of the store found (``stats``/``verify`` output)."""

    path: str
    schema: int
    shards: int
    records: int          # readable records (including duplicates)
    distinct: int         # distinct fingerprints
    corrupt: int          # unreadable / foreign-schema / undecodable lines
    size_bytes: int
    quarantined: int = 0  # distinct fingerprints in the quarantine shard

    def lines(self) -> List[str]:
        return [
            f"store       {self.path}",
            f"schema      {self.schema}",
            f"shards      {self.shards}",
            f"records     {self.records} ({self.distinct} distinct)",
            f"corrupt     {self.corrupt}",
            f"quarantined {self.quarantined}",
            f"bytes       {self.size_bytes}",
        ]


class ResultStore:
    """Fingerprint-keyed, disk-backed map of simulation results.

    Parameters
    ----------
    path:
        Store directory; created (with ``meta.json``) if absent.
    require_exists:
        Refuse to *create* — raise ``FileNotFoundError`` when no store
        is there yet.  ``--resume`` uses this so a typo'd path fails
        fast instead of silently recomputing a finished sweep.

    A shard is read on first touch, its records parsed one at a time as
    they are asked for, and cached per process; appends from other
    processes after a shard is cached are picked up on the next open
    (the resume workflow: write during a run, read at the next start).
    """

    def __init__(self, path: Union[str, os.PathLike],
                 require_exists: bool = False):
        self.path = str(path)
        self._shards_dir = os.path.join(self.path, _SHARDS)
        self._cache: Dict[str, Dict[str, Union[dict, list]]] = {}
        self._quarantine_cache: Optional[Dict[str, dict]] = None
        if os.path.exists(self.path) and not os.path.isdir(self.path):
            raise StoreSchemaError(
                f"{self.path} is a file, not a result-store directory")
        meta_path = os.path.join(self.path, _META)
        if os.path.exists(meta_path):
            try:
                with open(meta_path, "rb") as fh:
                    meta = json.load(fh)
            except ValueError as error:
                raise StoreSchemaError(
                    f"unreadable store meta {meta_path}: {error}")
            if not isinstance(meta, dict) or meta.get("magic") != _MAGIC:
                raise StoreSchemaError(
                    f"{self.path} is not a result store "
                    f"(bad magic in {_META})")
            if meta.get("schema") != SCHEMA_VERSION:
                raise StoreSchemaError(
                    f"store {self.path} has schema "
                    f"{meta.get('schema')!r}; this build reads only "
                    f"schema {SCHEMA_VERSION} — use a fresh --store "
                    f"path (old results cannot be trusted across "
                    f"format changes)")
        elif require_exists:
            raise FileNotFoundError(
                f"no result store at {self.path} (run once without "
                f"--resume to create it)")
        else:
            os.makedirs(self._shards_dir, exist_ok=True)
            _atomic_write(meta_path, json.dumps(
                {"magic": _MAGIC, "schema": SCHEMA_VERSION},
                sort_keys=True).encode() + b"\n")

    # ------------------------------------------------------------------
    def _shard_of(self, key: str) -> str:
        return key[:2]

    def _shard_path(self, shard: str) -> str:
        return os.path.join(self._shards_dir, f"{shard}.jsonl")

    def _shard_names(self) -> List[str]:
        if not os.path.isdir(self._shards_dir):
            return []
        return sorted(name[:-len(".jsonl")]
                      for name in os.listdir(self._shards_dir)
                      if name.endswith(".jsonl"))

    def _load_shard(self, shard: str) -> Dict[str, Union[dict, list]]:
        """One file read per shard; parsing waits for :meth:`_payload`.

        An entry is a validated payload (``dict``) or the key's
        candidates in file order (``list``): raw lines filed under the
        key they claim, and payloads of lines that had to be parsed to
        learn their key.
        """
        loaded = self._cache.get(shard)
        if loaded is not None:
            return loaded
        records: Dict[str, Union[dict, list]] = {}
        path = self._shard_path(shard)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                lines = fh.read().split(b"\n")
            for line in lines:
                claim = _CLAIMED_KEY.match(line)
                if claim is None:
                    record = _parse_record(line)
                    if record is not None:
                        # Valid and later than all it follows.
                        records[record["key"]] = record["result"]
                    continue
                key = claim.group(1).decode("ascii")
                earlier = records.get(key)
                if type(earlier) is list:
                    earlier.append(line)
                else:
                    records[key] = [line] if earlier is None \
                        else [earlier, line]
        self._cache[shard] = records
        return records

    def _payload(self, key: str) -> Optional[dict]:
        """The last *valid* record filed under ``key``, parsed at first
        touch and memoized in place of its candidates."""
        records = self._load_shard(self._shard_of(key))
        entry = records.get(key)
        if type(entry) is not list:
            return entry
        for candidate in reversed(entry):
            if type(candidate) is not dict:
                record = _parse_record(candidate)
                if record is None or record["key"] != key:
                    continue
                candidate = record["result"]
            records[key] = candidate
            return candidate
        del records[key]
        return None

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimTaskResult]:
        payload = self._payload(key)
        return None if payload is None else decode_result(payload)

    def __contains__(self, key: str) -> bool:
        return self._payload(key) is not None

    def put(self, key: str, result: SimTaskResult) -> None:
        """Persist one result (atomic single-line append).

        Records carry a write timestamp (``ts``, integer epoch seconds)
        so :meth:`evict` can sweep least-recently-written first.  It is
        an *extra* field — readers ignore it and
        :func:`_parse_record` tolerates its absence — so stores written
        before (or without) it stay fully compatible, no schema bump.
        """
        records = self._load_shard(self._shard_of(key))
        payload = encode_result(result)
        line = json.dumps(
            {"schema": SCHEMA_VERSION, "key": key, "result": payload,
             "ts": int(time.time())},
            sort_keys=True, separators=(",", ":")) + "\n"
        os.makedirs(self._shards_dir, exist_ok=True)
        with open(self._shard_path(self._shard_of(key)), "ab") as fh:
            fh.write(line.encode())
            # Chaos hook: under an installed fault plan this appends a
            # torn-write garbage line, which the readers' corruption
            # tolerance must degrade to a miss (see repro.exec.faults).
            garbage = shard_sabotage(key)
            if garbage is not None:
                fh.write(garbage)
        records[key] = payload

    def keys(self) -> Set[str]:
        out: Set[str] = set()
        for shard in self._shard_names():
            out.update(key for key in list(self._load_shard(shard))
                       if key in self)
        return out

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------
    # Quarantine: fingerprints whose tasks exhausted every retry.  A
    # separate shard, same append/parse discipline as result shards.

    def _quarantine_path(self) -> str:
        return os.path.join(self.path, _QUARANTINE)

    def _load_quarantine(self) -> Dict[str, dict]:
        loaded = self._quarantine_cache
        if loaded is not None:
            return loaded
        records: Dict[str, dict] = {}
        path = self._quarantine_path()
        if os.path.exists(path):
            keep, _total = self._read_records(path, payload="failure")
            records = {key: record["failure"]
                       for key, record in keep.items()}
        self._quarantine_cache = records
        return records

    def quarantine(self, key: str, failure: TaskFailure) -> None:
        """Record one poison fingerprint (atomic single-line append)."""
        records = self._load_quarantine()
        payload = encode_failure(failure)
        line = json.dumps(
            {"schema": SCHEMA_VERSION, "key": key, "failure": payload},
            sort_keys=True, separators=(",", ":")) + "\n"
        with open(self._quarantine_path(), "ab") as fh:
            fh.write(line.encode())
        records[key] = payload

    def get_quarantine(self, key: str) -> Optional[TaskFailure]:
        payload = self._load_quarantine().get(key)
        return None if payload is None else decode_failure(payload)

    def quarantined_keys(self) -> Set[str]:
        return set(self._load_quarantine())

    # ------------------------------------------------------------------
    def _scan(self, deep: bool) -> StoreStats:
        records = corrupt = size = 0
        distinct: Set[str] = set()
        quarantined: Set[str] = set()
        shards = self._shard_names()
        files = [(self._shard_path(shard), "result", decode_result)
                 for shard in shards]
        if os.path.exists(self._quarantine_path()):
            files.append((self._quarantine_path(), "failure",
                          decode_failure))
        for path, payload, decode in files:
            size += os.path.getsize(path)
            for record in _scan_lines(path, payload):
                if record is not None and deep:
                    try:
                        decode(record[payload])
                    except (KeyError, TypeError, ValueError):
                        record = None
                if record is None:
                    corrupt += 1
                elif payload == "failure":
                    quarantined.add(record["key"])
                else:
                    records += 1
                    distinct.add(record["key"])
        return StoreStats(path=self.path, schema=SCHEMA_VERSION,
                          shards=len(shards), records=records,
                          distinct=len(distinct), corrupt=corrupt,
                          size_bytes=size, quarantined=len(quarantined))

    def stats(self) -> StoreStats:
        """Cheap scan: shard/record/corrupt counts and sizes."""
        return self._scan(deep=False)

    def verify(self) -> StoreStats:
        """Deep scan: additionally decode every record, so a payload
        that parses as JSON but no longer decodes counts as corrupt."""
        return self._scan(deep=True)

    @staticmethod
    def _record_line(key: str, record: dict, payload: str) -> str:
        """Canonical serialized form of one (parsed) record.

        Preserves the write timestamp through rewrites — ``gc`` must
        not make every record look freshly written, or :meth:`evict`
        would lose its least-recently-written ordering.
        """
        out = {"schema": SCHEMA_VERSION, "key": key,
               payload: record[payload]}
        if "ts" in record:
            out["ts"] = record["ts"]
        return json.dumps(out, sort_keys=True,
                          separators=(",", ":")) + "\n"

    def _read_records(self, path: str, payload: str = "result"
                      ) -> Tuple[Dict[str, dict], int]:
        """All parseable records in one file (last write per key wins)
        plus the raw line count."""
        keep: Dict[str, dict] = {}
        total = 0
        for record in _scan_lines(path, payload):
            total += 1
            if record is not None:
                keep[record["key"]] = record
        return keep, total

    def gc(self) -> int:
        """Rewrite every shard down to one record per key.

        Drops corrupt/foreign-schema lines and duplicate keys (last
        write wins, matching read semantics); each shard is replaced
        atomically.  Returns the number of lines dropped.
        """
        dropped = 0
        for shard in self._shard_names():
            path = self._shard_path(shard)
            keep, total = self._read_records(path)
            dropped += total - len(keep)
            body = "".join(
                self._record_line(key, keep[key], "result")
                for key in sorted(keep))
            _atomic_write(path, body.encode())
            self._cache[shard] = {key: record["result"]
                                  for key, record in keep.items()}
        quarantine_path = self._quarantine_path()
        if os.path.exists(quarantine_path):
            keep_q, total = self._read_records(quarantine_path,
                                               payload="failure")
            dropped += total - len(keep_q)
            body = "".join(
                self._record_line(key, keep_q[key], "failure")
                for key in sorted(keep_q))
            _atomic_write(quarantine_path, body.encode())
            self._quarantine_cache = {key: record["failure"]
                                      for key, record in keep_q.items()}
        return dropped

    def evict(self, max_bytes: int) -> Tuple[int, int]:
        """Least-recently-written sweep down to ``max_bytes`` of
        result-shard data.

        Records are ordered by their write timestamp (``ts``; records
        from stores predating the field count as oldest) and evicted
        oldest-first until the canonical rewritten shards fit the
        budget.  Every shard is rewritten canonically (so duplicates
        and corrupt lines are dropped as a side effect, like
        :meth:`gc`); the quarantine shard is never evicted — poison
        fingerprints are tiny and forgetting one re-runs a task that
        kills workers.

        Returns ``(evicted_records, evicted_shards)`` — how many
        records were dropped, from how many distinct shards.
        """

        def age(record: dict) -> float:
            try:
                return float(record.get("ts", 0))
            except (TypeError, ValueError):
                return 0.0

        shard_keep: Dict[str, Dict[str, dict]] = {}
        lines: Dict[Tuple[str, str], str] = {}  # canonical, by (shard, key)
        entries: List[Tuple[float, str, str]] = []
        total = 0
        for shard in self._shard_names():
            # Replaced below; held through the sweep it would be a
            # second copy of the store beside ``keep`` and ``lines``.
            self._cache.pop(shard, None)
            keep, _count = self._read_records(self._shard_path(shard))
            shard_keep[shard] = keep
            for key, record in keep.items():
                line = self._record_line(key, record, "result")
                lines[shard, key] = line
                entries.append((age(record), key, shard))
                total += len(line)
        entries.sort()
        evicted = 0
        touched: Set[str] = set()
        for ts, key, shard in entries:
            if total <= max(int(max_bytes), 0):
                break
            del shard_keep[shard][key]
            total -= len(lines[shard, key])
            evicted += 1
            touched.add(shard)
        for shard, keep in shard_keep.items():
            body = "".join(lines[shard, key] for key in sorted(keep))
            _atomic_write(self._shard_path(shard), body.encode())
            self._cache[shard] = {key: record["result"]
                                  for key, record in keep.items()}
        return evicted, len(touched)


class StoreExecutor(Executor):
    """Serve hits from a :class:`ResultStore`; persist misses as they
    complete.

    The disk analogue of :class:`~repro.exec.executors.CachingExecutor`,
    keyed by the same :func:`~repro.exec.task.cache_key` so memory and
    disk entries can never diverge.  Misses stream through the inner
    executor's :meth:`~repro.exec.executors.Executor.run_iter` and are
    written to the store the moment each result exists — kill the
    process mid-batch and everything finished so far is already on
    disk, so the rerun simulates only the remainder.

    Failure results (the supervised executor's quarantine variant) are
    recorded in the store's quarantine shard, never in the result
    shards.  With ``skip_quarantined=True`` a known-poison fingerprint
    is served as its recorded failure instead of being re-executed —
    the ``--resume`` behavior that keeps one poison task from killing
    a fresh worker on every rerun.
    """

    def __init__(self, inner: Optional[Executor] = None,
                 store: Union[ResultStore, str, os.PathLike, None] = None,
                 skip_quarantined: bool = False):
        if store is None:
            raise ValueError("StoreExecutor requires a store "
                             "(a ResultStore or a directory path)")
        self.inner = inner or SerialExecutor()
        self.store = store if isinstance(store, ResultStore) \
            else ResultStore(store)
        self.skip_quarantined = skip_quarantined
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def run_batch(self, tasks: Sequence[SimTask],
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimTaskResult]:
        tasks = list(tasks)
        keys = [cache_key(task) for task in tasks]
        fetched: Dict[str, SimTaskResult] = {}
        pending: List[SimTask] = []
        pending_keys: List[str] = []
        seen = set()
        for task, key in zip(tasks, keys):
            if key in fetched:
                self.hits += 1
                continue
            if key in seen:
                continue
            hit = self.store.get(key)
            if hit is not None:
                fetched[key] = hit
                self.hits += 1
                continue
            if self.skip_quarantined:
                known = self.store.get_quarantine(key)
                if known is not None:
                    fetched[key] = SimTaskResult(failure=known)
                    self.quarantined += 1
                    continue
            seen.add(key)
            pending.append(task)
            pending_keys.append(key)
        # Progress spans the submitted batch (hits and duplicates count
        # as already done), mirroring CachingExecutor.
        done_offset = len(tasks) - len(pending)
        if pending:
            self.misses += len(pending)
            done = 0
            stream = self.inner.run_iter(pending)
            try:
                for i, result in stream:
                    if result.failure is not None:
                        # Poison goes to the quarantine shard, never the
                        # result shards: a failure must not be served as
                        # a cache hit by a reader unaware of quarantine.
                        self.store.quarantine(pending_keys[i],
                                              result.failure)
                        self.quarantined += 1
                    else:
                        self.store.put(pending_keys[i], result)
                    fetched[pending_keys[i]] = result
                    done += 1
                    if progress is not None:
                        progress(done_offset + done, len(tasks))
            finally:
                # Deterministic generator finalization: a store write
                # error or raising progress callback must reap the
                # inner executor's in-flight state immediately, not
                # whenever GC finds the suspended generator.
                stream.close()
        elif progress is not None and tasks:
            progress(len(tasks), len(tasks))
        return [fetched[key] for key in keys]

    def close(self) -> None:
        self.inner.close()


# ----------------------------------------------------------------------
# CLI: both scripts expose this as their ``store`` subcommand.

def store_main(argv: Optional[Sequence[str]] = None) -> int:
    """``store stats|gc|verify --store PATH`` — inspect or repair a
    result store.  Returns a shell-style exit code (``verify`` exits 1
    when corrupt records are found; with ``--strict``, ``stats`` and
    ``verify`` also exit 1 on a schema-valid store that holds
    quarantined fingerprints)."""
    parser = argparse.ArgumentParser(
        prog="store",
        description="inspect or repair a disk-backed result store")
    parser.add_argument("command", choices=("stats", "gc", "verify"),
                        help="stats: cheap scan; verify: deep scan "
                             "(decode every record); gc: drop corrupt "
                             "lines and duplicate keys")
    parser.add_argument("--store", required=True,
                        help="result store directory")
    parser.add_argument("--strict", action="store_true",
                        help="also exit non-zero when the store holds "
                             "quarantined (poison) fingerprints")
    parser.add_argument("--max-bytes", type=int, default=None,
                        metavar="N",
                        help="(gc only) after dropping corrupt lines, "
                             "evict least-recently-written results "
                             "until the result shards fit in N bytes")
    args = parser.parse_args(argv)
    if args.max_bytes is not None and args.command != "gc":
        parser.error("--max-bytes only applies to 'gc'")
    try:
        store = ResultStore(args.store, require_exists=True)
    except (FileNotFoundError, StoreSchemaError) as error:
        print(f"store {args.command}: {error}", file=sys.stderr)
        return 2
    if args.command == "gc":
        dropped = store.gc()
        print(f"gc: dropped {dropped} corrupt/duplicate line(s)")
        if args.max_bytes is not None:
            evicted, shards = store.evict(args.max_bytes)
            print(f"gc: evicted {evicted} record(s) from "
                  f"{shards} shard(s)")
    stats = store.verify() if args.command == "verify" else store.stats()
    for line in stats.lines():
        print(line)
    if args.command == "verify":
        if stats.corrupt:
            print(f"verify: FAILED — {stats.corrupt} corrupt record(s) "
                  f"(run 'store gc' to drop them)")
            return 1
    if args.strict and stats.quarantined:
        keys = sorted(store.quarantined_keys())
        shown = ", ".join(key[:12] for key in keys[:8])
        more = f", +{len(keys) - 8} more" if len(keys) > 8 else ""
        print(f"{args.command}: FAILED (--strict) — "
              f"{stats.quarantined} quarantined fingerprint(s): "
              f"{shown}{more}")
        return 1
    if args.command == "verify":
        print("verify: ok — every record decodes")
    return 0
