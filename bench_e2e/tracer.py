"""Span tracer installed around the program's public entry points.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install`
replaces each entry point listed in :data:`FUNCTIONS` / :data:`METHODS`
with a wrapper that records one span per call — name, start, end, the
span that caused it, and a task index — into an in-memory list that the
benchmark writes out when it ends.  A layer's *self* time is its span's
duration minus the part its child spans cover, so self times sum to the
root span exactly and whatever the root does not delegate to a traced
entry point shows up as ``trace.unattributed_share``.

Spans are recorded only under an open :meth:`Tracer.root`; outside one
(set-up, warm-up, forked pool workers) the wrappers pass straight
through.  Inside every :data:`PROFILE_EVERY`-th ``SimulationHandle.run``
span ``cProfile`` is switched on and its ``tottime`` bucketed by module
file into the ``*.share`` metrics — the sample is picked by call
ordinal, so it is the same tasks on every run.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Tracer", "PROFILE_EVERY"]

#: ``(module, attribute, span name)`` — module-level functions.  Every
#: ``repro.*`` module namespace that imported the function by name is
#: patched too, so ``from .task import run_sim_task`` aliases trace.
FUNCTIONS = (
    ("repro.experiments.api", "expand", "experiments.expand"),
    ("repro.exec.task", "run_sim_task", "exec.task.run_sim_task"),
    ("repro.remy.compiled", "compiled_from_json",
     "exec.task.compiled_from_json"),
    ("repro.experiments.common", "build_simulation", "sim.build"),
    ("repro.sim.fluid", "simulate_fluid", "sim.fluid.simulate"),
    ("repro.exec.store", "encode_result", "exec.store.encode"),
    ("repro.exec.store", "decode_result", "exec.store.decode"),
)

#: ``(module, class, attribute, span name)`` — methods, patched on the
#: class that defines them.
METHODS = (
    ("repro.experiments.api", "SweepResult", "to_json",
     "experiments.to_json"),
    ("repro.exec.task", "SimTask", "build", "exec.task.build"),
    ("repro.exec.task", "SimTask", "fingerprint", "exec.task.fingerprint"),
    ("repro.remy.tree", "WhiskerTree", "from_json",
     "exec.task.tree_from_json"),
    ("repro.core.scenario", "NetworkConfig", "from_dict",
     "exec.task.config_from_dict"),
    ("repro.experiments.common", "SimulationHandle", "run", "sim.run"),
    ("repro.exec.executors", "SerialExecutor", "run_batch",
     "exec.run_batch"),
    ("repro.exec.executors", "ProcessPoolExecutor", "run_batch",
     "exec.run_batch"),
    ("repro.exec.executors", "CachingExecutor", "run_batch",
     "exec.run_batch"),
    ("repro.exec.store", "StoreExecutor", "run_batch", "exec.run_batch"),
    ("repro.remy.evaluator", "TreeEvaluator", "evaluate",
     "remy.evaluate"),
    ("repro.remy.evaluator", "TreeEvaluator", "evaluate_batch",
     "remy.evaluate_batch"),
    ("repro.remy.optimizer", "RemyOptimizer", "train", "remy.train"),
    ("repro.exec.store", "ResultStore", "__init__", "exec.store.open"),
    ("repro.exec.store", "ResultStore", "get", "exec.store.get"),
    ("repro.exec.store", "ResultStore", "put", "exec.store.put"),
    ("repro.exec.store", "ResultStore", "evict", "exec.store.evict"),
    ("repro.exec.store", "ResultStore", "verify", "exec.store.verify"),
)

#: Spans that start a new task index when no ancestor carries one.
TASK_SPANS = frozenset({"exec.task.run_sim_task", "sim.fluid.simulate",
                        "exec.store.get", "exec.store.put"})

PROFILE_EVERY = 8

#: Module file (path suffix under ``repro/``) -> kernel share bucket.
_SHARE_BUCKETS = {
    "sim/engine.py": "sim.engine.share",
    "sim/link.py": "sim.link.share",
    "sim/queues.py": "sim.queue.share",
    "sim/codel.py": "sim.queue.share",
    "sim/sfq_codel.py": "sim.queue.share",
    "sim/network.py": "sim.network.share",
    "sim/packet.py": "sim.packet.share",
    "sim/workload.py": "sim.workload.share",
    "protocols/transport.py": "protocols.transport.share",
    "protocols/remycc.py": "remy.runtime.share",
    "remy/memory.py": "remy.runtime.share",
    "remy/compiled.py": "remy.runtime.share",
}

# Span record layout: [name, start, end, parent index, task index].
_NAME, _START, _END, _PARENT, _TASK = range(5)


def _share_bucket(code) -> str:
    """The ``*.share`` metric one cProfile entry's tottime belongs to."""
    if isinstance(code, str):       # a builtin: "<built-in method ...>"
        return "sim.engine.share" if "_heapq" in code \
            else "python.other.share"
    path = code.co_filename.replace(os.sep, "/")
    _, found, tail = path.rpartition("/repro/")
    if not found:
        return "python.other.share"
    if tail in _SHARE_BUCKETS:
        return _SHARE_BUCKETS[tail]
    if tail.startswith("protocols/"):
        return "protocols.controller.share"
    if tail.startswith("topology/"):
        return "topology.share"
    return "python.other.share"


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


class Tracer:
    """Records spans and exact counts while a :meth:`root` is open.

    ``names`` are the per-layer metrics ``BENCHMARK.json`` declares:
    :meth:`metrics` reports each of them, 0 where a workload never
    reaches the layer."""

    def __init__(self, names: Iterable[str]) -> None:
        self.names = tuple(names)
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.intervals_ms: List[float] = []   # task completion gaps
        self._stack: List[int] = []
        self._roots: List[int] = []
        self._tasks = 0
        self._sim_runs = 0
        self._profile = cProfile.Profile()
        # Unprofiled sim runs only, so per-event cost excludes cProfile.
        self._plain_s = 0.0
        self._plain_events = 0
        self._plain_pkts = 0

    # -- recording ------------------------------------------------------
    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        task = self.spans[parent][_TASK] if parent >= 0 else -1
        if task < 0 and name in TASK_SPANS:
            task = self._tasks
            self._tasks += 1
        span = [name, 0.0, 0.0, parent, task]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][_NAME] == name for i in self._stack)

    @contextmanager
    def root(self, name: str):
        """Record spans for the body; ``name`` is the top-level span."""
        span = self._open(name)
        self._roots.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        around = getattr(self, "_around_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                if around is not None:
                    return around(span, fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    # -- entry points that also yield counts ----------------------------
    def _around_sim_run(self, span, fn, args, kwargs):
        handle = args[0]
        profiled = self._sim_runs % PROFILE_EVERY == 0
        self._sim_runs += 1
        if profiled:
            self._profile.enable()
        try:
            result = fn(*args, **kwargs)
        finally:
            if profiled:
                self._profile.disable()
        elapsed = time.perf_counter() - span[_START]
        events = handle.sim.events_processed
        delivered = sum(flow.packets_delivered for flow in result.flows)
        self._count("sim.events", events)
        self._count("sim.pkts_delivered", delivered)
        self._count("sim.drops", result.bottleneck_drops)
        for flow in result.flows:
            self._count("sim.pkts_sent", flow.packets_sent)
            self._count("sim.retransmissions", flow.retransmissions)
            self._count("sim.timeouts", flow.timeouts)
        if not profiled:
            self._plain_s += elapsed
            self._plain_events += events
            self._plain_pkts += delivered
        return result

    def _around_sim_fluid_simulate(self, span, fn, args, kwargs):
        from repro.sim.fluid import fluid_dt
        config = args[0] if args else kwargs["config"]
        seeds = kwargs.get("seeds", args[2] if len(args) > 2 else (0,))
        duration = kwargs.get("duration_s",
                              args[3] if len(args) > 3 else 10.0)
        steps = max(int(round(duration / fluid_dt(config))), 1)
        self._count("sim.fluid.calls")
        self._count("sim.fluid.steps", steps)
        self._count("sim.fluid.lane_steps",
                    steps * len(seeds) * config.num_senders)
        return fn(*args, **kwargs)

    def _around_exec_run_batch(self, span, fn, args, kwargs):
        executor = args[0]
        tasks = list(args[1] if len(args) > 1 else kwargs["tasks"])
        outermost = sum(self.spans[i][_NAME] == "exec.run_batch"
                        for i in self._stack) == 1
        if not outermost:
            return fn(*args, **kwargs)
        if self._inside("remy.evaluate_batch"):
            fluid = sum(task.backend == "fluid" for task in tasks)
            self._count("remy.screen.fluid_tasks", fluid)
            self._count("remy.screen.packet_confirms", len(tasks) - fluid)
        if self._inside("remy.evaluate_batch") \
                or self._inside("remy.evaluate"):
            # The evaluator submits only what its memo missed.
            self._count("remy.search.evaluations", len(tasks))
        # Completion intervals come from the public progress callback.
        inner = args[2] if len(args) > 2 else kwargs.get("progress")
        last = [time.perf_counter()]

        def progress(done, total):
            now = time.perf_counter()
            self.intervals_ms.append((now - last[0]) * 1e3)
            last[0] = now
            if inner is not None:
                inner(done, total)
        return fn(executor, tasks, progress=progress)

    def _around_exec_task_build(self, span, fn, args, kwargs):
        if self._inside("remy.evaluate") \
                or self._inside("remy.evaluate_batch"):
            self._count("remy.search.tasks_requested")
        return fn(*args, **kwargs)

    def _around_exec_store_get(self, span, fn, args, kwargs):
        self._count("exec.store.gets")
        return fn(*args, **kwargs)

    def _around_exec_store_put(self, span, fn, args, kwargs):
        self._count("exec.store.puts")
        return fn(*args, **kwargs)

    def _counting_loads(self, fn: Callable) -> Callable:
        """``json.loads`` under a ``ResultStore.get`` span is one shard
        record parsed — the store's read amplification, seen from
        outside."""
        @functools.wraps(fn)
        def loads(*args, **kwargs):
            if self._stack \
                    and self.spans[self._stack[-1]][_NAME] \
                    == "exec.store.get":
                self._count("exec.store.records_parsed")
            return fn(*args, **kwargs)
        return loads

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Patch every entry point.  Import the whole program first so
        every by-name alias exists before it is looked for."""
        for name in ("repro", "repro.experiments", "repro.exec",
                     "repro.remy", "repro.sim.fluid"):
            importlib.import_module(name)
        for module_name, attr, span_name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self._wrap(span_name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] \
                        != "repro":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr, span_name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span_name, raw.__func__))
            else:
                wrapped = self._wrap(span_name, raw)
            setattr(cls, attr, wrapped)
        json.loads = self._counting_loads(json.loads)

    def wrap_metrics(self, spec):
        """``ExperimentSpec.metrics`` is a per-spec callable, so it is
        wrapped on the spec the workload passes in."""
        import dataclasses
        return dataclasses.replace(
            spec, metrics=self._wrap("experiments.metrics", spec.metrics))

    # -- derivation -----------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self seconds (duration minus direct children)."""
        own = [span[_END] - span[_START] for span in self.spans]
        for span in self.spans:
            if span[_PARENT] >= 0:
                own[span[_PARENT]] -= span[_END] - span[_START]
        return own

    def self_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span[_NAME]] = totals.get(span[_NAME], 0.0) + own
        return totals

    def root_span(self, name: str) -> Optional[list]:
        for index in self._roots:
            if self.spans[index][_NAME] == name:
                return self.spans[index]
        return None

    def shares(self) -> Dict[str, float]:
        """Profiled tottime by kernel bucket, as shares of the sample."""
        totals = {name: 0.0 for name in self.names
                  if name.endswith(".share")}
        for entry in self._profile.getstats():
            totals[_share_bucket(entry.code)] += entry.inlinetime
        whole = sum(totals.values())
        return {name: (value / whole if whole else 0.0)
                for name, value in totals.items()}

    def metrics(self, timed_root: str) -> Dict[str, float]:
        """Every span- and count-derived per-layer metric; the workload
        adds what only it knows (pool start, executor stats, ...)."""
        own = self.self_by_name()
        counts = self.counts

        def s(*names: str) -> float:
            return sum(own.get(name, 0.0) for name in names)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {name: 0.0 for name in self.names}
        out.update(self.shares())
        out["experiments.expand_s"] = s("experiments.expand")
        out["experiments.fold_s"] = s("experiments.metrics",
                                      "experiments.to_json")
        out["exec.task.build_s"] = s("exec.task.build",
                                     "exec.task.fingerprint")
        out["exec.task.decode_s"] = s("exec.task.tree_from_json",
                                      "exec.task.compiled_from_json",
                                      "exec.task.config_from_dict")
        if self.intervals_ms:
            out["exec.task.p50_ms"] = _percentile(self.intervals_ms, 0.5)
            if len(self.intervals_ms) >= 100:
                out["exec.task.p90_ms"] = _percentile(self.intervals_ms,
                                                      0.9)
        build, run = s("sim.build"), s("sim.run")
        out["sim.build_s"], out["sim.run_s"] = build, run
        out["sim.build_share"] = ratio(build, build + run)
        for key in ("events", "pkts_delivered", "pkts_sent", "drops",
                    "retransmissions", "timeouts"):
            out[f"sim.{key}"] = counts.get(f"sim.{key}", 0)
        out["sim.events_per_pkt"] = ratio(out["sim.events"],
                                          out["sim.pkts_delivered"])
        out["sim.us_per_event"] = ratio(self._plain_s * 1e6,
                                        self._plain_events)
        out["sim.pkts_per_host_s"] = ratio(self._plain_pkts,
                                           self._plain_s)
        out["remy.search.self_s"] = s("remy.train", "remy.evaluate",
                                      "remy.evaluate_batch")
        requested = counts.get("remy.search.tasks_requested", 0)
        evaluations = counts.get("remy.search.evaluations", 0)
        out["remy.search.tasks_requested"] = requested
        out["remy.search.evaluations"] = evaluations
        out["remy.search.memo_hit_ratio"] = \
            1.0 - ratio(evaluations, requested) if requested else 0.0
        fluid_tasks = counts.get("remy.screen.fluid_tasks", 0)
        confirms = counts.get("remy.screen.packet_confirms", 0)
        out["remy.screen.fluid_tasks"] = fluid_tasks
        out["remy.screen.packet_confirms"] = confirms if fluid_tasks else 0
        out["remy.screen.confirm_ratio"] = ratio(
            out["remy.screen.packet_confirms"], fluid_tasks)
        fluid_s = s("sim.fluid.simulate")
        out["sim.fluid.run_s"] = fluid_s
        for key in ("calls", "steps", "lane_steps"):
            out[f"sim.fluid.{key}"] = counts.get(f"sim.fluid.{key}", 0)
        out["sim.fluid.us_per_step"] = ratio(fluid_s * 1e6,
                                             out["sim.fluid.steps"])
        out["sim.fluid.ns_per_lane_step"] = ratio(
            fluid_s * 1e9, out["sim.fluid.lane_steps"])
        gets = counts.get("exec.store.gets", 0)
        puts = counts.get("exec.store.puts", 0)
        out["exec.store.open_s"] = s("exec.store.open")
        out["exec.store.get_s"] = s("exec.store.get")
        out["exec.store.decode_s"] = s("exec.store.decode")
        out["exec.store.us_per_hit"] = ratio(
            s("exec.store.open", "exec.store.get", "exec.store.decode")
            * 1e6, gets)
        out["exec.store.records_parsed_per_hit"] = ratio(
            counts.get("exec.store.records_parsed", 0), gets)
        out["exec.store.put_s"] = s("exec.store.put")
        out["exec.store.encode_s"] = s("exec.store.encode")
        out["exec.store.us_per_put"] = ratio(
            s("exec.store.put", "exec.store.encode") * 1e6, puts)
        out["exec.store.evict_s"] = s("exec.store.evict")
        out["exec.store.verify_s"] = s("exec.store.verify")
        root = self.root_span(timed_root)
        if root is not None:
            out["trace.unattributed_share"] = ratio(
                own.get(timed_root, 0.0), root[_END] - root[_START])
        return out

    def dump(self) -> dict:
        """The trace file body: every span, plus the exact counts."""
        return {
            "columns": ["name", "start", "end", "parent", "task"],
            "spans": self.spans,
            "counts": self.counts,
            "task_intervals_ms": {"n": len(self.intervals_ms)},
            "profiled_sim_runs": -(-self._sim_runs // PROFILE_EVERY),
            "sim_runs": self._sim_runs,
        }
