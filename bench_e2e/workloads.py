"""The eight closed-loop workloads of the end-to-end ledger.

Each workload is a class with the same four-step life: ``__init__``
builds the inputs from the seed and sends one untimed warm-up task down
the path it is about to time; :meth:`timed` is the timed region (a
batch caller waiting for all results); :meth:`check` verifies the
outputs and returns the canonical text whose digest is pinned at seed
1; :meth:`close` stops whatever was started.  :meth:`layers` adds the
per-layer numbers only the workload can know (pool start-up, executor
stats, store sizes) to what the tracer derives from spans.

The program only ever receives generated ``SimTask``s / specs; the seed
feeds ``base_seed`` / ``config_seed`` / task seeds, the link-speed
jitter (:data:`SPEED_JITTER`), and the store's keys and read order.

Sizes: ``bench`` is what one contract run times (about two seconds per
repetition, see README.md for how each knob was shrunk from the sizes
the issue measured); ``smoke`` is the tier-1 test's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.core.scale import QUICK, Scale
from repro.core.scenario import NetworkConfig, ScenarioRange
from repro.exec import (ResultStore, SerialExecutor, SimTask,
                        StoreExecutor, executor_for)
from repro.exec import task as exec_task
from repro.experiments.api import (FAKE_TREE, AdhocBase, Axis, adhoc_spec,
                                   expand, get_experiment, run_experiment)
from repro.remy.action import Action
from repro.remy.catalog import CATALOG
from repro.remy.evaluator import EvalSettings, TreeEvaluator
from repro.remy.optimizer import OptimizerSettings, RemyOptimizer
from repro.remy.tree import WhiskerTree

__all__ = ["WORKLOADS", "SIZES", "Checked"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER_SCRIPT = os.path.join(ROOT, "scripts", "worker.py")

#: Size knobs per workload.  Only these shrink between the issue's
#: measured sizes, ``bench`` and ``smoke``; the shape of each workload
#: (schemes, axes, executors, access pattern) is the same at every size.
SIZES: Dict[str, Dict[str, dict]] = {
    "bench": {
        "sweep_few_flows": dict(scale=Scale(60.0, 6_000, 1.5, n_seeds=1,
                                            sweep_points=5)),
        "sweep_many_flows": dict(scale=dataclasses.replace(
            QUICK, duration_s=2.0, min_duration_s=2.0, n_seeds=1)),
        "train_generation": dict(
            n_configs=2, scale=Scale(1.5, 100_000, 1.5), generations=1,
            max_action_steps=1),
        "fluid_wide": dict(
            senders=(100, 1000), scale=Scale(1.5, 30_000, 1.5, n_seeds=3)),
        "fluid_narrow": dict(
            n_configs=2, scale=Scale(1.5, 15_000, 1.5), clones=12,
            confirm_top=2),
        # ``sample``: tasks per half re-run serially (cycles of 6 shapes).
        "dispatch_small_tasks": dict(tasks_per_half=140, sample=12),
        "store_replay": dict(records=3_000, opens=20),
        "store_fill": dict(records=5_000),
    },
    "smoke": {
        "sweep_few_flows": dict(scale=Scale(2.0, 300, 1.0, n_seeds=1,
                                            sweep_points=2)),
        "sweep_many_flows": dict(scale=Scale(2.0, 300, 1.0, n_seeds=1,
                                             sweep_points=2)),
        "train_generation": dict(
            n_configs=1, scale=Scale(2.0, 400, 1.0), generations=0,
            max_action_steps=1),
        "fluid_wide": dict(
            senders=(10, 40), scale=Scale(1.5, 30_000, 1.5, n_seeds=2)),
        "fluid_narrow": dict(
            n_configs=1, scale=Scale(1.5, 15_000, 1.5), clones=3,
            confirm_top=1),
        "dispatch_small_tasks": dict(tasks_per_half=8, sample=6),
        "store_replay": dict(records=160, opens=2),
        "store_fill": dict(records=160),
    },
}


#: Packet scenarios take their link speed from the seed, within
#: ``exp(+-SPEED_JITTER)`` of the nominal one, and not their on/off
#: draw.  With the registered 1 s on / 1 s off senders the draw *is* the
#: work — across ten base seeds the packets E2+E10 simulate at QUICK
#: spread (q3-q1) by 45-75 % of their median (Cubic at 1000 Mbps sends
#: 124 or 94 232 packets depending on where its first "on" falls), a
#: training generation by 108 % — and a timing that must agree between
#: seeds cannot be taken from that.  So the two-sender workloads keep
#: their senders always on, where the packets simulated are set by the
#: scenario, and the jitter keeps every seed a different scenario.
SPEED_JITTER = 0.05

#: ``sweep_many_flows`` keeps the on/off senders and pins their draw
#: instead: ten ``--seed``s then simulate packet counts within 1.4 % (q3-q1).
ONOFF_SEED = 1


class Checked(NamedTuple):
    """What :meth:`check` found: ops attempted, one line per failed op
    (or per broken invariant), and the text the seed-1 digest covers."""

    attempted: int
    failures: List[str]
    canonical: str


def _run_failures(results: Sequence) -> List[str]:
    """Invariants every ``SimTaskResult`` of every workload must meet."""
    failures = []
    for index, out in enumerate(results):
        if not out.ok:
            failures.append(f"task {index}: {out.failure.kind}: "
                            f"{out.failure.message}")
        elif not out.run.bottleneck_utilization <= 1.0 + 1e-9:
            failures.append(f"task {index}: bottleneck_utilization "
                            f"{out.run.bottleneck_utilization!r} > 1")
    return failures


def _run_text(results: Sequence) -> str:
    """Per-task ``RunResult`` fields as canonical JSON."""
    return json.dumps([dataclasses.asdict(out.run) for out in results],
                      sort_keys=True)


class Workload:
    """What every workload need not say: nothing of its own to add to
    the traced ledger, nothing to stop."""

    def layers(self, output) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class Recording(SerialExecutor):
    """The serial executor, keeping what it returned so the checks can
    see per-task results that ``run_experiment`` / the optimizer fold
    away."""

    def __init__(self) -> None:
        self.results: list = []

    def run_batch(self, tasks, progress=None):
        results = super().run_batch(tasks, progress=progress)
        self.results.extend(results)
        return results


def demo_tree() -> WhiskerTree:
    """A 46-leaf rule table with a ~12-deep hot path — the shape
    ``benchmarks/kernel_workloads.demo_tree`` builds (re-stated here
    because importing that module draws 400k random numbers)."""
    tree = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))
    for _ in range(3):
        tree.split(tree.lookup((0.01, 0.01, 0.01, 1.0)))
    return tree


# ----------------------------------------------------------------------
# 1-2, 4: sweeps through run_experiment
# ----------------------------------------------------------------------
def _jittered(spec, seed: int, always_on: bool = True):
    """``spec`` with every cell's link speeds jittered by the seed (see
    :data:`SPEED_JITTER`) and, unless ``always_on`` is false, its senders
    always on; the schemes of one grid point share one network, as in
    the registered spec."""
    build = spec.build
    steady = dict(mean_on_s=0.0, mean_off_s=0.0) if always_on else {}

    def jittered(scheme, point):
        cell = build(scheme, point)
        if cell is None:
            return None
        rng = random.Random(f"{seed}/{spec.name}/{sorted(point.items())}")
        factor = math.exp(rng.uniform(-SPEED_JITTER, SPEED_JITTER))
        config = dataclasses.replace(
            cell.config, **steady,
            link_speeds_mbps=tuple(speed * factor for speed
                                   in cell.config.link_speeds_mbps))
        return dataclasses.replace(cell, config=config)
    return dataclasses.replace(spec, build=jittered)


class _Sweep(Workload):
    """``run_experiment`` over one or more specs, serial."""

    backend = "packet"
    #: ``base_seed`` of every run where the ``--seed`` must not draw it.
    fixed_base_seed: Optional[int] = None

    def __init__(self, seed: int, knobs: dict, workdir: str, tracer):
        self.seed = seed
        self.base_seed = seed if self.fixed_base_seed is None \
            else self.fixed_base_seed
        self.scale: Scale = knobs["scale"]
        self.specs = self._specs(knobs)
        plans = [expand(spec, self.scale)[1] for spec in self.specs]
        self.cells = [len(cells) for cells in plans]
        self.tasks = sum(self.cells) * self.scale.n_seeds
        if tracer is not None:
            self.specs = [tracer.wrap_metrics(spec) for spec in self.specs]
        self.executor = Recording()
        # Warm-up: the first cell of the first spec, one seed.
        cell = plans[0][0].cell
        SerialExecutor().run_batch([SimTask.build(
            cell.config, trees={kind: FAKE_TREE for kind in cell.trees or ()},
            seed=self.base_seed,
            duration_s=self.scale.duration_for(cell.config),
            backend=self.backend)])

    def _specs(self, knobs: dict) -> list:
        raise NotImplementedError

    @staticmethod
    def _trees(spec) -> dict:
        return {asset: FAKE_TREE for asset in spec.assets}

    def timed(self):
        return [run_experiment(spec, self.scale, trees=self._trees(spec),
                               base_seed=self.base_seed,
                               executor=self.executor,
                               backend=self.backend).to_json()
                for spec in self.specs]

    def check(self, output) -> Checked:
        failures = _run_failures(self.executor.results)
        if len(self.executor.results) != self.tasks:
            failures.append(f"{len(self.executor.results)} results for "
                            f"{self.tasks} tasks")
        for spec, cells, text in zip(self.specs, self.cells, output):
            measured = [row for row in json.loads(text)["rows"]
                        if row["scheme"] != spec.reference_scheme]
            if len(measured) < cells:
                failures.append(f"{spec.name}: {len(measured)} rows for "
                                f"{cells} cells")
        return Checked(self.tasks, failures, "\n".join(output))

    def layers(self, output) -> Dict[str, float]:
        return {"experiments.cells": sum(self.cells),
                "experiments.tasks": self.tasks}


class SweepFewFlows(_Sweep):
    """E2 ``link_speed`` + E10 ``ecn``, made steady: 2 flows per task."""

    def _specs(self, knobs):
        return [_jittered(get_experiment(name).spec, self.seed)
                for name in ("link_speed", "ecn")]


class SweepManyFlows(_Sweep):
    """E3 ``multiplexing`` on its registered senders, 1 s on / 1 s off
    and up to 100 per task: the one packet workload where senders idle
    and restart.  The on/off draw is the same at every ``--seed``
    (:data:`ONOFF_SEED`); the seed moves the link speeds only."""

    fixed_base_seed = ONOFF_SEED

    def _specs(self, knobs):
        return [_jittered(get_experiment("multiplexing").spec, self.seed,
                          always_on=False)]


class FluidWide(_Sweep):
    """An ad-hoc 100/1000-sender grid on the fluid backend; every cell's
    seeds fold into one ``simulate_fluid`` call."""

    backend = "fluid"

    def _specs(self, knobs):
        spec = adhoc_spec([Axis.of("n_senders", knobs["senders"])],
                          ("newreno", "cubic", "tao"),
                          base=AdhocBase(link_mbps=15))
        return [dataclasses.replace(spec, assets=("tao",))]


# ----------------------------------------------------------------------
# 3, 5: the Remy search
# ----------------------------------------------------------------------
def _eval_settings(seed: int, knobs: dict) -> EvalSettings:
    return EvalSettings(n_configs=knobs["n_configs"], config_seed=seed,
                        sim_seeds=(seed,), scale=knobs["scale"])


def _training_range() -> ScenarioRange:
    """The ``tao_2x`` training range narrowed to :data:`SPEED_JITTER`
    around its (log) centre, senders always on; ``config_seed`` samples
    the scenarios from it."""
    base = CATALOG["tao_2x"].training
    centre = math.sqrt(base.link_speed_mbps[0] * base.link_speed_mbps[1])
    return dataclasses.replace(
        base, mean_on_s=0.0, mean_off_s=0.0,
        link_speed_mbps=(centre * math.exp(-SPEED_JITTER),
                         centre * math.exp(SPEED_JITTER)))


class TrainGeneration(Workload):
    """``RemyOptimizer.train`` on :func:`_training_range`, serial."""

    def __init__(self, seed: int, knobs: dict, workdir: str, tracer):
        self.executor = Recording()
        self.optimizer = RemyOptimizer(
            _training_range(), _eval_settings(seed, knobs),
            OptimizerSettings(generations=knobs["generations"],
                              max_action_steps=knobs["max_action_steps"]),
            executor=self.executor)
        # Warm-up: the untrained tree on the first sampled config.
        config = self.optimizer.evaluator.configs[0]
        SerialExecutor().run_batch([SimTask.build(
            config, trees={"learner": WhiskerTree()}, seed=seed,
            duration_s=knobs["scale"].duration_for(config))])

    def timed(self):
        return self.optimizer.train()

    def check(self, output) -> Checked:
        tree, log = output
        failures = _run_failures(self.executor.results)
        if len(self.executor.results) != log.evaluations:
            failures.append(f"{len(self.executor.results)} results for "
                            f"{log.evaluations} evaluations")
        if not all(math.isfinite(score) for score in log.scores):
            failures.append(f"non-finite scores {log.scores}")
        canonical = json.dumps({"scores": log.scores,
                                "tree_sizes": log.tree_sizes,
                                "tree": tree.to_json()})
        return Checked(log.evaluations, failures, canonical)


class FluidNarrow(Workload):
    """A fluid-screened ``evaluate_batch`` over neighbour clones of
    leaf 0 of :func:`demo_tree` — 2 flows, 1 seed per fluid call."""

    def __init__(self, seed: int, knobs: dict, workdir: str, tracer):
        self.settings = _eval_settings(seed, knobs)
        self.executor = Recording()
        self.evaluator = TreeEvaluator(
            _training_range(), self.settings,
            executor=self.executor, screen="fluid",
            confirm_top=knobs["confirm_top"])
        base = demo_tree()
        action = base.whiskers()[0].action
        neighbours = [n for scale in (1.0, 4.0)
                      for n in action.neighbors(scale)]
        self.trees = []
        for neighbour in neighbours[:knobs["clones"]]:
            clone = base.clone()
            clone.set_action(0, neighbour)
            self.trees.append(clone)
        # Warm-up: one fluid task of the shape about to be screened.
        config = self.evaluator.configs[0]
        SerialExecutor().run_batch([SimTask.build(
            config, trees={"learner": base}, seed=seed,
            duration_s=knobs["scale"].duration_for(config),
            backend="fluid")])

    def timed(self):
        return self.evaluator.evaluate_batch(self.trees)

    def check(self, output) -> Checked:
        failures = _run_failures(self.executor.results)
        if not all(math.isfinite(score) for score in output):
            failures.append(f"non-finite scores {output}")
        # The batch argmax must be a packet-engine score: re-score the
        # winner on an unscreened evaluator and compare exactly.
        best = max(range(len(output)), key=output.__getitem__)
        exact = TreeEvaluator(_training_range(), self.settings
                              ).evaluate_batch([self.trees[best]])[0]
        if exact != output[best]:
            failures.append(f"argmax {best} scored {output[best]!r}, "
                            f"packet engine says {exact!r}")
        return Checked(self.evaluator.evaluations, failures,
                       json.dumps(output))


# ----------------------------------------------------------------------
# 6: dispatch
# ----------------------------------------------------------------------
def small_tasks(n: int, seed: int) -> List[SimTask]:
    """``n`` distinct ~14 ms tasks in ``bench_executor._grid``'s shape:
    NewReno, 1-2 senders, 4-16 Mbps — always on for 1.5 s where the
    grid had them on half of 2 s, each task's speed jittered by the seed
    so no two results are alike (see :data:`SPEED_JITTER`)."""
    rng = random.Random(seed)
    shapes = [(speed, senders) for speed in (4.0, 8.0, 16.0)
              for senders in (1, 2)]
    tasks = []
    for k in range(n):
        speed, senders = shapes[k % len(shapes)]
        speed *= math.exp(rng.uniform(-SPEED_JITTER, SPEED_JITTER))
        config = NetworkConfig(
            link_speeds_mbps=(speed,), rtt_ms=100.0,
            sender_kinds=("newreno",) * senders,
            mean_on_s=0.0, mean_off_s=0.0, buffer_bdp=5.0)
        tasks.append(SimTask.build(config, seed=seed * 100_003 + k,
                                   duration_s=1.5))
    return tasks


def _spawn_worker(workdir: str) -> "tuple[subprocess.Popen, int]":
    """Start one ``scripts/worker.py`` daemon on an ephemeral loopback
    port; returns the process and the port it announced."""
    process = subprocess.Popen(
        [sys.executable, WORKER_SCRIPT, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=workdir)
    line = process.stdout.readline()
    try:
        return process, int(line.rsplit(":", 1)[1])
    except (IndexError, ValueError):
        process.kill()
        process.wait()
        raise RuntimeError(f"worker did not announce a port: {line!r}")


class DispatchSmallTasks(Workload):
    """Half the tasks through ``executor_for(jobs=2)``, half through two
    loopback ``scripts/worker.py`` daemons, pools warm."""

    JOBS = 2

    def __init__(self, seed: int, knobs: dict, workdir: str, tracer):
        half = knobs["tasks_per_half"]
        tasks = small_tasks(2 * half + 2, seed)
        self.local_tasks = tasks[:half]
        self.remote_tasks = tasks[half:2 * half]
        self.sample_size = knobs["sample"]
        self.tracer = tracer
        self.workers: List[subprocess.Popen] = []
        self.pool = self.remote = None
        self.serial_ms = 0.0
        try:
            started = time.perf_counter()
            self.pool = executor_for(jobs=self.JOBS)
            self.pool.run_batch(tasks[-2:])           # warm both workers
            self.pool_start_s = time.perf_counter() - started
            started = time.perf_counter()
            ports = []
            for _ in range(self.JOBS):
                process, port = _spawn_worker(workdir)
                self.workers.append(process)
                ports.append(port)
            self.remote = executor_for(
                None, workers=[("127.0.0.1", port) for port in ports])
            self.remote.run_batch(tasks[-2:])
            self.connect_s = time.perf_counter() - started
        except BaseException:
            self.close()
            raise

    def timed(self):
        started = time.perf_counter()
        local = self.pool.run_batch(self.local_tasks)
        middle = time.perf_counter()
        remote = self.remote.run_batch(self.remote_tasks)
        self.walls = (middle - started, time.perf_counter() - middle)
        return local + remote

    def check(self, output) -> Checked:
        tasks = self.local_tasks + self.remote_tasks
        failures = _run_failures(output)
        # The head of each half (whole cycles of the six task shapes, so
        # its mean cost is the batch's), re-run serially, must match
        # bitwise.  It is timed with no span open; a traced run repeats
        # it under one, the only place this workload's simulations run
        # in the submitting process.
        half = len(self.local_tasks)
        picks = [start + k for start in (0, half)
                 for k in range(self.sample_size)]
        sample = [tasks[i] for i in picks]
        started = time.perf_counter()
        serial = [exec_task.run_sim_task(task) for task in sample]
        self.serial_ms = (time.perf_counter() - started) * 1e3 \
            / len(sample)
        if self.tracer is not None:
            with self.tracer.root("reference"):
                for task in sample:
                    exec_task.run_sim_task(task)
        for i, reference in zip(picks, serial):
            if output[i].ok and dataclasses.asdict(output[i].run) \
                    != dataclasses.asdict(reference.run):
                failures.append(f"task {i}: dispatched result differs "
                                f"from the serial run")
        return Checked(len(tasks), failures, _run_text(output))

    def layers(self, output) -> Dict[str, float]:
        n = len(self.local_tasks)
        out = {"exec.serial.ms_per_task": self.serial_ms,
               "exec.supervised.pool_start_s": self.pool_start_s,
               "exec.remote.connect_s": self.connect_s}
        for name, wall in zip(("supervised", "remote"), self.walls):
            out[f"exec.{name}.wall_s"] = wall
            out[f"exec.{name}.efficiency"] = \
                self.serial_ms * n / 1e3 / (self.JOBS * wall)
            out[f"exec.{name}.overhead_ms_per_task"] = \
                wall * 1e3 * self.JOBS / n - self.serial_ms
        local = dataclasses.asdict(self.pool.stats)
        remote = dataclasses.asdict(self.remote.stats)
        out["exec.supervised.recoveries"] = sum(local.values())
        out["exec.remote.steals"] = remote.pop("steals")
        out["exec.remote.duplicate_ratio"] = remote.pop("duplicates") / n
        out["exec.remote.recoveries"] = sum(remote.values())
        return out

    def close(self) -> None:
        for executor in (self.pool, self.remote):
            if executor is not None:
                executor.close()
        for process in self.workers:
            process.terminate()
        for process in self.workers:
            process.wait()
            process.stdout.close()
        self.workers = []


# ----------------------------------------------------------------------
# 7-8: the result store
# ----------------------------------------------------------------------
def _base_results(seed: int) -> list:
    """16 real results to file records from: 1-8 flow runs plus two
    50-flow runs, so record sizes span ~0.5-12 KB like a real store."""
    tasks = []
    for k, senders in enumerate((1, 2, 2, 3, 4, 4, 6, 8, 1, 2, 2, 3, 4, 6,
                                 50, 50)):
        config = NetworkConfig(
            link_speeds_mbps=(8.0,), rtt_ms=100.0,
            sender_kinds=("newreno",) * senders, buffer_bdp=5.0)
        tasks.append(SimTask.build(config, seed=seed * 1_009 + k,
                                   duration_s=1.0))
    return SerialExecutor().run_batch(tasks)


def _variant_tasks(n: int, seed: int) -> List[SimTask]:
    """``n`` tasks with distinct fingerprints (seed variants of one
    scenario) to file the base results under."""
    config = NetworkConfig(link_speeds_mbps=(8.0,), rtt_ms=100.0,
                           sender_kinds=("newreno",), buffer_bdp=5.0)
    return [SimTask.build(config, seed=seed * 1_000_003 + k,
                          duration_s=1.0) for k in range(n)]


def _delivered(result) -> int:
    return sum(flow.delivered_bytes for flow in result.run.flows)


class StoreReplay(Workload):
    """Cold opens of a pre-filled store, each an all-hit
    ``StoreExecutor.run_batch`` over a tenth of it."""

    def __init__(self, seed: int, knobs: dict, workdir: str, tracer):
        self.path = os.path.join(workdir, "replay.store")
        self.base = _base_results(seed)
        self.tasks = _variant_tasks(knobs["records"], seed)
        self.keys = [task.fingerprint() for task in self.tasks]
        store = ResultStore(self.path)
        for k, key in enumerate(self.keys):
            store.put(key, self.base[k % len(self.base)])
        # Each cold open serves a different tenth of the store, in an
        # order the seed picks: the working set is 10x the served set.
        order = list(range(len(self.tasks)))
        random.Random(seed).shuffle(order)
        served = len(order) // 10
        starts = [i * len(order) // knobs["opens"]
                  for i in range(knobs["opens"])]
        self.slices = [(order + order)[start:start + served]
                       for start in starts]
        self.hits = self.misses = 0
        # Warm-up: one hit through a fresh open (and the page cache).
        StoreExecutor(SerialExecutor(), store=ResultStore(self.path)
                      ).run_batch(self.tasks[:1])

    def timed(self):
        served = []
        for picks in self.slices:
            executor = StoreExecutor(SerialExecutor(),
                                     store=ResultStore(self.path))
            served.append(executor.run_batch(
                [self.tasks[i] for i in picks]))
            self.hits += executor.hits
            self.misses += executor.misses
        return served

    def check(self, output) -> Checked:
        attempted = sum(len(picks) for picks in self.slices)
        failures = []
        if self.hits != attempted or self.misses:
            failures.append(f"{self.hits} hits / {self.misses} misses "
                            f"for {attempted} tasks")
        served = []
        stored = [dataclasses.asdict(result.run) for result in self.base]
        for picks, results in zip(self.slices, output):
            for i, result in zip(picks, results):
                if not result.ok or dataclasses.asdict(result.run) \
                        != stored[i % len(stored)]:
                    failures.append(f"record {i}: replayed result "
                                    f"differs from the stored one")
                else:
                    served.append((self.keys[i], _delivered(result)))
        return Checked(attempted, failures, json.dumps(served))

    def layers(self, output) -> Dict[str, float]:
        stats = ResultStore(self.path).stats()
        return {"exec.store.bytes_per_record":
                stats.size_bytes / max(stats.records, 1)}


class StoreFill(Workload):
    """Puts into a fresh store, ``evict`` to half, ``verify``."""

    def __init__(self, seed: int, knobs: dict, workdir: str, tracer):
        self.path = os.path.join(workdir, "fill.store")
        self.base = _base_results(seed)
        self.keys = [task.fingerprint()
                     for task in _variant_tasks(knobs["records"], seed)]
        # Warm-up: each base result once into a store of its own, which
        # also sizes the eviction budget at half of what will be put.
        warm = ResultStore(os.path.join(workdir, "warm.store"))
        for key, result in zip(self.keys, self.base):
            warm.put(key, result)
        self.bytes_per_record = warm.stats().size_bytes / len(self.base)
        self.budget = int(self.bytes_per_record * len(self.keys) / 2)

    def timed(self):
        store = ResultStore(self.path)
        for k, key in enumerate(self.keys):
            store.put(key, self.base[k % len(self.base)])
        evicted, _shards = store.evict(self.budget)
        return evicted, store.verify()

    def check(self, output) -> Checked:
        evicted, verified = output
        failures = []
        if verified.corrupt:
            failures.append(f"{verified.corrupt} corrupt records")
        if not 0 < evicted < len(self.keys) \
                or verified.records != len(self.keys) - evicted:
            failures.append(f"evicted {evicted}, {verified.records} of "
                            f"{len(self.keys)} records remain")
        if verified.size_bytes > self.budget:
            failures.append(f"{verified.size_bytes} bytes after evict("
                            f"{self.budget})")
        # Which records go depends on the second each put landed in, so
        # the digest covers what was written, not what survived.
        canonical = json.dumps({
            "puts": len(self.keys), "budget": self.budget,
            "keys": hashlib.sha256("".join(self.keys).encode()
                                   ).hexdigest()})
        return Checked(len(self.keys), failures, canonical)

    def layers(self, output) -> Dict[str, float]:
        return {"exec.store.bytes_per_record": self.bytes_per_record}


#: name -> class, in the ledger's order.  Why each was chosen is its
#: ``why`` line in ``BENCHMARK.json`` (and README.md at length).
WORKLOADS = {
    "sweep_few_flows": SweepFewFlows,
    "sweep_many_flows": SweepManyFlows,
    "train_generation": TrainGeneration,
    "fluid_wide": FluidWide,
    "fluid_narrow": FluidNarrow,
    "dispatch_small_tasks": DispatchSmallTasks,
    "store_replay": StoreReplay,
    "store_fill": StoreFill,
}
