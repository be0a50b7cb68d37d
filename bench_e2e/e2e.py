#!/usr/bin/env python3
"""End-to-end + per-layer benchmark ledger (see README.md beside this).

Three commands::

    python3 bench_e2e/e2e.py measure --workload NAME --seed N \\
        --seconds S --trace 0|1
    python3 bench_e2e/e2e.py run [--workload NAME ...] [--seed N] \\
        [--reps K] [--trace] [--out DIR]
    python3 bench_e2e/e2e.py compare A/e2e.json B/e2e.json

``measure`` is the ``BENCHMARK.json`` command: one workload, repetitions
until ``--seconds`` of timed region have been measured, one JSON object
as the last line.  ``run`` is the same measurement for people: every
workload, every metric by name with its unit, provenance, and (with
``--trace``) the per-layer ledger and ``trace_<workload>.json`` files.
``compare`` applies the bounds of ``BENCHMARK.json`` to two ``run``
outputs.

Every repetition is a fresh subprocess (``_rep``), so set-up, imports
and peak memory are measured each time and nothing leaks between
workloads; this process only spawns, reaps (``wait4`` gives the whole
tree's CPU and peak RSS) and takes medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import nullcontext
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "e2e_expected.json")
#: Stores, worker cwd and TMPDIR live here: the benchmark writes
#: nowhere outside its checkout.
WORK = os.path.join(HERE, ".work")
MIN_REPS = 3


def ledger() -> dict:
    """``BENCHMARK.json``: the one place names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def numeric_environment() -> dict:
    """What a pinned digest is only valid under: the packet engine's
    bits depend on libm, the fluid backend's on numpy's build and the
    SIMD paths it dispatches to."""
    import numpy
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:                 # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    simd = ",".join(sorted(k for k, on in __cpu_features__.items() if on))
    return {"python": platform.python_version(),
            "libc": "-".join(platform.libc_ver()),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "simd": hashlib.sha1(simd.encode()).hexdigest()[:12]}


def provenance() -> dict:
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", "-C", ROOT, *args], capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""
    out = numeric_environment()
    out.update(
        git_commit=git("rev-parse", "HEAD") or "unknown",
        # Dirty means the *program* differs from the commit; the
        # benchmark's own files are what this change adds.
        git_dirty=bool(git("status", "--porcelain", "--", "src",
                           "scripts")),
        nproc=os.cpu_count(), loadavg_1min=os.getloadavg()[0])
    return out


def print_provenance() -> dict:
    info = provenance()
    print("provenance: " + " ".join(f"{k}={v}" for k, v in info.items()))
    if info["loadavg_1min"] > 0.5 * info["nproc"]:
        print(f"warning: 1-min loadavg {info['loadavg_1min']:.2f} > "
              f"0.5 x nproc ({info['nproc']}); timings will be noisy")
    return info


# ----------------------------------------------------------------------
# One repetition, in this process (the ``_rep`` command)
# ----------------------------------------------------------------------
def pinned(expected_path: str, size: str, workload: str) -> dict:
    """What ``expected_path`` records for one workload: ``ops``, and
    ``sha256`` only where it can be enforced — float bits differ across
    numeric environments, so elsewhere the digest is dropped.  Empty
    when there is no record."""
    try:
        with open(expected_path) as fh:
            expected = json.load(fh)
    except FileNotFoundError:
        return {}
    entry = dict(expected["digests"].get(size, {}).get(workload, {}))
    recorded = expected["recorded_with"]
    if any(recorded.get(key) != value
           for key, value in numeric_environment().items()):
        entry.pop("sha256", None)
    return entry


def require_program() -> None:
    """Exit (code 2) where there is nothing to measure, before any
    repetition is spawned: a repetition that dies counts as failed ops,
    a missing program is no result at all."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        raise SystemExit(2)


def rep_main(args: argparse.Namespace) -> int:
    require_program()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(m["name"] for m in ledger()["per_layer"])
        tracer.install()
    from workloads import SIZES, WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    os.environ["TMPDIR"] = workdir
    workload = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            workload = WORKLOADS[args.workload](
                args.seed, SIZES[args.size][args.workload], workdir,
                tracer)
            timed_start = time.perf_counter()
            with tracer.root("timed") if tracer else nullcontext():
                output = workload.timed()
            wall = time.perf_counter() - timed_start
            checked = workload.check(output)
            layers = workload.layers(output) if tracer else {}
        failures = list(checked.failures)
        failures += [f"RuntimeWarning at {w.filename}:{w.lineno}: "
                     f"{w.message}" for w in caught
                     if issubclass(w.category, RuntimeWarning)
                     and f"{os.sep}repro{os.sep}" in w.filename]
        digest = hashlib.sha256(checked.canonical.encode()).hexdigest()
        failed = min(len(failures), checked.attempted)
        want = pinned(args.expected, args.size, args.workload).get(
            "sha256") if args.seed == 1 else None
        if want is not None and want != digest:
            failures.append(f"digest {digest} != pinned {want}")
            failed = checked.attempted          # every op is suspect
        report = {"wall_s": wall, "timed_start": timed_start,
                  "attempted": checked.attempted, "failed": failed,
                  "failures": failures[:5], "digest": digest,
                  "digest_checked": want is not None}
        if tracer is not None:
            metrics = tracer.metrics("timed")
            metrics.update(layers)
            report["layers"] = metrics
            timed = tracer.root_span("timed")
            report["self_sum_s"] = sum(
                own for span, own in zip(tracer.spans, tracer.self_times())
                if _under(tracer.spans, span, timed))
            if args.trace_file:
                with open(args.trace_file, "w") as fh:
                    json.dump(tracer.dump(), fh)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _under(spans: list, span: list, root: list) -> bool:
    """Is ``span`` the root or one of its descendants?"""
    while span is not root and span[3] >= 0:
        span = spans[span[3]]
    return span is root


# ----------------------------------------------------------------------
# Spawning repetitions (the measuring side)
# ----------------------------------------------------------------------
def run_rep(workload: str, seed: int, size: str, trace: bool,
            expected: str, trace_file: Optional[str] = None) -> dict:
    """One repetition in a fresh subprocess; returns its report plus
    the numbers only the parent can take (set-up time from spawn, CPU
    and peak RSS of the whole tree from ``wait4``).  A repetition that
    dies (an exception, a signal) reports every op failed and no
    timings."""
    command = [sys.executable, os.path.abspath(__file__), "_rep",
               "--workload", workload, "--seed", str(seed),
               "--size", size, "--expected", expected]
    if trace:
        command.append("--trace")
    if trace_file:
        command += ["--trace-file", trace_file]
    spawned = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    text = process.stdout.read()
    process.stdout.close()
    _pid, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0:
        ops = pinned(expected, size, workload).get("ops", 1)
        return {"died": True, "attempted": ops, "failed": ops,
                "digest": "", "digest_checked": False,
                "failures": [f"repetition exited with code "
                             f"{process.returncode} (traceback above)"]}
    report = json.loads(text.strip().splitlines()[-1])
    report["setup_s"] = report.pop("timed_start") - spawned
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    report["tasks_per_s"] = report["attempted"] / report["wall_s"]
    return report


def measure(workload: str, seed: int, seconds: float, size: str,
            expected: str, min_reps: int = MIN_REPS) -> List[dict]:
    """Untraced repetitions until ``seconds`` of timed region (and at
    least ``min_reps``, so every median has an odd sample to stand on);
    no more than ``min_reps`` once one has died."""
    reps: List[dict] = []
    while len(reps) < min_reps or (
            not any(rep.get("died") for rep in reps)
            and sum(rep["wall_s"] for rep in reps) < seconds):
        reps.append(run_rep(workload, seed, size, False, expected))
    return reps


def traced(workload: str, seed: int, size: str, expected: str,
           trace_file: Optional[str] = None) -> dict:
    """One untraced and one traced repetition; the traced report gains
    ``trace.overhead_ratio`` = traced wall / untraced wall.  Returns the
    report of whichever died, if one did."""
    plain = run_rep(workload, seed, size, False, expected)
    if plain.get("died"):
        return plain
    report = run_rep(workload, seed, size, True, expected, trace_file)
    if not report.get("died"):
        report["layers"]["trace.overhead_ratio"] = \
            report["wall_s"] / plain["wall_s"]
    return report


def end_to_end(reps: List[dict]) -> Dict[str, List[float]]:
    """Each end-to-end metric's value in every repetition that lived."""
    return {metric["name"]: [rep[metric["name"]] for rep in reps
                             if not rep.get("died")]
            for metric in ledger()["end_to_end"]}


def measure_main(args: argparse.Namespace) -> int:
    book = ledger()
    require_program()
    if args.trace:
        reps = [traced(args.workload, args.seed, args.size, args.expected)]
        values = reps[0].get("layers")
        units = {m["name"]: m["unit"] for m in book["per_layer"]}
    else:
        reps = measure(args.workload, args.seed, args.seconds, args.size,
                       args.expected)
        values = {name: statistics.median(each) for name, each
                  in end_to_end(reps).items() if each}
        units = {m["name"]: m["unit"] for m in book["end_to_end"]}
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        for line in rep["failures"]:
            print(f"failure: {line}", file=sys.stderr)
    if not values:                      # nothing lived to be measured
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


# ----------------------------------------------------------------------
# run / compare / record: the same measurement, for people
# ----------------------------------------------------------------------
def run_main(args: argparse.Namespace) -> int:
    require_program()
    book = ledger()
    names = args.workload or [w["name"] for w in book["workloads"]]
    info = print_provenance()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    results: Dict[str, dict] = {}
    for name in names:
        reps = measure(name, args.seed, 0.0, args.size, args.expected,
                       min_reps=args.reps)
        report = None
        if args.trace:
            report = traced(name, args.seed, args.size, args.expected,
                            args.out and os.path.join(
                                args.out, f"trace_{name}.json"))
        every = reps + [report] if report else reps
        attempted = sum(rep["attempted"] for rep in every)
        failed = sum(rep["failed"] for rep in every)
        entry = {"reps": end_to_end(reps),
                 "attempted": attempted, "failed": failed,
                 "digest": reps[0]["digest"]}
        checked = "checked against" if reps[0]["digest_checked"] \
            else "not checked: no record for this seed, size and " \
                 "numeric environment in"
        print(f"\n{name}  ({reps[0]['attempted']} ops/rep, "
              f"{len(reps)} reps, digest {reps[0]['digest'][:12]} "
              f"{checked} {os.path.basename(args.expected)})")
        for metric in book["end_to_end"]:
            values = entry["reps"][metric["name"]]
            if not values:
                print(f"  {metric['name']:<14}{'-':>12}  every "
                      f"repetition died")
                continue
            print(f"  {metric['name']:<14}"
                  f"{statistics.median(values):>12.4f} {metric['unit']:<4}"
                  f"  min {min(values):.4f}  max {max(values):.4f}"
                  f"  n={len(values)}")
        print(f"  {'failed_share':<14}{failed / attempted:>12.4f} ratio"
              f" ({failed} of {attempted} ops)")
        for rep in every:
            for line in rep["failures"]:
                print(f"  failure: {line}")
        if report and not report.get("died"):
            entry["layers"] = report["layers"]
            entry["traced_wall_s"] = report["wall_s"]
            entry["self_sum_s"] = report["self_sum_s"]
            print(f"  traced: wall {report['wall_s']:.4f} s, span self "
                  f"times sum to {report['self_sum_s']:.4f} s")
            for metric in book["per_layer"]:
                value = report["layers"][metric["name"]]
                if value:
                    print(f"    {metric['name']:<38}{value:>16.6g} "
                          f"{metric['unit']}")
        results[name] = entry
    if args.out:
        with open(os.path.join(args.out, "e2e.json"), "w") as fh:
            json.dump({"provenance": info, "seed": args.seed,
                       "size": args.size, "workloads": results}, fh,
                      indent=1)
    return 1 if any(entry["failed"] for entry in results.values()) else 0


def quartiles(values: List[float]) -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for B against base A."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if all(sign * y < sign * x for x in a for y in b):
        return "ok"                      # every B run beats every A run
    spread = max((q[2] - q[0]) / abs(q[1])
                 for q in (quartiles(a), quartiles(b)))
    if spread > bound:
        return "unresolved"
    return "worse" if sign * (med_b - med_a) > bound * abs(med_a) else "ok"


#: Per-layer metrics that count what the program did, not how the
#: machine scheduled it: two traced runs of one commit, seed and size
#: must agree on them exactly (steals and recoveries depend on timing).
EXACT = (
    "experiments.cells", "experiments.tasks", "sim.events",
    "sim.pkts_delivered", "sim.pkts_sent", "sim.drops",
    "sim.retransmissions", "sim.timeouts", "remy.search.tasks_requested",
    "remy.search.evaluations", "remy.screen.fluid_tasks",
    "remy.screen.packet_confirms", "sim.fluid.calls", "sim.fluid.steps",
    "sim.fluid.lane_steps", "exec.store.records_parsed_per_hit")


def compare_main(args: argparse.Namespace) -> int:
    with open(args.a) as fh:
        run_a = json.load(fh)
    with open(args.b) as fh:
        run_b = json.load(fh)
    a, b = run_a["workloads"], run_b["workloads"]
    same_input = all(run_a[key] == run_b[key] for key in ("seed", "size"))
    if not same_input:
        print("seeds or sizes differ: exact counts are not compared")
    book = ledger()
    bad = 0
    print(f"{'workload':<22}{'metric':<14}{'A median [q1,q3]':>30}"
          f"{'B median [q1,q3]':>30}{'B/A':>8}{'bound':>7}  verdict")
    for name in sorted(set(a) ^ set(b)):
        bad += 1
        print(f"{name:<22}measured on one side only")
    for name in a:
        if name not in b:
            continue
        for metric in book["end_to_end"]:
            va = a[name]["reps"][metric["name"]]
            vb = b[name]["reps"][metric["name"]]
            if not va or not vb:
                bad += 1
                print(f"{name:<22}{metric['name']:<14}every repetition "
                      f"died on {'A' if not va else 'B'}")
                continue
            qa, qb = quartiles(va), quartiles(vb)
            result = verdict(va, vb, metric["better"], metric["bound"])
            bad += result != "ok"
            print(f"{name:<22}{metric['name']:<14}"
                  f"{qa[1]:>12.4f} [{qa[0]:.4f},{qa[2]:.4f}]".ljust(66)
                  + f"{qb[1]:>12.4f} [{qb[0]:.4f},{qb[2]:.4f}]".ljust(30)
                  + f"{qb[1] / qa[1]:>8.3f}{metric['bound']:>7.2f}  "
                  f"{result}  (base A, n={len(va)}/{len(vb)})")
        for side, entry in (("A", a[name]), ("B", b[name])):
            if entry["failed"]:
                bad += 1
                print(f"{name:<22}failed_share  {side}: {entry['failed']}"
                      f" of {entry['attempted']} ops failed")
        if same_input and "layers" in a[name] and "layers" in b[name]:
            for key in EXACT:
                if a[name]["layers"][key] != b[name]["layers"][key]:
                    bad += 1
                    print(f"{name:<22}{key}: count differs, A "
                          f"{a[name]['layers'][key]} B "
                          f"{b[name]['layers'][key]}")
    return 1 if bad else 0


def record_main(args: argparse.Namespace) -> int:
    """Re-pin ``e2e_expected.json`` from this checkout (seed 1)."""
    require_program()
    digests: Dict[str, dict] = {}
    for size in ("bench", "smoke"):
        digests[size] = {}
        for entry in ledger()["workloads"]:
            first, second = (run_rep(entry["name"], 1, size, False,
                                     "") for _ in range(2))
            if first["digest"] != second["digest"] or first["failed"]:
                raise SystemExit(f"{entry['name']} ({size}): digest not "
                                 f"stable or ops failed: {first}")
            digests[size][entry["name"]] = {
                "sha256": first["digest"], "ops": first["attempted"]}
    with open(EXPECTED, "w") as fh:
        json.dump({"recorded_with": provenance(), "digests": digests},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--size", choices=("bench", "smoke"),
                         default="bench")
        sub.add_argument("--expected", default=EXPECTED,
                         help="pinned seed-1 digests (default: the "
                              "committed e2e_expected.json)")

    sub = commands.add_parser("measure", help="the BENCHMARK.json command")
    sub.add_argument("--workload", required=True)
    sub.add_argument("--seconds", type=float, default=9.0)
    sub.add_argument("--trace", type=int, choices=(0, 1), default=0)
    common(sub)
    sub.set_defaults(fn=measure_main)

    sub = commands.add_parser("run", help="every workload, for people")
    sub.add_argument("--workload", action="append")
    sub.add_argument("--reps", type=int, default=MIN_REPS)
    sub.add_argument("--trace", action="store_true")
    sub.add_argument("--out", metavar="DIR")
    common(sub)
    sub.set_defaults(fn=run_main)

    sub = commands.add_parser("compare", help="apply the bounds to two "
                                              "run outputs (base: A)")
    sub.add_argument("a")
    sub.add_argument("b")
    sub.set_defaults(fn=compare_main)

    sub = commands.add_parser("record", help="re-pin e2e_expected.json")
    sub.set_defaults(fn=record_main)

    sub = commands.add_parser("_rep")       # one repetition, in-process
    sub.add_argument("--workload", required=True)
    sub.add_argument("--trace", action="store_true")
    sub.add_argument("--trace-file")
    common(sub)
    sub.set_defaults(fn=rep_main)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
