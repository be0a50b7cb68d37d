"""Tier-1 smoke test of the end-to-end ledger (``--size smoke``).

Runs every workload once, traced, through the same subprocess path the
benchmark uses, and checks the ledger's own contract: the names it
emits are exactly the ones ``BENCHMARK.json`` declares, span self times
account for the traced wall, outputs verify, a wrong pinned digest or
a repetition that dies fails every op, and ``compare`` refuses counts
that differ.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import e2e

sys.path.insert(0, os.path.join(e2e.ROOT, "src"))   # as ``_rep`` does
from workloads import SIZES, WORKLOADS, demo_tree    # noqa: E402

with open(e2e.EXPECTED) as _fh:
    EXPECTED = json.load(_fh)
#: Digests are pinned for one numeric environment; elsewhere the
#: committed ones must be skipped, and said to be.
SAME_ENVIRONMENT = all(
    EXPECTED["recorded_with"].get(key) == value
    for key, value in e2e.numeric_environment().items())
BOOK = e2e.ledger()
NAMES = [entry["name"] for entry in BOOK["workloads"]]
PER_LAYER = {entry["name"] for entry in BOOK["per_layer"]}


def test_ledger_declares_what_the_code_emits():
    assert NAMES == list(WORKLOADS)
    assert all(set(sizes) == set(NAMES) for sizes in SIZES.values())
    assert "setup_s" in {m["name"] for m in BOOK["end_to_end"]}
    assert BOOK["command"][1].startswith(BOOK["paths"][0] + "/")


@pytest.mark.parametrize("name", NAMES)
def test_workload_traced(name, tmp_path):
    trace_file = tmp_path / f"trace_{name}.json"
    report = e2e.run_rep(name, 1, "smoke", True, e2e.EXPECTED,
                         str(trace_file))
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] \
        == EXPECTED["digests"]["smoke"][name]["ops"]
    assert report["digest_checked"] is SAME_ENVIRONMENT
    # Only names from the ledger, every one of them, all finite.
    assert set(report["layers"]) == PER_LAYER
    assert all(math.isfinite(v) and v >= 0
               for v in report["layers"].values()), report["layers"]
    # Self times (unattributed included) sum to the traced wall.
    assert report["self_sum_s"] == pytest.approx(report["wall_s"],
                                                 rel=0.05)
    trace = json.loads(trace_file.read_text())
    assert trace["columns"] == ["name", "start", "end", "parent", "task"]
    assert trace["spans"][0][0] == "timed"
    assert all(span[1] <= span[2] for span in trace["spans"])


def test_measure_prints_the_contract_object():
    done = subprocess.run(
        [sys.executable, e2e.__file__, "measure", "--workload",
         "store_fill", "--seed", "2", "--seconds", "0", "--trace", "0",
         "--size", "smoke"], capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == e2e.MIN_REPS \
        * SIZES["smoke"]["store_fill"]["records"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in BOOK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _expected_here(tmp_path, sha256):
    """An expected file recorded "here", so its digest is enforced on
    whatever machine the test runs."""
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps({
        "recorded_with": e2e.numeric_environment(),
        "digests": {"smoke": {"store_fill": {"sha256": sha256,
                                             "ops": 160}}}}))
    return str(wrong)


def test_corrupted_digest_fails_every_op(tmp_path):
    clean = e2e.run_rep("store_fill", 1, "smoke", False, "")
    assert clean["failed"] == 0 and not clean["digest_checked"]
    right = _expected_here(tmp_path, clean["digest"])
    report = e2e.run_rep("store_fill", 1, "smoke", False, right)
    assert report["failed"] == 0 and report["digest_checked"]
    wrong = _expected_here(tmp_path, "0" * 64)
    report = e2e.run_rep("store_fill", 1, "smoke", False, wrong)
    assert report["digest_checked"]
    assert report["failed"] == report["attempted"] == 160


def test_dead_repetition_fails_every_op(tmp_path, capfd):
    # One repetition, not 60 s of them: measuring stops at the minimum
    # once one has died.  With no op count pinned, it is one failed op.
    report, = e2e.measure("no_such_workload", 1, 60.0, "smoke",
                          _expected_here(tmp_path, "0" * 64), min_reps=1)
    assert report["died"] and report["failed"] == report["attempted"] == 1
    assert "KeyError" in capfd.readouterr().err
    assert all(not values
               for values in e2e.end_to_end([report]).values())


def test_demo_tree_is_the_kernel_benchmarks():
    sys.path.insert(0, os.path.join(e2e.ROOT, "benchmarks"))
    try:
        import kernel_workloads
    finally:
        sys.path.pop(0)
    assert demo_tree().to_json() == kernel_workloads.demo_tree().to_json()


def _run_file(tmp_path, name, **changes):
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(changes.pop("layers", {}))
    entry = {"reps": {m["name"]: [1.0, 1.01, 0.99]
                      for m in BOOK["end_to_end"]},
             "attempted": 30, "failed": 0, "layers": layers}
    run = {"seed": 1, "size": "smoke", "workloads": {"store_fill": entry}}
    run.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(run))
    return str(path)


def _compare(a, b):
    return e2e.main(["compare", a, b])


def test_compare_gates_counts_and_missing_workloads(tmp_path, capsys):
    base = _run_file(tmp_path, "a.json")
    assert _compare(base, _run_file(tmp_path, "same.json")) == 0
    moved = _run_file(tmp_path, "moved.json", layers={"sim.events": 7})
    assert _compare(base, moved) == 1
    assert "sim.events: count differs" in capsys.readouterr().out
    # Scheduling-dependent counts may differ; so may any at another seed.
    stolen = _run_file(tmp_path, "stolen.json",
                       layers={"exec.remote.steals": 3})
    assert _compare(base, stolen) == 0
    other_seed = _run_file(tmp_path, "seed2.json", seed=2,
                           layers={"sim.events": 7})
    assert _compare(base, other_seed) == 0
    fewer = _run_file(tmp_path, "fewer.json", workloads={})
    assert _compare(base, fewer) == 1
    assert "one side only" in capsys.readouterr().out
    assert set(e2e.EXACT) <= PER_LAYER


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00]
    assert e2e.verdict(base, [1.02, 1.03, 1.01, 1.02], "lower", 0.1) == "ok"
    assert e2e.verdict(base, [1.2, 1.21, 1.19, 1.2], "lower", 0.1) == "worse"
    assert e2e.verdict(base, [0.8, 0.81, 0.79, 0.8], "higher", 0.1) \
        == "worse"
    # Spread wider than the bound: neither better nor worse is claimed,
    assert e2e.verdict(base, [0.8, 1.3, 1.0, 1.1], "lower", 0.1) \
        == "unresolved"
    # unless every run of B beats every run of A.
    assert e2e.verdict(base, [0.5, 0.9, 0.6, 0.7], "lower", 0.1) == "ok"
