"""Byte-level parity of the experiment tables.

``tests/golden_tables/*.txt`` were generated by the *pre-spec-engine*
experiment code (each module's hand-rolled sweep loop) at
``PARITY_SCALE`` with the stand-in rule table.  This suite asserts that
every registered spec's ``table`` of a :func:`run_experiment` pass
reproduces its file byte-for-byte — the contract that neither the api
port nor the removal of the per-module result types changed a simulated
cell, a seed assignment, a score, or a character of formatting.

It also drives ``scripts/run_experiments.py --fake-taos`` over the same
simulations (served from a shared in-memory cache) and finds every
golden in the report it writes, so the CLI cannot drift from the specs.
"""

import importlib.util
import pathlib

import pytest

from repro.exec import CachingExecutor

_HERE = pathlib.Path(__file__).resolve().parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load("golden_tables_regen", _HERE / "golden_tables" / "regen.py")


def _golden(name):
    return (_HERE / "golden_tables" / f"{name}.txt").read_text()


@pytest.fixture(scope="module")
def executor():
    """Memoizes the parity simulations for the CLI pass."""
    return CachingExecutor()


@pytest.fixture(scope="module")
def tables(executor):
    """One engine pass for the whole suite, computed lazily so plain
    collection (or a deselecting run) never pays the ~12s of
    simulation."""
    return regen.tables(executor)


def test_every_paper_table_is_pinned():
    assert sorted(regen.TABLE_NAMES) == sorted(
        path.stem for path in (_HERE / "golden_tables").glob("*.txt"))


@pytest.mark.parametrize("name", sorted(regen.TABLE_NAMES))
def test_table_matches_pre_port_golden(name, tables):
    assert tables[name] + "\n" == _golden(name), (
        f"{name} drifted from the pre-spec-engine table; regenerate "
        "tests/golden_tables/ only if the change is intentional")


def test_registry_render_path_matches_golden(tables, executor,
                                             monkeypatch, tmp_path):
    """The CLI emits the very same bytes for every sweep entry."""
    from repro.core import scale as scale_module

    run_experiments = _load(
        "run_experiments",
        _HERE.parent / "scripts" / "run_experiments.py")
    monkeypatch.setitem(scale_module.NAMED_SCALES, "quick",
                        regen.PARITY_SCALE)
    monkeypatch.setattr(run_experiments, "executor_from_args",
                        lambda args: executor)
    misses = executor.misses
    report = tmp_path / "report.md"
    assert run_experiments.main(
        ["--scale", "quick", "--fake-taos", "-o", str(report),
         "--only", *regen.TABLE_NAMES]) == 0
    assert executor.misses == misses    # the same cells, all cached
    text = report.read_text()
    assert text.count("\n### ") == len(regen.TABLE_NAMES)
    for name in regen.TABLE_NAMES:
        assert f"\n```\n{_golden(name)}```\n" in text, name
