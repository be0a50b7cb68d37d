"""Smoke tests for the experiment modules at micro scale.

These verify the experiment plumbing — each spec through
``run_experiment``, its rows, its table, and the module functions the
``benchmarks/bench_fig*.py`` shape assertions are written in — rather
than paper shapes, which the benchmark harness owns.  Tao-dependent
experiments substitute a tiny hand-built rule table so the tests do not
depend on trained assets (the benchmarks skip without them, so this is
the only place their helpers run in tier 1).
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core.scale import Scale
from repro.experiments import (calibration, diversity, link_speed,
                               multiplexing, rtt, signals, structure,
                               tcp_awareness)
from repro.experiments.api import FAKE_TREE, run_experiment
from repro.remy.memory import SIGNAL_NAMES

MICRO = Scale(duration_s=3.0, packet_budget=4_000, min_duration_s=2.0,
              n_seeds=1, sweep_points=2)


def run(module):
    """The module's spec at MICRO scale, every asset faked."""
    return run_experiment(
        module.SPEC, scale=MICRO,
        trees={asset: FAKE_TREE for asset in module.SPEC.assets})


class TestCalibration:
    def test_runs_and_formats(self):
        result = run(calibration)
        assert result.schemes() == ["tao", "cubic", "cubic_sfqcodel",
                                    "omniscient"]
        assert result.one("omniscient")["median_throughput_bps"] \
            == pytest.approx(24e6)
        assert 0 < calibration.throughput_vs_omniscient(result, "tao")
        assert calibration.throughput_vs_omniscient(
            result, "omniscient") == 1.0
        text = calibration.SPEC.render(result)
        assert "omniscient" in text and "cubic" in text


class TestLinkSpeed:
    def test_sweep_is_log_spaced(self):
        speeds = link_speed.sweep_speeds(4)
        assert speeds[0] == pytest.approx(1.0)
        assert speeds[-1] == pytest.approx(1000.0)
        ratios = [b / a for a, b in zip(speeds, speeds[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)
        with pytest.raises(ValueError):
            link_speed.sweep_speeds(1)

    def test_runs_with_fake_trees(self):
        result = run(link_speed)
        assert {"omniscient", "cubic"} <= set(result.schemes())
        narrow = list(result.select("tao_2x"))
        assert len(narrow) == 2
        # in-range bookkeeping matches the declared ranges
        for row in narrow:
            expected = 22.0 <= row["speed_mbps"] <= 44.0
            assert row["in_training_range"] == expected
        # 1 and 1000 Mbps are both outside 22-44, inside 1-1000
        assert link_speed.mean_in_range(result, "tao_2x") \
            == float("-inf")
        wide = [row["normalized_objective"]
                for row in result.select("tao_1000x")]
        assert link_speed.mean_in_range(result, "tao_1000x") \
            == pytest.approx(sum(wide) / len(wide))
        assert "Figure 2" in link_speed.SPEC.render(result)


class TestMultiplexing:
    def test_sweep_unique_and_covers_range(self):
        counts = multiplexing.sweep_senders(5)
        assert counts[0] == 1 and counts[-1] == 100
        assert len(set(counts)) == len(counts)

    def test_runs_with_fake_trees(self):
        result = run(multiplexing)
        assert {row["buffer_case"] for row in result.rows} \
            == {"5bdp", "nodrop"}
        high = list(result.select("tao_mux_1_2", buffer_case="nodrop",
                                  n_senders=100))
        assert len(high) == 1 and not high[0]["in_training_range"]
        assert "Figure 3" in multiplexing.SPEC.render(result)


class TestRtt:
    def test_sweep_includes_150(self):
        assert 150.0 in rtt.sweep_rtts(4)
        assert 150.0 in rtt.sweep_rtts(7)
        assert rtt.sweep_rtts(5)[0] == pytest.approx(1.0)

    def test_runs_with_fake_trees(self):
        result = run(rtt)
        assert any(row["in_training_range"]
                   for row in result.select("tao_rtt_150"))
        assert "Figure 4" in rtt.SPEC.render(result)


class TestStructure:
    def test_pairs_cover_boundaries(self):
        pairs = structure.sweep_speed_pairs(3)
        assert (10.0, 10.0) in pairs
        assert any(faster == 100.0 for _, faster in pairs)
        assert all(slower <= faster for slower, faster in pairs)

    def test_runs_with_fake_trees(self):
        result = run(structure)
        assert list(result.select("omniscient"))
        assert structure.mean_throughput(result, "cubic") > 0
        assert structure.mean_throughput(result, "no_such_scheme") == 0
        # Identical fake trees: the two "Taos" differ in nothing.
        assert structure.simplification_penalty(result) == 0.0
        assert "Figure 6" in structure.SPEC.render(result)


class TestTcpAwareness:
    def test_runs_with_fake_trees(self):
        result = run(tcp_awareness)
        assert result.schemes() == list(tcp_awareness.CELLS)
        assert result.one("naive_homogeneous",
                          kind="learner")["n_samples"] >= 1
        assert [row["kind"]
                for row in result.select("newreno_only")] == ["newreno"]
        assert {row["kind"]
                for row in result.select("aware_vs_newreno")} \
            == {"learner", "newreno"}
        assert "Figure 7" in tcp_awareness.SPEC.render(result)

    def test_queue_trace(self):
        trace = tcp_awareness.run_queue_trace(
            tree=FAKE_TREE, duration_s=4.0, tcp_on_at=1.0,
            tcp_off_at=2.0)
        assert len(trace.times) == len(trace.queue_packets)
        assert trace.tcp_interval == (1.0, 2.0)
        assert trace.mean_queue(0.0, 4.0) >= 0.0


class TestDiversity:
    def test_runs_with_fake_trees(self):
        result = run(diversity)
        for kind in ("learner", "peer"):
            row = result.one("coopt_mixed", kind=kind)
            assert row["median_throughput_bps"] >= 0
            assert row["median_delay_s"] >= 0
        text = diversity.SPEC.render(result)
        assert "Figure 9" in text and "Del. sender [co-opt]" in text


class TestSignals:
    def test_runs_with_fake_trees(self):
        result = run(signals)
        assert len(result.rows) == 5
        # Identical trees: every knockout scores exactly like the full
        # variant (common random numbers), so all drops are zero.
        for signal in SIGNAL_NAMES:
            assert signals.drop(result, signal) == pytest.approx(0.0)
        assert sorted(signals.ranking(result)) == sorted(SIGNAL_NAMES)
        assert "section 3.4" in signals.SPEC.render(result)


def _load_script(name):
    """Import a scripts/*.py file (scripts/ is not a package)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / name
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFluidBackendCli:
    """One run path for both backends: ``--backend fluid`` prints the
    paper-shaped tables and survives the experiment it cannot run."""

    def test_fluid_report_has_paper_table_and_skips_ecn(
            self, tmp_path, monkeypatch, capsys):
        from repro.core import scale as scale_module
        monkeypatch.setitem(scale_module.NAMED_SCALES, "quick", MICRO)
        run_experiments = _load_script("run_experiments.py")
        report = tmp_path / "report.md"
        assert run_experiments.main(
            ["--scale", "quick", "--backend", "fluid", "--fake-taos",
             "--only", "calibration", "ecn", "queue_trace",
             "-o", str(report)]) == 0
        text = report.read_text()
        assert "Calibration experiment (Table 1 / Figure 1)" in text
        assert "vs omniscient" in text
        skipped = [line for line in text.splitlines()
                   if line.startswith("SKIPPED: ")]
        assert len(skipped) == 2
        assert "custom runner requires the packet backend" in skipped[0]
        assert "'pcc' is packet-only" in skipped[1]

    def test_sweep_refuses_packet_only_scheme_in_one_line(self, capsys):
        sweep = _load_script("sweep.py")
        assert sweep.main(["--axis", "rtt_ms=50,100", "--scale", "quick",
                           "--backend", "fluid",
                           "--schemes", "cubic,pcc"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "'pcc' is packet-only" in captured.err
        assert "Traceback" not in captured.err

    def test_sweep_names_the_missing_tree_not_a_missing_port(
            self, capsys, monkeypatch):
        """A rule-table kind with no tree behind it is refused for that
        reason.  ``--schemes`` reads any unregistered name as an asset,
        so registering the name is the one way the CLI reaches it."""
        from repro.protocols import registry
        monkeypatch.setitem(registry._EXTRA, "learner", None)
        sweep = _load_script("sweep.py")
        assert sweep.main(["--axis", "rtt_ms=50,100", "--scale", "quick",
                           "--backend", "fluid",
                           "--schemes", "learner"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "'learner' requires a whisker tree" in captured.err
        assert "packet-only" not in captured.err
