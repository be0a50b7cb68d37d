"""The declarative sweep API: axes, specs, engine, registry, ad-hoc.

Property tests pin :class:`Axis` expansion (spacing, endpoints,
integer dedup); the engine tests pin grid order, the catalog-derived
in-range flags and ``SweepResult`` renderers; the ad-hoc tests check
the grid-composition path ``scripts/sweep.py`` drives.  Byte-level parity of the ported
experiment modules lives in ``tests/test_table_parity.py``.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scale import QUICK, Scale
from repro.experiments import link_speed, multiplexing, rtt
from repro.experiments.api import (FAKE_TREE, AdhocBase, Axis, Cell,
                                   ExperimentSpec, SweepResult,
                                   adhoc_spec, expand, experiments,
                                   get_experiment, run_experiment)
from repro.experiments.common import run_seeds
from repro.remy.catalog import CATALOG

MICRO = Scale(duration_s=3.0, packet_budget=4_000, min_duration_s=2.0,
              n_seeds=1, sweep_points=2)


class TestAxis:
    @given(st.integers(2, 40), st.floats(0.1, 1e3),
           st.floats(1.0, 1e4))
    @settings(max_examples=50, deadline=None)
    def test_log_endpoints_and_ratios(self, n, lo, span):
        hi = lo * span
        axis = Axis.log("x", lo, hi, n)
        assert len(axis.values) == n
        assert axis.values[0] == pytest.approx(lo)
        assert axis.values[-1] == pytest.approx(hi)
        ratios = [b / a for a, b in zip(axis.values, axis.values[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    @given(st.integers(2, 40), st.floats(-1e3, 1e3),
           st.floats(0.0, 1e4))
    @settings(max_examples=50, deadline=None)
    def test_linear_endpoints_and_steps(self, n, lo, span):
        hi = lo + span
        axis = Axis.linear("x", lo, hi, n)
        assert len(axis.values) == n
        assert axis.values[0] == pytest.approx(lo)
        assert axis.values[-1] == pytest.approx(hi)
        steps = [b - a for a, b in zip(axis.values, axis.values[1:])]
        assert all(s == pytest.approx(steps[0], abs=1e-9)
                   for s in steps)

    @given(st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_log_integer_dedupes_and_covers(self, n):
        axis = Axis.log("n", 1, 100, n, integer=True)
        values = list(axis.values)
        assert values[0] == 1 and values[-1] == 100
        assert values == sorted(set(values))
        assert all(isinstance(v, int) for v in values)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            Axis.log("x", 1.0, 10.0, 1)
        with pytest.raises(ValueError):
            Axis.linear("x", 1.0, 10.0, 1)
        with pytest.raises(ValueError):
            Axis.log("x", 0.0, 10.0, 3)   # log needs lo > 0
        with pytest.raises(ValueError):
            Axis.of("x", [])

    def test_ensure_adds_and_sorts(self):
        axis = Axis.linear("rtt_ms", 1.0, 300.0, 4).ensure(150.0)
        assert 150.0 in axis.values
        assert list(axis.values) == sorted(axis.values)
        # already-present values are not duplicated
        again = axis.ensure(150.0)
        assert again.values == axis.values

    def test_parse_spacings(self):
        axis = Axis.parse("rtt_ms=log:1:300:7")
        assert axis.name == "rtt_ms" and len(axis.values) == 7
        axis = Axis.parse("senders=logint:1:100:6")
        assert axis.values[0] == 1 and axis.values[-1] == 100
        axis = Axis.parse("delta=lin:0.1:10:3")
        assert axis.values[1] == pytest.approx(5.05)

    def test_parse_value_lists(self):
        axis = Axis.parse("queue=droptail,codel")
        assert axis.values == ("droptail", "codel")
        axis = Axis.parse("rtt_ms=50,150.5,250")
        assert axis.values == (50, 150.5, 250)

    @pytest.mark.parametrize("bad", ["queue", "=droptail", "x=",
                                     "x=log:1:10", "x=log:a:b:3",
                                     "x=,,"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Axis.parse(bad)

    @pytest.mark.parametrize("bad", ["x=log:1:300:0", "x=log:1:300:1",
                                     "x=lin:10:1:5", "x=log:0:10:3",
                                     "x=log:one:300:7", "x=lin:1:2:2.5"])
    def test_parse_errors_name_the_offending_spec(self, bad):
        """Eager validation at parse time, with the spec string in the
        message — a bad --axis must fail before any simulation, naming
        itself."""
        with pytest.raises(ValueError) as err:
            Axis.parse(bad)
        assert repr(bad) in str(err.value)

    @given(st.integers(2, 30),
           st.floats(0.01, 1e3, allow_nan=False),
           st.floats(1.0, 1e4, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_parse_spacing_round_trips_constructor(self, n, lo, span):
        """``NAME=log:LO:HI:N`` parses to the exact grid Axis.log
        builds (and likewise for lin) — the CLI form is a pure spelling
        of the constructor, not a second implementation."""
        hi = lo * span
        parsed = Axis.parse(f"x=log:{lo!r}:{hi!r}:{n}")
        assert parsed.values == Axis.log("x", lo, hi, n).values
        parsed = Axis.parse(f"x=lin:{lo!r}:{hi!r}:{n}")
        assert parsed.values == Axis.linear("x", lo, hi, n).values

    @given(st.lists(st.one_of(
        st.integers(-1000, 1000),
        st.floats(-1e6, 1e6, allow_nan=False).map(
            lambda v: round(v, 6)),
        st.text(alphabet="abcdefgh_", min_size=1, max_size=8)),
        min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_parse_value_list_round_trips(self, values):
        """A comma-joined value list parses back to the same values
        (numeric tokens as numbers, everything else as strings)."""
        text = ",".join(str(v) for v in values)
        parsed = Axis.parse(f"x={text}")
        assert list(parsed.values) == [
            v if isinstance(v, (int, float)) else str(v)
            for v in values]

    def test_legacy_sweeps_ride_on_axis_values(self):
        # The modules' sweep helpers and the Axis grid must agree.
        assert multiplexing.sweep_senders(6) == list(
            Axis.log("n", 1, 100, 6, integer=True).values)
        assert link_speed.sweep_speeds(5)[0] == pytest.approx(1.0)
        assert 150.0 in rtt.sweep_rtts(5)


class TestExpand:
    @staticmethod
    def _spec(schemes=("a", "b"), skip=None):
        """Scheme ``a`` runs the exactly-150 ms Tao, ``b`` no asset."""
        def build(scheme, point):
            if skip and (scheme, point["rtt_ms"]) in skip:
                return None
            from repro.core.scenario import NetworkConfig
            if scheme == "a":
                return Cell(NetworkConfig(), {"learner": "tao_rtt_150"})
            return Cell(NetworkConfig(sender_kinds=(("cubic",) * 2)))

        return ExperimentSpec(
            name="t", schemes=schemes,
            axes=(Axis.of("rtt_ms", (150.0, 300.0)),
                  Axis.of("y", ("p", "q"))),
            build=build,
            metrics=lambda s, p, c, r: {"m": 0.0})

    def test_axis_major_order_schemes_inner(self):
        points, plans = expand(self._spec(), MICRO)
        assert [(p["rtt_ms"], p["y"]) for p in points] == \
            [(150.0, "p"), (150.0, "q"), (300.0, "p"), (300.0, "q")]
        assert [(pl.scheme, pl.point["rtt_ms"], pl.point["y"])
                for pl in plans[:4]] == \
            [("a", 150.0, "p"), ("b", 150.0, "p"),
             ("a", 150.0, "q"), ("b", 150.0, "q")]

    def test_in_range_flags_and_skips(self):
        _, plans = expand(self._spec(skip={("b", 150.0)}), MICRO)
        assert len(plans) == 6   # 8 combos minus two skipped
        flags = {(pl.scheme, pl.point["rtt_ms"]): pl.in_range
                 for pl in plans}
        assert flags[("a", 300.0)] is False
        assert flags[("a", 150.0)] is True
        assert flags[("b", 300.0)] is True


def _flags(axes, schemes=("tao_10x",)):
    """``(scheme, *point values) -> in_range`` of an ad-hoc grid."""
    _, plans = expand(adhoc_spec(axes, schemes), MICRO)
    return {(plan.scheme, *plan.point.values()): plan.in_range
            for plan in plans}


class TestTrainingRange:
    """In-range flags read :data:`~repro.remy.catalog.CATALOG`; the
    ``tao_10x`` cases are the paper's Table 2a row (10-100 Mbps at
    exactly 150 ms, two senders)."""

    @pytest.mark.parametrize("name", ["link_mbps", "speed_mbps"])
    def test_link_speed_axis_and_alias(self, name):
        flags = _flags([Axis.of(name, (5.0, 10.0, 32.0, 100.0, 200.0))])
        assert flags == {("tao_10x", 5.0): False,
                         ("tao_10x", 10.0): True,
                         ("tao_10x", 32.0): True,
                         ("tao_10x", 100.0): True,
                         ("tao_10x", 200.0): False}

    def test_in_training_range(self):
        flags = _flags([Axis.of("link_mbps", (32.0, 500.0)),
                        Axis.of("rtt_ms", (150.0, 300.0))])
        assert flags == {("tao_10x", 32.0, 150.0): True,
                         ("tao_10x", 32.0, 300.0): False,
                         ("tao_10x", 500.0, 150.0): False,
                         ("tao_10x", 500.0, 300.0): False}

    def test_boundary_is_inside(self):
        flags = _flags([Axis.of("rtt_ms", (144.9, 145.0, 155.0, 155.1))],
                       schemes=("tao_rtt_145_155",))
        assert list(flags.values()) == \
            [False, True, True, False]
        assert _flags([Axis.of("link_mbps", (10.0, 100.0))]) == \
            {("tao_10x", 10.0): True, ("tao_10x", 100.0): True}

    def test_sender_count_check(self):
        for name in ("senders", "n_senders"):
            assert _flags([Axis.of(name, (2, 10))]) == \
                {("tao_10x", 2): True, ("tao_10x", 10): False}

    def test_sender_mixes_range_skips_sender_count(self):
        assert CATALOG["tao_tcp_naive"].training.sender_mixes is not None
        flags = _flags([Axis.of("senders", (1, 2, 10))],
                       schemes=("tao_tcp_naive",))
        assert all(flags.values())

    def test_unlisted_asset_and_registry_schemes_stay_in_range(self):
        flags = _flags([Axis.of("link_mbps", (1.0, 1000.0)),
                        Axis.of("senders", (1, 100))],
                       schemes=("tao", "cubic"))
        assert "tao" not in CATALOG
        assert len(flags) == 8 and all(flags.values())

    def test_reference_rows_stay_in_range(self):
        spec = adhoc_spec([Axis.of("link_mbps", (5.0,))], ["tao_10x"])
        result = run_experiment(spec, scale=MICRO,
                                trees={"tao_10x": FAKE_TREE})
        assert result.one("tao_10x")["in_training_range"] is False
        assert result.one("omniscient")["in_training_range"] is True

    def test_flags_follow_a_changed_catalog_range(self, monkeypatch):
        tao = CATALOG["tao_2x"]
        monkeypatch.setitem(CATALOG, "tao_2x", dataclasses.replace(
            tao, training=dataclasses.replace(
                tao.training, link_speed_mbps=(1.0, 10.0))))
        _, plans = expand(link_speed.SPEC, QUICK)
        flags = [(plan.point["speed_mbps"], plan.in_range)
                 for plan in plans if plan.scheme == "tao_2x"]
        assert len(flags) == QUICK.sweep_points
        assert flags == [(speed, speed <= 10.0) for speed, _ in flags]
        assert any(in_range for _, in_range in flags)


class TestSweepResult:
    @staticmethod
    def _result():
        return SweepResult(
            name="demo", axis_names=("x",),
            rows=[{"scheme": "cubic", "x": 1, "m": 0.5,
                   "in_training_range": True},
                  {"scheme": "tao", "x": 1, "m": 1.25,
                   "in_training_range": False}])

    def test_columns_order_and_schemes(self):
        result = self._result()
        assert result.columns() == ["scheme", "x", "m",
                                    "in_training_range"]
        assert result.schemes() == ["cubic", "tao"]

    def test_select(self):
        result = self._result()
        assert [r["m"] for r in result.select(scheme="tao")] == [1.25]
        assert [r["scheme"] for r in result.select(x=1)] == \
            ["cubic", "tao"]
        assert result.one("tao", x=1)["m"] == 1.25
        with pytest.raises(KeyError, match="2 rows"):
            result.one(x=1)
        with pytest.raises(KeyError, match="0 rows"):
            result.one("vegas")

    def test_format_table_marks_out_of_range(self):
        text = self._result().format_table()
        assert "demo" in text and "cubic" in text
        lines = text.splitlines()
        assert lines[1].split() == ["scheme", "x", "m", "range"]
        assert lines[-2].endswith("*")
        assert "training range" in lines[-1]

    def test_csv_and_json_round_trip(self):
        result = self._result()
        csv_lines = result.to_csv().splitlines()
        assert csv_lines[0] == "scheme,x,m,in_training_range"
        assert len(csv_lines) == 3
        payload = json.loads(result.to_json())
        assert payload["experiment"] == "demo"
        assert payload["axes"] == ["x"]
        assert payload["rows"][1]["m"] == 1.25


class TestRegistry:
    def test_all_ten_registered_in_paper_order(self):
        entries = experiments()
        assert [e.eid for e in entries] == \
            [f"E{i}" for i in range(1, 11)]
        assert sum(e.spec is not None for e in entries) == 9

    def test_lookup_by_eid_and_name(self):
        assert get_experiment("E4").name == "rtt"
        assert get_experiment("link_speed").eid == "E2"
        with pytest.raises(KeyError):
            get_experiment("E42")

    def test_specs_declare_their_assets(self):
        for entry in experiments():
            if entry.spec is None:
                continue
            referenced = set()
            _, plans = expand(entry.spec, MICRO)
            for plan in plans:
                if plan.cell.trees:
                    referenced.update(plan.cell.trees.values())
            assert referenced <= set(entry.assets)

    def test_entries_read_name_title_assets_off_what_they_wrap(self):
        for entry in experiments():
            declared = entry.spec or entry.custom
            assert (entry.name, entry.title, entry.assets) == \
                (declared.name, declared.title, declared.assets)
            assert entry.title.startswith(entry.eid)
        # Not copies: a replaced spec shows through its entry.
        from dataclasses import replace

        from repro.experiments.api import Experiment
        spec = replace(get_experiment("ecn").spec, name="ecn2",
                       assets=("x",))
        assert Experiment("E11", spec).name == "ecn2"
        assert Experiment("E11", spec).assets == ("x",)
        with pytest.raises(ValueError):
            Experiment("E11")               # neither spec nor custom

    def test_render_uses_the_table_hook_or_the_generic_table(self):
        result = SweepResult(name="s", axis_names=("x",), rows=[
            {"scheme": "a", "x": 1, "m": 2.0,
             "in_training_range": True}])
        spec = get_experiment("ecn").spec
        assert spec.table is None
        assert spec.render(result) == result.format_table()
        from dataclasses import replace
        custom = replace(spec, table=lambda r: f"{len(r.rows)} row")
        assert custom.render(result) == "1 row"
        assert all(e.spec.table is not None for e in experiments()
                   if e.spec is not None and e.name != "ecn")


class TestAdhoc:
    def test_grid_runs_and_matches_run_seeds(self):
        spec = adhoc_spec(
            axes=(Axis.of("queue", ("droptail", "codel")),),
            schemes=("cubic",), bound=False)
        result = run_experiment(spec, scale=MICRO)
        assert len(result.rows) == 2
        # the engine's cells replay exactly through the plain seed path
        _, plans = expand(spec, MICRO)
        direct = run_seeds(plans[0].cell.config, scale=MICRO)
        from repro.experiments.common import mean_normalized_score
        assert result.rows[0]["mean_objective"] == \
            mean_normalized_score(direct, plans[0].cell.config)

    def test_tao_schemes_become_learners(self):
        spec = adhoc_spec(axes=(Axis.of("rtt_ms", (50.0,)),),
                          schemes=("tao_rtt_50_250",))
        _, plans = expand(spec, MICRO)
        assert plans[0].cell.config.sender_kinds == \
            ("learner", "learner")
        assert plans[0].cell.trees == {"learner": "tao_rtt_50_250"}
        result = run_experiment(
            spec, scale=MICRO, trees={"tao_rtt_50_250": FAKE_TREE})
        schemes = result.schemes()
        assert schemes == ["tao_rtt_50_250", "omniscient"]

    def test_base_overrides_apply(self):
        spec = adhoc_spec(
            axes=(Axis.of("senders", (1, 3)),),
            schemes=("newreno",),
            base=AdhocBase(link_mbps=8.0, rtt_ms=50.0,
                           buffer_bdp=None))
        _, plans = expand(spec, MICRO)
        config = plans[1].cell.config
        assert config.sender_kinds == ("newreno",) * 3
        assert config.link_speeds_mbps == (8.0,)
        assert config.rtt_ms == 50.0
        assert math.isinf(config.buffer_packets())

    def test_bound_rows_per_point(self):
        spec = adhoc_spec(axes=(Axis.of("link_mbps", (8.0, 16.0)),),
                          schemes=("cubic",))
        result = run_experiment(spec, scale=MICRO)
        omni = list(result.select(scheme="omniscient"))
        assert len(omni) == 2
        assert all(row["qdelay_ms"] == 0.0 for row in omni)

    @pytest.mark.parametrize("axis", [
        Axis.of("outage", ("none", "0.5")),       # bad outage token
        Axis.of("rtt_ms", ("fast",)),             # non-numeric value
    ])
    def test_malformed_axis_values_fail_at_spec_time(self, axis):
        """Values are validated when the spec is composed — a bad
        --axis value names itself before any cell is simulated."""
        with pytest.raises(ValueError, match=axis.name):
            adhoc_spec([axis], ["newreno"])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            adhoc_spec(axes=(Axis.of("warp_factor", (9,)),),
                      schemes=("cubic",))
        with pytest.raises(ValueError):
            adhoc_spec(axes=(Axis.of("rtt_ms", (50,)),), schemes=())

    def test_missing_asset_fails_before_simulating(self):
        spec = adhoc_spec(axes=(Axis.of("rtt_ms", (50.0,)),),
                          schemes=("tao_nonexistent",))
        with pytest.raises(FileNotFoundError):
            run_experiment(spec, scale=MICRO)
