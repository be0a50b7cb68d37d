"""Declarative sweep API: one experiment spec, one engine.

The paper's core method is a *sweep*: vary one scenario axis (link
speed, RTT, degree of multiplexing, sender mix) and compare Taos against
baselines and the omniscient bound.  This module is the single substrate
every such sweep runs on:

* :class:`Axis` — one named sweep parameter: a value list (with
  log/linear/integer spacing constructors and a CLI parser).
* :class:`ExperimentSpec` — a declarative experiment: schemes, axes,
  a ``build`` hook turning one ``(scheme, grid point)`` into a
  :class:`Cell` (a :class:`~repro.core.scenario.NetworkConfig` plus the
  rule-table assets each sender kind runs), a per-cell ``metrics`` hook,
  an optional analytic ``reference`` bound, and an optional ``table``
  hook rendering the paper-shaped text of its :class:`SweepResult`.
* :func:`run_experiment` — the one generic engine: expands
  ``spec × Scale`` into a single flat ``(config, trees, seed)`` batch
  through :func:`~repro.experiments.common.run_seed_batch` (so ``--jobs``
  fan-out and ``--store``/``--resume`` come for free) and returns a
  uniform long-form :class:`SweepResult` with shared ``format_table``,
  ``to_csv``, and ``to_json``.
* the experiment **registry** — every reproduced figure/table registers
  its spec here under a paper ordinal; ``scripts/run_experiments.py``
  iterates it generically (``--list``, ``--only``) and runs every entry
  the same way on either backend.
* :func:`adhoc_spec` — compose grids the paper never ran
  (``scripts/sweep.py --axis rtt_ms=log:1:300:7 --axis
  queue=droptail,codel --schemes cubic,tao_rtt_50_250``).

The experiment modules hold a spec, its ``table`` function (pinned
byte for byte by ``tests/test_table_parity.py``) and the few derived
quantities the tables print — no result types of their own.  See
``docs/EXPERIMENTS.md``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from ..core.objective import normalized_objective
from ..core.omniscient import dumbbell_expected_throughput
from ..core.results import FlowStats, RunResult, summarize_ellipse
from ..core.scale import DEFAULT, Scale
from ..core.scenario import NetworkConfig
from ..exec import Executor
from ..protocols.registry import available_schemes
from ..remy.action import Action
from ..remy.assets import load_tree
from ..remy.catalog import CATALOG
from ..remy.tree import WhiskerTree
from ..sim.dynamics import (DynamicsSpec, LinkSchedule,
                            parse_outage_token)
from .common import mean_normalized_score, run_seed_batch, scored_flows

__all__ = [
    "Axis", "Cell", "CellPlan", "ExperimentSpec", "SweepResult",
    "expand", "run_experiment",
    "Experiment", "CustomRun", "register", "get_experiment",
    "experiments",
    "AdhocBase", "adhoc_spec",
    "objective_metrics", "summary_metrics", "ellipse_metrics",
    "kind_ellipse_metrics", "omniscient_objective",
    "dumbbell_reference", "pivot_lines", "PIVOT_FOOTNOTE",
    "baseline_queue", "FAKE_TREE",
]

#: The stand-in rule table ``--fake-taos`` (both CLIs) and the parity /
#: golden test suites substitute for untrained assets — a sane
#: rate-matching action.  One definition: the parity contract assumes
#: every consumer simulates the *same* tree.
FAKE_TREE = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))


# ----------------------------------------------------------------------
# Axis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Axis:
    """One named sweep parameter and its value grid."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis needs a name")
        if not self.values:
            raise ValueError(f"axis {self.name!r} needs at least one value")

    # -- constructors --------------------------------------------------
    @classmethod
    def of(cls, name: str, values: Sequence[object]) -> "Axis":
        """An axis over explicit values (kept in the given order)."""
        return cls(name, tuple(values))

    @classmethod
    def linear(cls, name: str, lo: float, hi: float, n: int, *,
               integer: bool = False) -> "Axis":
        """``n`` linearly spaced values over ``[lo, hi]``, inclusive."""
        cls._check_spacing(name, lo, hi, n)
        raw = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
        return cls(name, cls._spaced(raw, integer))

    @classmethod
    def log(cls, name: str, lo: float, hi: float, n: int, *,
            integer: bool = False) -> "Axis":
        """``n`` log-spaced values over ``[lo, hi]``, inclusive.

        ``integer=True`` rounds and deduplicates (preserving ascending
        order) — the multiplexing experiment's denser-at-the-low-end
        sender counts.
        """
        cls._check_spacing(name, lo, hi, n)
        if lo <= 0:
            raise ValueError(f"axis {name!r}: log spacing needs lo > 0")
        raw = [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]
        return cls(name, cls._spaced(raw, integer))

    @staticmethod
    def _check_spacing(name: str, lo: float, hi: float, n: int) -> None:
        if n < 2:
            raise ValueError("need at least two sweep points")
        if not lo <= hi:
            raise ValueError(f"axis {name!r}: need lo <= hi, "
                             f"got {lo} > {hi}")

    @staticmethod
    def _spaced(raw: Sequence[float], integer: bool) -> Tuple[object, ...]:
        if not integer:
            return tuple(raw)
        out: List[int] = []
        for value in raw:
            rounded = round(value)
            if rounded not in out:
                out.append(rounded)
        return tuple(out)

    # -- CLI form ------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Axis":
        """Parse the CLI form ``name=SPEC``.

        ``SPEC`` is either a spacing rule —

        * ``log:LO:HI:N`` / ``logint:LO:HI:N`` (log-spaced, optionally
          rounded to deduplicated integers),
        * ``lin:LO:HI:N`` / ``linint:LO:HI:N`` (``linear``/``int``
          accepted as aliases) —

        or a comma-separated value list (``droptail,codel`` or
        ``50,150,250``; numeric tokens become numbers).
        """
        name, eq, spec = text.partition("=")
        name, spec = name.strip(), spec.strip()
        if not eq or not name or not spec:
            raise ValueError(f"axis {text!r}: expected NAME=SPEC")
        head, *rest = spec.split(":")
        spacings = {"log": (cls.log, False), "logint": (cls.log, True),
                    "lin": (cls.linear, False), "linear": (cls.linear, False),
                    "int": (cls.linear, True), "linint": (cls.linear, True)}
        if head in spacings:
            if len(rest) != 3:
                raise ValueError(
                    f"axis {text!r}: expected {head}:LO:HI:N")
            maker, integer = spacings[head]
            try:
                lo, hi = float(rest[0]), float(rest[1])
                n = int(rest[2])
            except ValueError:
                raise ValueError(
                    f"axis {text!r}: LO/HI must be numbers, N an int"
                ) from None
            try:
                return maker(name, lo, hi, n, integer=integer)
            except ValueError as error:
                # Eager validation with the *offending spec string* in
                # the message: a malformed spec (log:1:300:0, hi < lo,
                # ...) must fail at parse time, naming itself, not
                # surface as a bare ValueError mid-sweep.
                raise ValueError(f"axis {text!r}: {error}") from None
        values = [cls._coerce_token(token.strip())
                  for token in spec.split(",") if token.strip()]
        if not values:
            raise ValueError(f"axis {text!r}: empty value list")
        return cls.of(name, values)

    @staticmethod
    def _coerce_token(token: str) -> object:
        for kind in (int, float):
            try:
                return kind(token)
            except ValueError:
                continue
        return token

    # -- helpers -------------------------------------------------------
    def ensure(self, *extra: object) -> "Axis":
        """A copy guaranteed to contain ``extra``, sorted ascending.

        For numeric axes that must hit a landmark value — e.g. the RTT
        sweep always includes 150 ms so the exactly-150 Tao has an
        in-range point.
        """
        values = list(self.values)
        for value in extra:
            if value not in values:
                values.append(value)
        return Axis(self.name, tuple(sorted(values)))


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
@dataclass
class Cell:
    """One concrete simulation: a network plus the rule-table *assets*
    each sender kind runs (``None`` — registry schemes only).

    Trees are referenced by asset name, not object, so specs stay
    declarative; the engine resolves names through the caller's
    overrides or :func:`~repro.remy.assets.load_tree` (overrides are how
    ``--fake-taos`` and tests substitute hand-built tables)."""

    config: NetworkConfig
    trees: Optional[Mapping[str, str]] = None   # sender kind -> asset


@dataclass
class CellPlan:
    """One expanded ``(scheme, grid point)`` cell of a sweep."""

    scheme: str
    point: Dict[str, object]
    cell: Cell
    in_range: bool


#: ``(scheme, point) -> Cell`` (or None to skip that combination).
BuildFn = Callable[[str, Mapping[str, object]], Optional[Cell]]
#: ``(scheme, point, config, runs) -> metric row(s)``.
MetricsFn = Callable[
    [str, Mapping[str, object], NetworkConfig, Sequence[RunResult]],
    Union[Mapping[str, object], Sequence[Mapping[str, object]]]]
#: ``point -> reference row(s)`` — the analytic (omniscient) bound.
ReferenceFn = Callable[
    [Mapping[str, object]],
    Union[Mapping[str, object], Sequence[Mapping[str, object]]]]
#: Static axes, or a hook deriving them from the run's Scale.
AxesLike = Union[Sequence[Axis], Callable[[Scale], Sequence[Axis]]]
#: ``SweepResult -> text`` — a spec's paper-shaped table.
TableFn = Callable[["SweepResult"], str]


@dataclass
class ExperimentSpec:
    """A declarative experiment: what to sweep, build, and measure.

    The engine guarantees a deterministic cell order — grid points in
    axis-major order (first axis outermost), schemes innermost, then one
    reference row block per point — which is what makes the ported
    experiment tables byte-identical to their hand-rolled ancestors.
    """

    name: str
    schemes: Tuple[str, ...]
    axes: AxesLike
    build: BuildFn
    metrics: MetricsFn
    title: str = ""
    reference: Optional[ReferenceFn] = None
    reference_scheme: str = "omniscient"
    #: Every trained asset the spec's cells may reference (what
    #: ``--fake-taos`` substitutes).
    assets: Tuple[str, ...] = ()
    #: The paper's table of this sweep's result; without one,
    #: :meth:`render` falls back to the generic long-form table.
    table: Optional[TableFn] = None

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError(f"spec {self.name!r} needs schemes")

    def axes_for(self, scale: Scale) -> Tuple[Axis, ...]:
        axes = self.axes(scale) if callable(self.axes) else self.axes
        return tuple(axes)

    def render(self, result: "SweepResult") -> str:
        """``result`` (a run of this spec) as report text."""
        if self.table is None:
            return result.format_table()
        return self.table(result)


#: ``_ADHOC_KEYS`` target -> the
#: :class:`~repro.core.scenario.ScenarioRange` field a Tao is trained
#: over along that axis.
_TRAINED_DIMS: Dict[str, str] = {"link_mbps": "link_speed_mbps",
                                 "rtt_ms": "rtt_ms",
                                 "n_senders": "num_senders"}


def _in_training_range(cell: Cell, point: Mapping[str, object]) -> bool:
    """Was every catalog asset ``cell`` runs trained on each link
    speed, RTT and sender count ``point`` sweeps?

    :data:`~repro.remy.catalog.CATALOG` is the only statement of a
    Tao's training range.  Axes match a dimension through the ad-hoc
    aliases (``speed_mbps`` / ``link_mbps``, ``senders`` /
    ``n_senders``, ...).  The flag reads the axis value, not the built
    config, so a ``build`` that perturbs the network keeps its flags.
    Cells without a catalog asset are in range, and so is any sender
    count of a range that trains on a menu of sender mixes.
    """
    for asset in (cell.trees or {}).values():
        tao = CATALOG.get(asset)
        if tao is None:
            continue
        for axis, value in point.items():
            dim = _TRAINED_DIMS.get(_ADHOC_KEYS.get(axis, ""))
            if dim is None or (dim == "num_senders"
                               and tao.training.sender_mixes is not None):
                continue
            lo, hi = getattr(tao.training, dim)
            if not lo <= _adhoc_setting(axis, value) <= hi:
                return False
    return True


def expand(spec: ExperimentSpec, scale: Scale = DEFAULT
           ) -> Tuple[List[Dict[str, object]], List[CellPlan]]:
    """``spec × scale`` -> (grid points, runnable cell plans).

    Points iterate in axis-major order; within a point, schemes in spec
    order; ``build`` returning ``None`` skips a combination.  Each plan
    is flagged by :func:`_in_training_range` (the ``*`` markers of the
    paper's tables).
    """
    axes = spec.axes_for(scale)
    names = [axis.name for axis in axes]
    points = [dict(zip(names, combo))
              for combo in product(*(axis.values for axis in axes))]
    plans: List[CellPlan] = []
    for point in points:
        for scheme in spec.schemes:
            cell = spec.build(scheme, point)
            if cell is None:
                continue
            plans.append(CellPlan(scheme, dict(point), cell,
                                  _in_training_range(cell, point)))
    return points, plans


def _resolve_trees(plans: Sequence[CellPlan],
                   overrides: Optional[Mapping[str, WhiskerTree]]
                   ) -> List[Optional[Dict[str, WhiskerTree]]]:
    """Asset names -> tree objects, loading each shipped asset once."""
    overrides = overrides or {}
    loaded: Dict[str, WhiskerTree] = {}
    maps: List[Optional[Dict[str, WhiskerTree]]] = []
    for plan in plans:
        if plan.cell.trees is None:
            maps.append(None)
            continue
        tree_map: Dict[str, WhiskerTree] = {}
        for kind, asset in plan.cell.trees.items():
            if asset not in loaded:
                loaded[asset] = overrides.get(asset) or load_tree(asset)
            tree_map[kind] = loaded[asset]
        maps.append(tree_map)
    return maps


def _as_rows(value: Union[Mapping[str, object],
                          Sequence[Mapping[str, object]]]
             ) -> List[Mapping[str, object]]:
    if isinstance(value, Mapping):
        return [value]
    return list(value)


def run_experiment(spec: ExperimentSpec,
                   scale: Scale = DEFAULT,
                   trees: Optional[Mapping[str, WhiskerTree]] = None,
                   base_seed: int = 1,
                   executor: Optional[Executor] = None,
                   store=None,
                   jobs: Optional[int] = None,
                   backend: str = "packet") -> "SweepResult":
    """The one generic sweep engine.

    Expands the spec, resolves its assets (``trees`` overrides beat
    shipped assets, and a missing asset raises ``FileNotFoundError``
    *before* any simulation runs), submits the whole
    ``(cell × scale.n_seeds)`` grid as one flat batch through
    :func:`~repro.experiments.common.run_seed_batch` — inheriting
    executor fan-out and store-backed resume — and folds each cell's
    replications into long-form :class:`SweepResult` rows.

    ``backend="fluid"`` runs every cell on the vectorized fluid model
    instead of the packet engine: faster when a task carries many
    packets (fast links, long runs), slower when it carries few — see
    "Where it pays" and the fidelity bands in ``docs/PERFORMANCE.md``.
    """
    points, plans = expand(spec, scale)
    tree_maps = _resolve_trees(plans, trees)
    batches = run_seed_batch(
        [(plan.cell.config, tree_map)
         for plan, tree_map in zip(plans, tree_maps)],
        scale=scale, base_seed=base_seed, executor=executor,
        store=store, jobs=jobs, backend=backend)
    rows: List[Dict[str, object]] = []
    for plan, runs in zip(plans, batches):
        for metric_row in _as_rows(
                spec.metrics(plan.scheme, plan.point,
                             plan.cell.config, runs)):
            row: Dict[str, object] = {"scheme": plan.scheme}
            row.update(plan.point)
            row.update(metric_row)
            row["in_training_range"] = plan.in_range
            rows.append(row)
    if spec.reference is not None:
        for point in points:
            for metric_row in _as_rows(spec.reference(point)):
                row = {"scheme": spec.reference_scheme}
                row.update(point)
                row.update(metric_row)
                row["in_training_range"] = True
                rows.append(row)
    axis_names = tuple(axis.name for axis in spec.axes_for(scale))
    return SweepResult(name=spec.name, axis_names=axis_names, rows=rows)


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """A sweep in long form: one dict per (scheme, point, metric row).

    Every row carries ``scheme``, the axis coordinates, whatever the
    spec's metrics emitted (plus optional labels like ``kind``), and
    ``in_training_range``.  The three shared renderers —
    :meth:`format_table`, :meth:`to_csv`, :meth:`to_json` — work for
    every spec, registered or ad-hoc.
    """

    name: str
    axis_names: Tuple[str, ...] = ()
    rows: List[Dict[str, object]] = field(default_factory=list)

    # -- access --------------------------------------------------------
    def schemes(self) -> List[str]:
        """Scheme names in first-appearance order."""
        return list(dict.fromkeys(row["scheme"] for row in self.rows))

    def select(self, scheme: Optional[str] = None,
               **coords: object) -> Iterator[Dict[str, object]]:
        """Rows matching a scheme and/or exact axis coordinates."""
        for row in self.rows:
            if scheme is not None and row["scheme"] != scheme:
                continue
            if all(row.get(key) == value
                   for key, value in coords.items()):
                yield row

    def one(self, scheme: Optional[str] = None,
            **coords: object) -> Dict[str, object]:
        """The row :meth:`select` matches; ``KeyError`` unless exactly
        one does."""
        rows = list(self.select(scheme, **coords))
        if len(rows) != 1:
            raise KeyError(f"{len(rows)} rows of {self.name!r} match "
                           f"scheme={scheme!r} {coords}")
        return rows[0]

    def columns(self) -> List[str]:
        """Stable column order: scheme, axes, metrics/labels, range."""
        out = ["scheme", *self.axis_names]
        for row in self.rows:
            for key in row:
                if key not in out and key != "in_training_range":
                    out.append(key)
        out.append("in_training_range")
        return out

    # -- renderers -----------------------------------------------------
    @staticmethod
    def _fmt(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.4g}"
        if isinstance(value, tuple):
            return "x".join(SweepResult._fmt(v) for v in value)
        return str(value)

    def format_table(self) -> str:
        """One aligned text table over :meth:`columns`.

        ``in_training_range`` renders as the paper-style trailing ``*``
        marker column (only shown when some row is out of range).
        """
        columns = self.columns()[:-1]
        flagged = any(not row["in_training_range"] for row in self.rows)
        header = columns + (["range"] if flagged else [])
        grid = [header]
        for row in self.rows:
            cells = [self._fmt(row.get(column)) for column in columns]
            if flagged:
                cells.append("" if row["in_training_range"] else "*")
            grid.append(cells)
        widths = [max(len(line[i]) for line in grid)
                  for i in range(len(header))]
        lines = [f"sweep {self.name!r}: {len(self.rows)} rows"]
        for line in grid:
            lines.append("  ".join(
                cell.rjust(width)
                for cell, width in zip(line, widths)).rstrip())
        if flagged:
            lines.append("(* = outside that scheme's training range)")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Long-form CSV with the :meth:`columns` header."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        columns = self.columns()
        writer.writerow(columns)
        for row in self.rows:
            writer.writerow([row.get(column, "") for column in columns])
        return buffer.getvalue()

    def to_json(self, indent: Optional[int] = None) -> str:
        """``{"experiment", "axes", "rows"}`` as canonical JSON."""
        payload = {"experiment": self.name,
                   "axes": list(self.axis_names),
                   "rows": self.rows}
        return json.dumps(payload, indent=indent, default=_jsonable)


def _jsonable(value: object) -> object:
    try:
        return float(value)   # numpy scalars and friends
    except (TypeError, ValueError):
        return str(value)


# ----------------------------------------------------------------------
# Shared spec building blocks
# ----------------------------------------------------------------------
def objective_metrics(scheme: str, point: Mapping[str, object],
                      config: NetworkConfig,
                      runs: Sequence[RunResult]) -> Dict[str, object]:
    """The Figures 2-4 metric: mean normalized objective per cell."""
    return {"normalized_objective": mean_normalized_score(runs, config)}


def summary_metrics(scheme: str, point: Mapping[str, object],
                    config: NetworkConfig,
                    runs: Sequence[RunResult]) -> Dict[str, object]:
    """Mean objective next to mean throughput and queueing delay of the
    scored flows (the E10 and ad-hoc sweep columns)."""
    row: Dict[str, object] = {
        "mean_objective": mean_normalized_score(runs, config)}
    flows = [flow for result in runs for flow in scored_flows(result)
             if flow.packets_delivered]
    if flows:
        row["tpt_mbps"] = (sum(f.throughput_bps for f in flows)
                           / len(flows) / 1e6)
        row["qdelay_ms"] = (sum(f.queueing_delay_s for f in flows)
                            / len(flows) * 1e3)
    return row


def _ellipse(flows: Sequence[FlowStats]) -> Dict[str, object]:
    return asdict(summarize_ellipse(
        [flow.throughput_bps for flow in flows],
        [flow.queueing_delay_s for flow in flows]))


def ellipse_metrics(scheme: str, point: Mapping[str, object],
                    config: NetworkConfig,
                    runs: Sequence[RunResult]) -> Dict[str, object]:
    """The Figure 1 metric: one throughput/delay ellipse over every
    flow of the cell that delivered anything."""
    return _ellipse([flow for result in runs for flow in result.flows
                     if flow.packets_delivered])


def kind_ellipse_metrics(scheme: str, point: Mapping[str, object],
                         config: NetworkConfig,
                         runs: Sequence[RunResult]
                         ) -> List[Dict[str, object]]:
    """The Figures 7/9 metric: one ellipse row per sender kind of the
    cell (kinds that delivered nothing get no row)."""
    rows: List[Dict[str, object]] = []
    for kind in dict.fromkeys(config.sender_kinds):
        flows = [flow for result in runs
                 for flow in result.flows_of_kind(kind)
                 if flow.packets_delivered]
        if flows:
            rows.append({"kind": kind, **_ellipse(flows)})
    return rows


def dumbbell_reference(config: NetworkConfig) -> Dict[str, object]:
    """The omniscient protocol on a dumbbell — every sender's expected
    fair allocation at zero queueing delay — in :func:`summary_metrics`
    columns."""
    expected = dumbbell_expected_throughput(
        config.link_speed_bps(0), config.num_senders, config.p_on)
    min_delay = config.rtt_ms / 2e3
    return {
        "mean_objective": normalized_objective(
            expected, min_delay, config.fair_share_bps(), min_delay),
        "tpt_mbps": expected / 1e6,
        "qdelay_ms": 0.0,
    }


def omniscient_objective(config: NetworkConfig) -> float:
    """Normalized objective of the dumbbell omniscient bound (the
    Figures 2-4 reference)."""
    return dumbbell_reference(config)["mean_objective"]


def baseline_queue(scheme: str) -> str:
    """Queue discipline a human-baseline scheme column implies."""
    return "sfq_codel" if scheme == "cubic_sfqcodel" else "droptail"


PIVOT_FOOTNOTE = "(* = outside that Tao's training range)"


def pivot_lines(rows: Iterable[Mapping[str, object]], axis: str,
                label: str, axis_format: str,
                width: int) -> List[str]:
    """The Figures 2-4 table body: ``normalized_objective`` pivoted to
    one line per ``axis`` value and one ``width``-wide column per scheme
    (first-appearance order), ``*`` marking out-of-range cells."""
    rows = list(rows)
    schemes = list(dict.fromkeys(row["scheme"] for row in rows))
    cell = {(row["scheme"], row[axis]): row for row in rows}
    lines = [f"{label:>8} "
             + " ".join(f"{scheme:>{width}}" for scheme in schemes)]
    for value in sorted({row[axis] for row in rows}):
        cells = [
            f"{cell[scheme, value]['normalized_objective']:>{width - 1}.2f}"
            + (" " if cell[scheme, value]["in_training_range"] else "*")
            for scheme in schemes]
        lines.append(f"{value:>8{axis_format}} " + " ".join(cells))
    return lines


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CustomRun:
    """A registry entry that is not a sweep (the Figure 8 queue trace):
    what a spec would have declared, plus the runner itself."""

    name: str
    title: str
    assets: Tuple[str, ...]
    #: ``(scale, asset overrides, executor, backend) -> report text``;
    #: raises :class:`~repro.exec.BackendRefusal` for a backend it
    #: cannot use.
    run: Callable[[Scale, Optional[Mapping[str, WhiskerTree]],
                   Optional[Executor], str], str]


@dataclass(frozen=True)
class Experiment:
    """One registered reproduction: a paper ordinal and either the
    spec the generic engine runs or, for the one non-sweep entry, a
    :class:`CustomRun`.  ``name`` / ``title`` / ``assets`` are the
    spec's (or the custom entry's) own."""

    eid: str            # paper ordinal, "E1".."E10"
    spec: Optional[ExperimentSpec] = None
    custom: Optional[CustomRun] = None

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.custom is None):
            raise ValueError(
                f"{self.eid}: give exactly one of spec / custom")

    @property
    def _declared(self) -> Union[ExperimentSpec, CustomRun]:
        return self.spec if self.spec is not None else self.custom

    @property
    def name(self) -> str:
        """Module-ish key, e.g. ``"link_speed"``."""
        return self._declared.name

    @property
    def title(self) -> str:
        """The CLI/report section heading."""
        return self._declared.title

    @property
    def assets(self) -> Tuple[str, ...]:
        return self._declared.assets


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add (or replace) a registry entry; eids must stay unique."""
    for other in _REGISTRY.values():
        if other.name != experiment.name and other.eid == experiment.eid:
            raise ValueError(
                f"eid {experiment.eid!r} already taken by {other.name!r}")
    _REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(key: str) -> Experiment:
    """Look an entry up by name (``"rtt"``) or eid (``"E4"``)."""
    needle = key.strip().lower()
    for entry in _REGISTRY.values():
        if needle in (entry.eid.lower(), entry.name.lower()):
            return entry
    raise KeyError(f"no experiment {key!r}; "
                   f"known: {[e.eid for e in experiments()]}")


def experiments() -> List[Experiment]:
    """Every registered experiment, in paper (eid) order."""
    def order(entry: Experiment):
        digits = entry.eid[1:]
        # Numeric eids sort naturally (E10 after E9, not after E1);
        # anything else sorts after the numbered entries.
        numeric = (0, int(digits)) if digits.isdigit() else (1, 0)
        return (numeric, entry.eid, entry.name)

    return sorted(_REGISTRY.values(), key=order)


# ----------------------------------------------------------------------
# Ad-hoc sweeps: grids the paper never ran
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdhocBase:
    """Defaults for every scenario knob an ad-hoc sweep doesn't vary
    (the calibration network's dumbbell)."""

    link_mbps: float = 32.0
    rtt_ms: float = 150.0
    n_senders: int = 2
    queue: str = "droptail"
    buffer_bdp: Optional[float] = 5.0
    buffer_bytes: Optional[float] = None
    mean_on_s: float = 1.0
    mean_off_s: float = 1.0
    delta: float = 1.0
    # Link dynamics (see repro.sim.dynamics).  ``outage`` is the token
    # form: "none" or "+"-joined START-STOP windows in seconds
    # ("0.5-1.0+2.0-2.5") — the same encoding the adversarial search
    # emits, so searched patterns sweep like any other axis value.
    outage: str = "none"
    outage_policy: str = "hold"
    jitter_ms: float = 0.0
    jitter_period_s: float = 0.05
    # ECN marking threshold in packets ("none" disables; see
    # docs/EXPERIMENTS.md "ECN and the modern scheme family").
    ecn_threshold: Optional[float] = None


#: Axis-name aliases -> AdhocBase field.
_ADHOC_KEYS: Dict[str, str] = {
    "link_mbps": "link_mbps", "speed_mbps": "link_mbps",
    "link_speed_mbps": "link_mbps",
    "rtt_ms": "rtt_ms",
    "senders": "n_senders", "n_senders": "n_senders",
    "num_senders": "n_senders",
    "queue": "queue",
    "buffer_bdp": "buffer_bdp", "buffer_bytes": "buffer_bytes",
    "mean_on_s": "mean_on_s", "mean_off_s": "mean_off_s",
    "delta": "delta",
    "outage": "outage", "outage_policy": "outage_policy",
    "jitter_ms": "jitter_ms", "jitter_period_s": "jitter_period_s",
    "ecn_threshold": "ecn_threshold", "ecn": "ecn_threshold",
}

_ADHOC_NONE = ("none", "inf", "nodrop")


def _adhoc_setting(key: str, value: object) -> object:
    target = _ADHOC_KEYS[key]
    if target in ("buffer_bdp", "buffer_bytes", "ecn_threshold"):
        if value is None or (isinstance(value, str)
                             and value.lower() in _ADHOC_NONE):
            return None
        return float(value)
    if target == "n_senders":
        return int(value)
    if target in ("queue", "outage_policy"):
        return str(value)
    if target == "outage":
        token = str(value)
        parse_outage_token(token)       # eager validation at parse time
        return token
    return float(value)


def _adhoc_dynamics(settings: Mapping[str, object]
                    ) -> Optional[DynamicsSpec]:
    """The DynamicsSpec for a settings dict, or None when all-static."""
    windows = parse_outage_token(str(settings["outage"]))
    jitter_ms = float(settings["jitter_ms"])
    if not windows and jitter_ms == 0:
        return None
    schedule = LinkSchedule(
        outages=windows,
        outage_policy=str(settings["outage_policy"]),
        jitter_ms=jitter_ms,
        jitter_period_s=(float(settings["jitter_period_s"])
                         if jitter_ms > 0 else 0.0))
    return DynamicsSpec(links=(schedule,))


def adhoc_spec(axes: Sequence[Axis],
               schemes: Sequence[str],
               name: str = "sweep",
               base: Optional[AdhocBase] = None,
               bound: bool = True) -> ExperimentSpec:
    """A spec for an arbitrary dumbbell grid.

    ``axes`` sweep any :data:`AdhocBase` knob (aliases: ``link_mbps`` /
    ``speed_mbps``, ``senders`` / ``n_senders``, ...); everything not
    swept comes from ``base``.  ``schemes`` mixes registered protocol
    names (``cubic``, ``newreno``, ...) with trained Tao asset names
    (run as homogeneous ``"learner"`` senders).  ``bound=True`` adds the
    analytic omniscient reference row per grid point.

    The result plugs into :func:`run_experiment` exactly like a
    registered spec — jobs fan-out, store resume, and the shared
    renderers included.
    """
    base = base or AdhocBase()
    axes = tuple(axes)
    for axis in axes:
        if axis.name not in _ADHOC_KEYS:
            raise ValueError(
                f"unknown sweep axis {axis.name!r}; "
                f"known: {sorted(_ADHOC_KEYS)}")
        for value in axis.values:
            # Eager validation at spec time: a malformed value (a bad
            # outage token, a non-numeric rtt) must fail here, naming
            # itself, not as a traceback mid-grid.
            try:
                _adhoc_setting(axis.name, value)
            except ValueError as error:
                raise ValueError(
                    f"axis {axis.name!r} value {value!r}: "
                    f"{error}") from None
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("need at least one scheme")
    named = set(available_schemes())

    def settings_for(point: Mapping[str, object]) -> Dict[str, object]:
        settings = {f.name: getattr(base, f.name)
                    for f in fields(AdhocBase)}
        for key, value in point.items():
            settings[_ADHOC_KEYS[key]] = _adhoc_setting(key, value)
        return settings

    def build(scheme: str, point: Mapping[str, object]) -> Cell:
        settings = settings_for(point)
        n = int(settings["n_senders"])
        if scheme in named:
            kinds: Tuple[str, ...] = (scheme,) * n
            trees = None
        else:
            kinds = ("learner",) * n
            trees = {"learner": scheme}
        config = NetworkConfig(
            link_speeds_mbps=(float(settings["link_mbps"]),),
            rtt_ms=float(settings["rtt_ms"]),
            sender_kinds=kinds,
            deltas=(float(settings["delta"]),) * n,
            mean_on_s=float(settings["mean_on_s"]),
            mean_off_s=float(settings["mean_off_s"]),
            buffer_bdp=settings["buffer_bdp"],
            buffer_bytes=settings["buffer_bytes"],
            queue=str(settings["queue"]),
            dynamics=_adhoc_dynamics(settings),
            ecn_threshold=settings["ecn_threshold"])
        return Cell(config, trees)

    def metrics(scheme: str, point: Mapping[str, object],
                config: NetworkConfig,
                runs: Sequence[RunResult]) -> Dict[str, object]:
        row = summary_metrics(scheme, point, config, runs)
        row["utilization"] = (sum(result.bottleneck_utilization
                                  for result in runs) / len(runs))
        return row

    reference: Optional[ReferenceFn] = None
    if bound:
        def reference(point: Mapping[str, object]) -> Dict[str, object]:
            # The bound reads only the network, which every scheme of a
            # grid point shares.
            return dumbbell_reference(build(schemes[0], point).config)

    return ExperimentSpec(
        name=name, schemes=schemes, axes=axes, build=build,
        metrics=metrics, reference=reference,
        title=f"ad-hoc sweep {name!r}")
