"""Experiment E8 — the price of sender diversity (Table 7, Figure 9).

Two objectives share one 10 Mbps / 100 ms bottleneck with an infinite
buffer: a throughput-sensitive sender (delta = 0.1) and a
delay-sensitive sender (delta = 10).  Each exists in two variants:
"naive" (trained only against its own kind) and "co-optimized"
(trained jointly, each against the other as fixed cross-traffic).

Figure 9's findings: co-optimization lets the two objectives coexist —
the delay-sensitive sender keeps low delay even in the mixed network —
but costs the throughput-sensitive sender some throughput ("the price
of playing nice"), both alone and mixed.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..core.scenario import NetworkConfig
from .api import (Cell, Experiment, ExperimentSpec, SweepResult,
                  kind_ellipse_metrics, register)

__all__ = ["SPEC", "SETTINGS", "format_table"]

_TPT_DELTA = 0.1
_DEL_DELTA = 10.0

#: Setting name -> ((kinds), {kind: asset}, {kind: delta}).
SETTINGS: Dict[str, Tuple[Tuple[str, ...], Dict[str, str],
                          Dict[str, float]]] = {
    "tpt_naive_alone": (
        ("learner", "learner"),
        {"learner": "tao_delta_tpt_naive"},
        {"learner": _TPT_DELTA}),
    "del_naive_alone": (
        ("learner", "learner"),
        {"learner": "tao_delta_del_naive"},
        {"learner": _DEL_DELTA}),
    "tpt_coopt_alone": (
        ("learner", "learner"),
        {"learner": "tao_delta_tpt_coopt"},
        {"learner": _TPT_DELTA}),
    "del_coopt_alone": (
        ("learner", "learner"),
        {"learner": "tao_delta_del_coopt"},
        {"learner": _DEL_DELTA}),
    "naive_mixed": (
        ("learner", "peer"),
        {"learner": "tao_delta_tpt_naive",
         "peer": "tao_delta_del_naive"},
        {"learner": _TPT_DELTA, "peer": _DEL_DELTA}),
    "coopt_mixed": (
        ("learner", "peer"),
        {"learner": "tao_delta_tpt_coopt",
         "peer": "tao_delta_del_coopt"},
        {"learner": _TPT_DELTA, "peer": _DEL_DELTA}),
}


def _config_for(kinds: Tuple[str, ...],
                deltas: Dict[str, float]) -> NetworkConfig:
    """Table 7b: 10 Mbps, 100 ms, 1 s on/off, no-drop buffer."""
    return NetworkConfig(
        link_speeds_mbps=(10.0,), rtt_ms=100.0, sender_kinds=kinds,
        deltas=tuple(deltas[k] for k in kinds),
        mean_on_s=1.0, mean_off_s=1.0, buffer_bdp=None,
        queue="droptail")


def _build(setting: str, point: Mapping[str, object]) -> Cell:
    kinds, assets, deltas = SETTINGS[setting]
    return Cell(_config_for(kinds, deltas), dict(assets))


#: What Figure 9 calls each (setting, sender kind).
_LABELS = {
    ("tpt_naive_alone", "learner"): "Tpt. sender [naive]",
    ("del_naive_alone", "learner"): "Del. sender [naive]",
    ("tpt_coopt_alone", "learner"): "Tpt. sender [co-opt]",
    ("del_coopt_alone", "learner"): "Del. sender [co-opt]",
    ("naive_mixed", "learner"): "Tpt. sender [naive]",
    ("naive_mixed", "peer"): "Del. sender [naive]",
    ("coopt_mixed", "learner"): "Tpt. sender [co-opt]",
    ("coopt_mixed", "peer"): "Del. sender [co-opt]",
}


def format_table(result: SweepResult) -> str:
    """Figure 9 as text: one line per (setting, sender kind)."""
    lines = ["Sender diversity (Table 7 / Figure 9)",
             f"{'setting':<18} {'sender':<24} {'tpt (Mbps)':>11} "
             f"{'qdelay (ms)':>12}"]
    for row in result.rows:
        setting, kind = row["scheme"], row["kind"]
        lines.append(
            f"{setting:<18} {_LABELS.get((setting, kind), kind):<24} "
            f"{row['median_throughput_bps'] / 1e6:>11.2f} "
            f"{row['median_delay_s'] * 1e3:>12.1f}")
    return "\n".join(lines)


SPEC = ExperimentSpec(
    name="diversity",
    title="E8 Figure 9 / Table 7 — sender diversity",
    schemes=tuple(SETTINGS),
    axes=(),
    build=_build,
    metrics=kind_ellipse_metrics,
    assets=("tao_delta_tpt_naive", "tao_delta_del_naive",
            "tao_delta_tpt_coopt", "tao_delta_del_coopt"),
    table=format_table,
)

register(Experiment("E8", SPEC))
