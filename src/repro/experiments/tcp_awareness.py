"""Experiment E6/E7 — knowledge about incumbent endpoints (Table 6,
Figures 7 and 8).

Two Taos trained on a 10 Mbps / 100 ms dumbbell with a 250 kB buffer:
``tao_tcp_naive`` expects only its own kind; ``tao_tcp_aware`` saw AIMD
(NewReno-like) cross-traffic in half its training scenarios.  Testing
(Table 6b) runs each against its own kind ("homogeneous") and against
TCP NewReno ("mixed"), plus a NewReno-only cell for reference.

Figure 7's findings: in homogeneous settings TCP-awareness *costs*
(standing queues double the delay); against real TCP the naive Tao is
squeezed out while the aware one claims its fair share and lowers
everyone's delay.

Figure 8 inspects the time domain: cross-traffic switches on at exactly
t=5 s and off at t=10 s while the bottleneck queue is traced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.scenario import NetworkConfig
from ..exec import BackendRefusal
from ..remy.assets import load_tree
from ..remy.tree import WhiskerTree
from .api import (Cell, CustomRun, Experiment, ExperimentSpec,
                  SweepResult, kind_ellipse_metrics, register)
from .common import build_simulation

__all__ = ["CELLS", "SPEC", "format_table", "QueueTraceResult",
           "run_queue_trace"]

#: 250 kB buffer = 200 ms of queueing at 10 Mbps (Figure 7's caption).
_BUFFER_BYTES = 250_000.0

#: The Table 6b testing cells: name -> (sender kinds, which tree).
CELLS: Dict[str, Tuple[Tuple[str, ...], Optional[str]]] = {
    "naive_homogeneous": (("learner", "learner"), "tao_tcp_naive"),
    "aware_homogeneous": (("learner", "learner"), "tao_tcp_aware"),
    "naive_vs_newreno": (("learner", "newreno"), "tao_tcp_naive"),
    "aware_vs_newreno": (("learner", "newreno"), "tao_tcp_aware"),
    "newreno_only": (("newreno", "newreno"), None),
}


def _test_config(kinds: Tuple[str, ...]) -> NetworkConfig:
    """Table 6b: 10 Mbps, 100 ms, 5 s ON / 10 ms OFF, 250 kB buffer."""
    return NetworkConfig(
        link_speeds_mbps=(10.0,), rtt_ms=100.0, sender_kinds=kinds,
        deltas=tuple(1.0 for _ in kinds),
        mean_on_s=5.0, mean_off_s=0.01, buffer_bytes=_BUFFER_BYTES,
        buffer_bdp=None, queue="droptail")


def _build(cell_name: str, point: Mapping[str, object]) -> Cell:
    kinds, tree_name = CELLS[cell_name]
    trees = {"learner": tree_name} if tree_name else None
    return Cell(_test_config(kinds), trees)


def format_table(result: SweepResult) -> str:
    """Figure 7 as text: one line per (testing cell, sender kind)."""
    lines = ["TCP-awareness (Table 6 / Figure 7)",
             f"{'cell':<22} {'kind':<10} {'tpt (Mbps)':>11} "
             f"{'qdelay (ms)':>12}"]
    for cell_name in CELLS:
        for row in sorted(result.select(cell_name),
                          key=lambda row: row["kind"]):
            lines.append(
                f"{cell_name:<22} {row['kind']:<10} "
                f"{row['median_throughput_bps'] / 1e6:>11.2f} "
                f"{row['median_delay_s'] * 1e3:>12.1f}")
    return "\n".join(lines)


SPEC = ExperimentSpec(
    name="tcp_awareness",
    title="E6 Figure 7 / Table 6 — TCP-awareness",
    schemes=tuple(CELLS),
    axes=(),
    build=_build,
    metrics=kind_ellipse_metrics,
    assets=("tao_tcp_naive", "tao_tcp_aware"),
    table=format_table,
)

register(Experiment("E6", SPEC))


# ----------------------------------------------------------------------
# Figure 8: the queue trace with scheduled cross-traffic.
# ----------------------------------------------------------------------
@dataclass
class QueueTraceResult:
    """Bottleneck queue occupancy under scheduled TCP cross-traffic."""

    scheme: str                      # "tao_tcp_aware" or "tao_tcp_naive"
    times: np.ndarray
    queue_packets: np.ndarray
    drop_times: List[float]
    tcp_interval: Tuple[float, float]

    def mean_queue(self, start: float, stop: float) -> float:
        mask = (self.times >= start) & (self.times < stop)
        if not np.any(mask):
            return 0.0
        return float(np.mean(self.queue_packets[mask]))


def run_queue_trace(scheme: str = "tao_tcp_aware",
                    tree: Optional[WhiskerTree] = None,
                    duration_s: float = 15.0,
                    tcp_on_at: float = 5.0,
                    tcp_off_at: float = 10.0,
                    seed: int = 1) -> QueueTraceResult:
    """Figure 8: trace the bottleneck queue while a NewReno flow turns
    on at exactly ``tcp_on_at`` and off at ``tcp_off_at``."""
    if tree is None:
        tree = load_tree(scheme)
    config = _test_config(("learner", "newreno"))
    handle = build_simulation(
        config, trees={"learner": tree}, seed=seed, trace_queues=True,
        workload_intervals={
            0: [(0.0, duration_s)],                  # Tao always on
            1: [(tcp_on_at, tcp_off_at)],            # contrived TCP
        })
    handle.run(duration_s)
    trace = handle.traces["A->B"]
    times, lengths = trace.sample(step_s=0.05, until=duration_s)
    return QueueTraceResult(
        scheme=scheme, times=times, queue_packets=lengths,
        drop_times=trace.drop_times(),
        tcp_interval=(tcp_on_at, tcp_off_at))


def _queue_trace_report(scale, trees, executor, backend) -> str:
    if backend != "packet":
        # The trace samples a packet queue; the fluid model has none.
        raise BackendRefusal("custom runner requires the packet backend")
    lines = ["Figure 8 — queue traces (TCP on during [5 s, 10 s)):"]
    for scheme in ("tao_tcp_aware", "tao_tcp_naive"):
        trace = run_queue_trace(scheme, tree=(trees or {}).get(scheme),
                                seed=1)
        lines.append(
            f"{scheme:<15} queue alone={trace.mean_queue(1, 5):7.1f} "
            f"pkts  with TCP={trace.mean_queue(6, 10):7.1f} pkts  "
            f"drops={len(trace.drop_times)}")
    return "\n".join(lines)


register(Experiment("E7", custom=CustomRun(
    name="queue_trace", title="E7 Figure 8 — queue traces",
    assets=("tao_tcp_aware", "tao_tcp_naive"),
    run=_queue_trace_report)))
