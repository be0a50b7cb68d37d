"""RemyCC: the runtime for computer-generated (Tao) congestion control.

A RemyCC sender keeps the paper's four congestion signals
(:class:`~repro.remy.memory.Memory`), and on every arriving ACK looks the
signal vector up in the rule table and applies the matched action (paper
sections 3.3 and 3.5):

* congestion window becomes ``m * cwnd + b`` (clamped to [1, cap]),
* outgoing packets are paced at least ``tau`` seconds apart.

The per-ACK path runs against the tree's compiled form
(:class:`~repro.remy.compiled.CompiledTree`): an iterative index walk
over flat arrays instead of node-object chasing, with the clipped
signal vector written into a reusable scratch buffer
(:meth:`Memory.signals_into`) so the steady state allocates nothing.
Results are bitwise-identical to ``WhiskerTree.lookup`` — the golden
trace suite pins this.

Usage recording has two modes.  By default each lookup write-throughs to
the matched :class:`~repro.remy.whisker.Whisker` exactly as the
interpreted path did, so direct users of the controller see stats on the
tree immediately.  The simulation builder instead passes a shared
:class:`~repro.remy.compiled.UsageStats` accumulator (one per tree per
run), which turns recording into flat array increments and merges back
into the tree once per run.

On a retransmission timeout the memory and window reset, mirroring the
watchdog behaviour of the authors' ns-2 RemyCC port.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..remy.compiled import CompiledTree, UsageStats
from ..remy.memory import (FAST_GAIN, SIGNAL_CAPS, SIGNAL_LOWER_BOUNDS,
                           SLOW_GAIN, Memory)
from ..remy.tree import WhiskerTree
from .base import AckContext, CongestionController, FluidKernel, FluidStep

__all__ = ["RemyCCController", "REMY_MAX_WINDOW", "RemyCCFluid"]

#: Window cap for rule-table protocols.  Large enough for the biggest
#: bandwidth-delay product in the study (1000 Mbps x 150 ms = 12500
#: packets) with headroom.
REMY_MAX_WINDOW = 20_000.0


class RemyCCController(CongestionController):
    """Window/pacing control driven by a whisker tree.

    Parameters
    ----------
    tree:
        The rule table (pre-trained asset or optimizer output).  Its
        compiled form is taken once at construction; mutating the tree
        mid-simulation is not supported.
    record_usage:
        When True, every lookup updates the matched whisker's usage
        statistics — the optimizer needs this; plain evaluation runs
        leave it off for speed.
    usage_stats:
        Optional shared flat accumulator (see
        :class:`~repro.remy.compiled.UsageStats`).  When given, hits are
        recorded there instead of written through to the whiskers; the
        owner is responsible for merging it back into the tree after the
        run (``SimulationHandle.run`` does).  All controllers driving
        the same tree in one run must share one instance so the float
        accumulation order matches the interpreted path's.
    """

    name = "remycc"

    def __init__(self, tree: WhiskerTree, record_usage: bool = False,
                 initial_window: float = 1.0,
                 usage_stats: Optional[UsageStats] = None):
        super().__init__()
        self.tree = tree
        self.record_usage = record_usage
        self.initial_window = initial_window
        self.memory = Memory()
        self.window = initial_window
        self._intersend = 0.0
        compiled = tree.compiled()
        self._compiled = compiled
        # Hot-path state unpacked into slots-free locals-per-lookup.
        self._root_ref = compiled.root_ref
        self._dims = compiled.dims
        self._thresholds = compiled.thresholds
        self._left = compiled.left
        self._right = compiled.right
        self._m = compiled.action_m
        self._b = compiled.action_b
        self._tau = compiled.action_tau
        self._signals = [0.0, 0.0, 0.0, 1.0]
        self._stats = usage_stats
        #: Leaves in compiled order, for write-through recording.
        self._leaf_whiskers = tree.whiskers() if record_usage \
            and usage_stats is None else None

    def on_flow_start(self, now: float) -> None:
        self.memory.reset()
        self.window = self.initial_window
        self._intersend = 0.0

    def on_ack(self, ctx: AckContext) -> None:
        self._update(ctx)

    def on_dupack(self, ctx: AckContext) -> None:
        # A duplicate ACK still carries timing information; RemyCC has no
        # loss-specific rule, so it treats every ACK arrival alike.
        self._update(ctx)

    def _update(self, ctx: AckContext) -> None:
        memory = self.memory
        memory.on_ack(ctx.now, ctx.echo_sent_at, ctx.rtt_sample)
        signals = self._signals
        memory.signals_into(signals)

        node = self._root_ref
        dims = self._dims
        thresholds = self._thresholds
        left = self._left
        right = self._right
        while node >= 0:
            node = left[node] if signals[dims[node]] < thresholds[node] \
                else right[node]
        leaf = ~node

        if self.record_usage:
            stats = self._stats
            if stats is not None:
                stats.counts[leaf] += 1
                base = leaf * 4
                sums = stats.sums
                sums[base] += signals[0]
                sums[base + 1] += signals[1]
                sums[base + 2] += signals[2]
                sums[base + 3] += signals[3]
            else:
                self._leaf_whiskers[leaf].record_use(signals)

        window = self.window * self._m[leaf] + self._b[leaf]
        if window < 1.0:
            window = 1.0
        elif window > REMY_MAX_WINDOW:
            window = REMY_MAX_WINDOW
        self.window = window
        self._intersend = self._tau[leaf]

    def on_timeout(self, now: float) -> None:
        self.memory.reset()
        self.window = self.initial_window
        self._intersend = 0.0

    def pacing_interval(self) -> float:
        return self._intersend


class _NumpyTree:
    """A :class:`~repro.remy.compiled.CompiledTree` as numpy arrays, with
    the masked descent that looks up the signals of its ``flows``."""

    def __init__(self, compiled: CompiledTree, flows: List[int]):
        self.flows = np.asarray(flows, dtype=np.int64)
        self.root_ref = compiled.root_ref
        self.dims = np.asarray(compiled.dims, dtype=np.int64)
        self.thresholds = np.asarray(compiled.thresholds, dtype=np.float64)
        self.left = np.asarray(compiled.left, dtype=np.int64)
        self.right = np.asarray(compiled.right, dtype=np.int64)
        self.m = np.asarray(compiled.action_m, dtype=np.float64)
        self.b = np.asarray(compiled.action_b, dtype=np.float64)
        self.tau = np.asarray(compiled.action_tau, dtype=np.float64)

    def lookup(self, signals: np.ndarray) -> np.ndarray:
        """Leaf indices for a ``(M, 4)`` batch of clipped signals."""
        node = np.full(signals.shape[0], self.root_ref, dtype=np.int64)
        while True:
            internal = node >= 0
            if not internal.any():       # at once for a single-leaf tree
                break
            idx = node[internal]
            sig = signals[internal, self.dims[idx]]
            node[internal] = np.where(sig < self.thresholds[idx],
                                      self.left[idx], self.right[idx])
        return ~node


class RemyCCFluid(FluidKernel):
    """Fluid port of the rule-table runtime: a step's ``n`` ACKs are
    ``n`` identical EWMA folds and ``n`` applications of ``w <- m * w +
    b``, both in closed form, with lookups batched per distinct tree
    (``trees[flow]`` is a lane's).  No loss rule, no usage recording."""

    initial_window = 1.0
    state = dict(rec_ewma=0.0, slow_ewma=0.0, send_ewma=0.0, have_rec=False,
                 min_rtt=np.inf, rtt_ratio=1.0)

    def __init__(self, lanes, shape,
                 trees: Sequence[Optional[WhiskerTree]]) -> None:
        super().__init__(lanes, shape)
        by_tree: Dict[int, List[int]] = {}
        for flow in np.flatnonzero(lanes):
            by_tree.setdefault(id(trees[flow]), []).append(flow)
        self.trees = [_NumpyTree(trees[flows[0]].compiled(), flows)
                      for flows in by_tree.values()]

    def start(self, step: FluidStep, fresh) -> None:
        if fresh.any():                     # each "on" is a new transfer
            step.w = np.where(fresh, self.initial_window, step.w)
            step.pace_tau = np.where(fresh, 0.0, step.pace_tau)
            for name, value in self.state.items():
                setattr(self, name, np.where(fresh, value,
                                             getattr(self, name)))

    def ack(self, step: FluidStep) -> None:
        acked = step.acked & self.lanes
        if not acked.any():
            return
        acks, rtt, sent_lag = step.acks, step.rtt_sample, step.sent_lag
        x = np.divide(step.dt, acks, where=acked, out=np.zeros_like(acks))
        # ACK interarrival EWMAs, per-ACK folds compounded: n identical
        # folds of gain g move the EWMA by 1-(1-g)^n.
        seeded = acked & self.have_rec
        first = acked & ~self.have_rec
        fold_f = 1.0 - np.power(1.0 - FAST_GAIN, acks)
        fold_s = 1.0 - np.power(1.0 - SLOW_GAIN, acks)
        rec = self.rec_ewma = np.where(
            seeded, self.rec_ewma + fold_f * (x - self.rec_ewma),
            np.where(first, x, self.rec_ewma))
        slow = self.slow_ewma = np.where(
            seeded, self.slow_ewma + fold_s * (x - self.slow_ewma),
            np.where(first, x, self.slow_ewma))
        self.have_rec |= acked
        # Intersend EWMA from the echoed send timestamps: the ACKed
        # packets were sent ~1 RTT ago at the lagged send rate.
        xs = np.divide(1.0, sent_lag, where=sent_lag > 0.0,
                       out=np.zeros_like(sent_lag))
        m_send = acked & (xs > 0.0)
        send = self.send_ewma = np.where(
            m_send & (self.send_ewma > 0.0),
            self.send_ewma + fold_f * (xs - self.send_ewma),
            np.where(m_send, xs, self.send_ewma))
        self.min_rtt = np.where(acked, np.minimum(self.min_rtt, rtt),
                                self.min_rtt)
        ratio = self.rtt_ratio = np.where(
            acked, rtt / np.where(np.isfinite(self.min_rtt),
                                  self.min_rtt, 1.0), self.rtt_ratio)
        w, lo, cap = step.w, SIGNAL_LOWER_BOUNDS, SIGNAL_CAPS
        for tree in self.trees:
            sub = acked[:, tree.flows]             # (S, F)
            if not sub.any():
                continue
            si, fi = np.nonzero(sub)
            fcols = tree.flows[fi]
            leaf = tree.lookup(np.stack([
                np.clip(rec[si, fcols], lo[0], cap[0]),
                np.clip(slow[si, fcols], lo[1], cap[1]),
                np.clip(send[si, fcols], lo[2], cap[2]),
                np.clip(ratio[si, fcols], lo[3], cap[3]),
            ], axis=1))
            m_l = tree.m[leaf]
            b_l = tree.b[leaf]
            n_l = acks[si, fcols]
            mm = np.power(m_l, n_l)
            w_sel = w[si, fcols]
            lin = np.abs(m_l - 1.0) < 1e-12
            w_new = np.where(
                lin, w_sel + b_l * n_l,
                mm * w_sel + b_l * (1.0 - mm)
                / np.where(lin, 1.0, 1.0 - m_l))
            w[si, fcols] = np.clip(w_new, 1.0, REMY_MAX_WINDOW)
            step.pace_tau[si, fcols] = tree.tau[leaf]
