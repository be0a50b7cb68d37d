"""DCTCP congestion control (Alizadeh et al., SIGCOMM 2010).

DCTCP is the canonical ECN-proportional scheme: switches mark packets
with CE once the instantaneous queue exceeds a threshold *K*
(:class:`~repro.sim.queues.DropTailQueue` ``ecn_threshold``), receivers
echo the marks, and the sender keeps an EWMA ``alpha`` of the *fraction*
of marked packets per window of data:

    alpha <- (1 - g) * alpha + g * F        (g = 1/16)

and on a round that saw any mark cuts multiplicatively in proportion::

    cwnd <- cwnd * (1 - alpha / 2)

A fully marked window (alpha = 1) behaves like Reno's halving; a lightly
marked one gives back only a sliver, which is what keeps the queue
pinned near *K* with high utilization.  Loss (buffer overflow, or an
ECN-less bottleneck) falls back to NewReno-style halving, so the scheme
degrades to Reno when the network offers no marks — the same fallback
the original deployment relies on.
"""

from __future__ import annotations

import numpy as np

from .base import AckContext, CongestionController, FluidStep
from .newreno import NewRenoFluid

__all__ = ["DCTCPController", "DCTCP_GAIN", "DCTCPFluid"]

#: EWMA gain for the marked fraction (the paper's g = 1/16).
DCTCP_GAIN = 1.0 / 16.0


class DCTCPController(CongestionController):
    """DCTCP: EWMA of the ECN-marked fraction, proportional decrease."""

    name = "dctcp"
    ecn = True

    def __init__(self, initial_window: float = 2.0, gain: float = DCTCP_GAIN,
                 reset_each_on: bool = False):
        super().__init__()
        self.initial_window = initial_window
        self.gain = gain
        self.reset_each_on = reset_each_on
        self._started = False
        self._reset()

    def _reset(self) -> None:
        self.window = self.initial_window
        self.ssthresh = float("inf")
        self.alpha = 0.0
        self._in_recovery = False
        # One observation window of data (~one RTT, measured in
        # sequence space as the paper does): marks/ACKs are tallied
        # until the cumulative ACK passes the sequence that was next
        # when the window opened.
        self._round_end = -1
        self._acked_in_round = 0
        self._marked_in_round = 0
        self._cut_pending = False

    def on_flow_start(self, now: float) -> None:
        if self._started and not self.reset_each_on:
            return
        self._started = True
        self._reset()

    def _end_round(self, ctx: AckContext) -> None:
        total = self._acked_in_round
        if total > 0:
            fraction = self._marked_in_round / total
            self.alpha += self.gain * (fraction - self.alpha)
            if self._cut_pending:
                # Proportional decrease, once per marked round.
                self.window *= 1.0 - self.alpha / 2.0
                self.ssthresh = max(self.window, 2.0)
                self._clamp_window()
        self._round_end = ctx.cum_ack + int(self.window)
        self._acked_in_round = 0
        self._marked_in_round = 0
        self._cut_pending = False

    def on_ack(self, ctx: AckContext) -> None:
        self._acked_in_round += ctx.newly_acked
        if ctx.ecn_echo:
            self._marked_in_round += ctx.newly_acked
            self._cut_pending = True
        if self._round_end < 0:
            self._round_end = ctx.cum_ack + int(self.window)
        elif ctx.cum_ack >= self._round_end:
            self._end_round(ctx)
        if self._in_recovery and ctx.in_recovery:
            return
        if self.window < self.ssthresh and not self._cut_pending:
            self.window += ctx.newly_acked               # slow start
        else:
            self.window += ctx.newly_acked / self.window  # cong. avoid
        self._clamp_window()

    def on_dupack(self, ctx: AckContext) -> None:
        # Marks ride dupacks too; count the mark, not the (zero) data.
        if ctx.ecn_echo:
            self._cut_pending = True

    def on_loss(self, now: float) -> None:
        # Real loss: Reno fallback (an overflowing or ECN-less queue).
        self.ssthresh = max(self.window / 2.0, 2.0)
        self.window = self.ssthresh
        self._in_recovery = True
        self._clamp_window()

    def on_recovery_exit(self, ctx: AckContext) -> None:
        self.window = self.ssthresh
        self._in_recovery = False
        self._clamp_window()

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.window / 2.0, 2.0)
        self.window = 1.0
        self.alpha = min(1.0, self.alpha + self.gain * (1.0 - self.alpha))
        self._in_recovery = False


class DCTCPFluid(NewRenoFluid):
    """Fluid port: Reno, plus the reaction to the link model's marks.
    Marked and total ACKs are tallied over one RTT round; its end folds
    the fraction into alpha and, if nonzero, cuts once by alpha / 2."""

    state = dict(NewRenoFluid.state, alpha=0.0, round_end=-np.inf,
                 n_acked=0.0, n_marked=0.0)

    def ack(self, step: FluidStep) -> None:
        if step.marked is not None:
            t, acks = step.t, step.acks
            acked = step.acked & self.lanes
            self.n_acked = np.where(acked, self.n_acked + acks, self.n_acked)
            self.n_marked = np.where(acked & step.marked,
                                     self.n_marked + acks, self.n_marked)
            due = acked & (t >= self.round_end)
            if due.any():
                self._end_round(step, due)
        super().ack(step)

    def _end_round(self, step: FluidStep, due) -> None:
        frac = np.divide(self.n_marked, self.n_acked,
                         where=self.n_acked > 0.0,
                         out=np.zeros_like(self.n_marked))
        self.alpha = np.where(
            due, self.alpha + DCTCP_GAIN * (frac - self.alpha), self.alpha)
        cut = due & (frac > 0.0)
        step.w = w = np.where(
            cut, np.maximum(step.w * (1.0 - self.alpha / 2.0), 2.0), step.w)
        self.ssthresh = np.where(cut, np.maximum(w, 2.0), self.ssthresh)
        self.n_acked = np.where(due, 0.0, self.n_acked)
        self.n_marked = np.where(due, 0.0, self.n_marked)
        self.round_end = np.where(due, step.t + step.rtt_sample,
                                  self.round_end)
