"""TCP Vegas (Brakmo, O'Malley, Peterson 1994).

Vegas is the paper's canonical cautionary tale (section 4.5): a
delay-based protocol that performs beautifully against its own kind but
is "squeezed out by the more-aggressive cross-traffic produced by
traditional TCP", which is why delay-based designs saw little adoption
— and exactly the fate the TCP-naive Tao meets in Figure 7.  Including
it lets users reproduce that classic squeeze directly against this
repository's NewReno/Cubic.

Algorithm (congestion avoidance, per RTT):

    diff = cwnd / base_rtt - cwnd / rtt        # packets "in the queue"
    diff < alpha  ->  cwnd += 1
    diff > beta   ->  cwnd -= 1
    otherwise         hold

with the classic alpha=1, beta=3 thresholds, plus a Vegas-flavoured
slow start that doubles only every other RTT and exits once diff
exceeds gamma.
"""

from __future__ import annotations

import numpy as np

from .base import AckContext, CongestionController, FluidKernel, FluidStep

__all__ = ["VegasController", "VegasFluid"]


class VegasController(CongestionController):
    """Delay-based TCP Vegas."""

    name = "vegas"

    def __init__(self, alpha: float = 1.0, beta: float = 3.0,
                 gamma: float = 1.0, initial_window: float = 2.0,
                 reset_each_on: bool = False):
        super().__init__()
        if not 0 < alpha <= beta:
            raise ValueError("need 0 < alpha <= beta")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.initial_window = initial_window
        self.reset_each_on = reset_each_on
        self.window = initial_window
        self.base_rtt = float("inf")
        self._in_slow_start = True
        self._grow_this_round = True
        self._round_end = 0.0
        self._round_min_rtt = float("inf")
        self._started = False
        self._in_recovery = False

    def on_flow_start(self, now: float) -> None:
        if self._started and not self.reset_each_on:
            return
        self._started = True
        self.window = self.initial_window
        self.base_rtt = float("inf")
        self._in_slow_start = True
        self._grow_this_round = True
        self._round_end = 0.0
        self._round_min_rtt = float("inf")
        self._in_recovery = False

    def on_ack(self, ctx: AckContext) -> None:
        rtt = ctx.rtt_sample
        if rtt <= 0:
            return
        if rtt < self.base_rtt:
            self.base_rtt = rtt
        if rtt < self._round_min_rtt:
            self._round_min_rtt = rtt
        if self._in_recovery and ctx.in_recovery:
            return
        if ctx.now >= self._round_end:
            self._end_of_round(ctx.now)

    def _end_of_round(self, now: float) -> None:
        rtt = self._round_min_rtt if self._round_min_rtt < float("inf") \
            else self.base_rtt
        self._round_end = now + rtt
        self._round_min_rtt = float("inf")
        # Expected vs actual rate difference, in packets of queue.
        diff = self.window * (1.0 - self.base_rtt / rtt)
        if self._in_slow_start:
            if diff > self.gamma:
                self._in_slow_start = False
                self.window -= diff   # drain the overshoot
            elif self._grow_this_round:
                self.window *= 2.0
            self._grow_this_round = not self._grow_this_round
        else:
            if diff < self.alpha:
                self.window += 1.0
            elif diff > self.beta:
                self.window -= 1.0
        self._clamp_window(minimum=2.0)

    def on_loss(self, now: float) -> None:
        # Vegas halves less aggressively than Reno on actual loss.
        self.window = max(self.window * 0.75, 2.0)
        self._in_slow_start = False
        self._in_recovery = True

    def on_recovery_exit(self, ctx: AckContext) -> None:
        self._in_recovery = False

    def on_timeout(self, now: float) -> None:
        self.window = 2.0
        self._in_slow_start = True
        self._in_recovery = False


class VegasFluid(FluidKernel):
    """Fluid port of the per-RTT ``diff`` rule at the classic
    alpha = gamma = 1, beta = 3; rounds are timed on the ACK clock."""

    state = dict(base_rtt=np.inf, round_end=0.0, round_min=np.inf,
                 in_ss=True, grow_round=True)

    def loss(self, step: FluidStep, lost) -> None:
        step.w = np.where(lost, np.maximum(step.w * 0.75, 2.0), step.w)
        self.in_ss &= ~lost

    def ack(self, step: FluidStep) -> None:
        acked = step.acked & self.lanes
        if not acked.any():
            return
        t, w, rtt = step.t, step.w, step.rtt_sample
        self.base_rtt = np.where(acked, np.minimum(self.base_rtt, rtt),
                                 self.base_rtt)
        self.round_min = np.where(acked, np.minimum(self.round_min, rtt),
                                  self.round_min)
        due = step.grow & self.lanes & (t >= self.round_end)
        if not due.any():
            return
        rtt_r = np.where(np.isfinite(self.round_min), self.round_min,
                         self.base_rtt)
        # Lanes never ACKed hold base = rtt = inf; they are not due, so
        # leave their ratio at 1 rather than inf / inf.
        ratio = np.divide(self.base_rtt, np.maximum(rtt_r, 1e-9),
                          where=np.isfinite(self.base_rtt),
                          out=np.ones_like(self.base_rtt))
        diff = w * (1.0 - ratio)
        ss = due & self.in_ss
        exit_ss = ss & (diff > 1.0)
        w = np.where(exit_ss, w - diff, w)
        self.in_ss &= ~exit_ss
        w = np.where(ss & ~exit_ss & self.grow_round, w * 2.0, w)
        self.grow_round = np.where(ss, ~self.grow_round, self.grow_round)
        ca = due & ~ss
        w = np.where(ca & (diff < 1.0), w + 1.0, w)
        w = np.where(ca & (diff > 3.0), w - 1.0, w)
        step.w = np.where(due, np.maximum(w, 2.0), w)
        self.round_end = np.where(due, t + rtt_r, self.round_end)
        self.round_min = np.where(due, np.inf, self.round_min)
