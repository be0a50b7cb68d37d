"""TCP Cubic (Ha, Rhee, Xu 2008; RFC 8312).

Cubic is the paper's primary human-designed baseline: "the default
end-to-end congestion-control algorithm on Linux".  The window grows as
a cubic function of time since the last decrease,

    W_cubic(t) = C * (t - K)^3 + W_max,      K = cbrt(W_max * beta / C)

so it is concave up to the pre-loss window W_max, plateaus there, then
probes convexly — independent of RTT.  A "TCP-friendly" lower bound
keeps it at least as aggressive as AIMD(0.53, 0.7)-equivalent Reno in
short-RTT regimes (RFC 8312 section 4.2).

Loss handling (fast recovery entry/exit, timeouts) follows the same
transport events as NewReno; Cubic only changes the growth and decrease
rules.
"""

from __future__ import annotations

import numpy as np

from .base import AckContext, CongestionController, FluidKernel, FluidStep

__all__ = ["CubicController", "CUBIC_C", "CUBIC_BETA", "CubicFluid"]

#: Cubic scaling constant (RFC 8312 section 5).
CUBIC_C = 0.4

#: Multiplicative decrease: window shrinks to 70% on loss.
CUBIC_BETA = 0.7


class CubicController(CongestionController):
    """TCP Cubic with the TCP-friendly region."""

    name = "cubic"

    def __init__(self, initial_window: float = 2.0,
                 c: float = CUBIC_C, beta: float = CUBIC_BETA,
                 fast_convergence: bool = True,
                 hystart: bool = True,
                 reset_each_on: bool = False):
        super().__init__()
        self.initial_window = initial_window
        self.c = c
        self.beta = beta
        self.fast_convergence = fast_convergence
        self.hystart = hystart
        self.reset_each_on = reset_each_on
        self.window = initial_window
        self.ssthresh = float("inf")
        self._w_max = 0.0
        self._k = 0.0
        self._epoch_start: float | None = None
        self._w_tcp = 0.0
        self._in_recovery = False
        self._started = False
        # HyStart round state.
        self._round_end_time = 0.0
        self._round_min_rtt = float("inf")
        self._prev_round_min_rtt = float("inf")
        self._round_samples = 0

    def on_flow_start(self, now: float) -> None:
        # Like the paper's ns-2 setup, the TCP connection persists across
        # the application's on/off cycles: congestion state is kept
        # unless ``reset_each_on`` asks for fresh-transfer semantics.
        if self._started and not self.reset_each_on:
            return
        self._started = True
        self.window = self.initial_window
        self.ssthresh = float("inf")
        self._w_max = 0.0
        self._epoch_start = None
        self._in_recovery = False
        self._round_end_time = 0.0
        self._round_min_rtt = float("inf")
        self._prev_round_min_rtt = float("inf")
        self._round_samples = 0

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def on_ack(self, ctx: AckContext) -> None:
        if self._in_recovery and ctx.in_recovery:
            return
        if self.window < self.ssthresh:
            # HyStart (Linux Cubic's safe slow-start exit): leave slow
            # start once this round's RTT floor has risen appreciably
            # over the previous round's, instead of blasting until the
            # buffer overflows.
            if self.hystart and self._hystart_exit(ctx):
                self.ssthresh = self.window
            else:
                self.window += ctx.newly_acked   # classic slow start
                self._clamp_window()
                return
        for _ in range(ctx.newly_acked):
            self._cubic_update(ctx.now, ctx.rtt_sample)
        self._clamp_window()

    def _hystart_exit(self, ctx: AckContext) -> bool:
        """Round-based delay-increase detection (HyStart, as in Linux)."""
        if ctx.now >= self._round_end_time:
            self._prev_round_min_rtt = self._round_min_rtt
            self._round_min_rtt = float("inf")
            self._round_samples = 0
            self._round_end_time = ctx.now + ctx.rtt_sample
        if self._round_samples < 8:
            self._round_samples += 1
            if ctx.rtt_sample < self._round_min_rtt:
                self._round_min_rtt = ctx.rtt_sample
        if (self._round_samples < 8
                or self._prev_round_min_rtt == float("inf")):
            return False
        eta = min(max(self._prev_round_min_rtt / 8.0, 0.004), 0.016)
        return self._round_min_rtt >= self._prev_round_min_rtt + eta


    def _cubic_update(self, now: float, rtt: float) -> None:
        if self._epoch_start is None:
            self._epoch_start = now
            if self._w_max < self.window:
                self._w_max = self.window
            self._k = ((self._w_max * (1.0 - self.beta)) / self.c) ** (1 / 3)
            self._w_tcp = self.window
        t = now - self._epoch_start
        target = self.c * (t - self._k) ** 3 + self._w_max

        # TCP-friendly region: emulated Reno window with the AIMD
        # parameters that match Cubic's average rate (RFC 8312 eq. 4).
        rtt = max(rtt, 1e-6)
        self._w_tcp += (3.0 * (1.0 - self.beta) / (1.0 + self.beta)) \
            / self.window
        target = max(target, self._w_tcp)

        if target > self.window:
            # Approach the target over the next RTT: per-ack increment.
            self.window += (target - self.window) / self.window
        else:
            # Sub-target (plateau): probe very gently.
            self.window += 0.01 / self.window

    # ------------------------------------------------------------------
    # Decrease
    # ------------------------------------------------------------------
    def on_loss(self, now: float) -> None:
        self._epoch_start = None
        if self.fast_convergence and self.window < self._w_max:
            # Release bandwidth faster when flows are leaving.
            self._w_max = self.window * (1.0 + self.beta) / 2.0
        else:
            self._w_max = self.window
        self.window = max(self.window * self.beta, 2.0)
        self.ssthresh = self.window
        self._in_recovery = True

    def on_recovery_exit(self, ctx: AckContext) -> None:
        self.window = max(self.ssthresh, 2.0)
        self._in_recovery = False

    def on_timeout(self, now: float) -> None:
        self._epoch_start = None
        self._w_max = self.window
        self.ssthresh = max(self.window * self.beta, 2.0)
        self.window = 1.0
        self._in_recovery = False


class CubicFluid(FluidKernel):
    """Fluid port: the cubic-in-time target over the TCP-friendly
    floor, fast convergence, and HyStart with rounds timed on the ACK
    clock.  A ``nan`` epoch means none is open."""

    state = dict(ssthresh=np.inf, epoch=np.nan, w_max=0.0, k=0.0, w_tcp=0.0,
                 round_end=0.0, round_min=np.inf, prev_min=np.inf)

    def loss(self, step: FluidStep, lost) -> None:
        w = step.w
        self.w_max = np.where(
            lost, np.where(w < self.w_max, w * (1.0 + CUBIC_BETA) / 2.0, w),
            self.w_max)
        step.w = w = np.where(lost, np.maximum(w * CUBIC_BETA, 2.0), w)
        self.ssthresh = np.where(lost, w, self.ssthresh)
        self.epoch = np.where(lost, np.nan, self.epoch)

    def ack(self, step: FluidStep) -> None:
        grow = step.grow & self.lanes
        if not grow.any():
            return
        t, w, acks, rtt = step.t, step.w, step.acks, step.rtt_sample
        new_round = grow & (t >= self.round_end)
        self.prev_min = np.where(new_round, self.round_min, self.prev_min)
        round_min = np.where(new_round, np.inf, self.round_min)
        self.round_end = np.where(new_round, t + rtt, self.round_end)
        self.round_min = np.where(grow, np.minimum(round_min, rtt),
                                  round_min)
        ss = grow & (w < self.ssthresh)
        eta = np.minimum(np.maximum(self.prev_min / 8.0, 0.004), 0.016)
        hexit = ss & np.isfinite(self.prev_min) \
            & (self.round_min >= self.prev_min + eta)
        self.ssthresh = np.where(hexit, w, self.ssthresh)
        ss &= ~hexit
        w = np.where(ss, w + acks, w)
        ca = grow & ~ss
        init = ca & np.isnan(self.epoch)
        if init.any():
            self.epoch = np.where(init, t, self.epoch)
            self.w_max = np.where(init, np.maximum(self.w_max, w),
                                  self.w_max)
            self.k = np.where(
                init, np.cbrt(self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C),
                self.k)
            self.w_tcp = np.where(init, w, self.w_tcp)
        target = CUBIC_C * (t - self.epoch - self.k) ** 3 + self.w_max
        self.w_tcp = np.where(
            ca, self.w_tcp + (3.0 * (1.0 - CUBIC_BETA)
                              / (1.0 + CUBIC_BETA)) * acks / w,
            self.w_tcp)
        target = np.maximum(target, self.w_tcp)
        delta = np.where(target > w,
                         (target - w) * np.minimum(acks / w, 1.0),
                         0.01 * acks / w)
        step.w = np.where(ca, w + delta, w)
