"""TCP NewReno (RFC 6582) congestion control.

The paper compares against NewReno directly in the TCP-awareness
experiment (Figure 7) and uses an AIMD scheme "similar to TCP NewReno"
as Remy's model of incumbent cross-traffic.  This implementation has the
full classic state machine:

* slow start / congestion avoidance split at ``ssthresh``,
* fast retransmit entry on the third duplicate ACK (the transport
  triggers :meth:`on_loss`),
* fast recovery with window inflation on duplicate ACKs and deflation on
  exit, per RFC 6582's NewReno refinement of Reno,
* timeout: ``ssthresh = cwnd/2``, window back to 1, slow start.
"""

from __future__ import annotations

import numpy as np

from .base import AckContext, CongestionController, FluidKernel, FluidStep

__all__ = ["NewRenoController", "NewRenoFluid"]


class NewRenoController(CongestionController):
    """Classic TCP NewReno."""

    name = "newreno"

    def __init__(self, initial_window: float = 2.0,
                 reset_each_on: bool = False):
        super().__init__()
        self.initial_window = initial_window
        self.reset_each_on = reset_each_on
        self.window = initial_window
        self.ssthresh = float("inf")
        self._in_recovery = False
        self._started = False

    def on_flow_start(self, now: float) -> None:
        # The connection persists across application on/off cycles (as
        # in the paper's ns-2 runs); state resets only on request.
        if self._started and not self.reset_each_on:
            return
        self._started = True
        self.window = self.initial_window
        self.ssthresh = float("inf")
        self._in_recovery = False

    def on_ack(self, ctx: AckContext) -> None:
        if self._in_recovery and ctx.in_recovery:
            # Hold the window during fast recovery.  The transport's
            # exact pipe accounting replaces RFC 6582's inflation/
            # deflation dance (which only existed to estimate the pipe
            # from cumulative ACKs).
            return
        if self.window < self.ssthresh:
            self.window += ctx.newly_acked               # slow start
        else:
            self.window += ctx.newly_acked / self.window  # congestion avoid.
        self._clamp_window()

    def on_loss(self, now: float) -> None:
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
        self._in_recovery = False


class NewRenoFluid(FluidKernel):
    """Fluid port of slow start / congestion avoidance with halving on
    loss — also all of AIMD at its defaults, so both names list it.
    The loop's loss recovery stands in for fast recovery."""

    state = {"ssthresh": np.inf}

    def loss(self, step: FluidStep, lost) -> None:
        self.ssthresh = np.where(lost, np.maximum(step.w * 0.5, 2.0),
                                 self.ssthresh)
        step.w = np.where(lost, self.ssthresh, step.w)

    def ack(self, step: FluidStep) -> None:
        w, acks = step.w, step.acks
        grow = step.grow & self.lanes
        in_ss = grow & (w < self.ssthresh)
        w = np.where(in_ss, w + acks, w)
        step.w = np.where(grow & ~in_ss, w + acks / w, w)
