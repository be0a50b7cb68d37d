"""The congestion-controller interface.

Every scheme in the study — TCP NewReno, Cubic, the AIMD cross-traffic
stand-in, and RemyCC/Tao rule tables — implements
:class:`CongestionController`.  The surrounding transport machinery
(:mod:`repro.protocols.transport`) is *shared*: cumulative ACKs, duplicate
ACK counting, fast retransmit, and retransmission timeouts are identical
across schemes, so performance differences isolate the congestion-control
*policy*, mirroring how the paper runs every scheme inside the same ns-2
harness.

The controller sees three kinds of events:

* ``on_ack`` — a new cumulative ACK arrived (window should usually grow),
* ``on_dupack`` — a duplicate ACK arrived (Reno-style window inflation
  hooks),
* ``on_loss`` / ``on_timeout`` — loss detected by triple-dupack or by the
  retransmission timer.

and exposes two knobs the transport reads before each transmission:

* :attr:`CongestionController.window` — the congestion window in packets,
* :meth:`CongestionController.pacing_interval` — the minimum spacing
  between transmissions (0 disables pacing; only RemyCC uses it, via the
  tau component of its actions — paper section 3.5).
"""

from __future__ import annotations

import numpy as np

__all__ = ["AckContext", "CongestionController", "MAX_WINDOW_PACKETS",
           "FluidStep", "FluidKernel"]

#: Safety cap on any scheme's congestion window.
MAX_WINDOW_PACKETS = 1_000_000.0


class AckContext:
    """Everything a controller may want to know about an arriving ACK."""

    __slots__ = ("now", "rtt_sample", "newly_acked", "cum_ack",
                 "echo_sent_at", "receiver_time", "in_recovery",
                 "base_rtt", "ecn_echo")

    def __init__(self, now: float, rtt_sample: float, newly_acked: int,
                 cum_ack: int, echo_sent_at: float, receiver_time: float,
                 in_recovery: bool, base_rtt: float,
                 ecn_echo: bool = False):
        self.now = now
        self.rtt_sample = rtt_sample
        self.newly_acked = newly_acked
        self.cum_ack = cum_ack
        self.echo_sent_at = echo_sent_at
        self.receiver_time = receiver_time
        self.in_recovery = in_recovery
        self.base_rtt = base_rtt
        self.ecn_echo = ecn_echo


class CongestionController:
    """Base class; subclasses override the event hooks they care about."""

    #: Human-readable scheme name (used in results tables).
    name = "base"

    #: ECN-capable schemes set this True: the transport then stamps
    #: outgoing data packets ECT so ECN-enabled queues mark instead of
    #: dropping, and CE echoes arrive via :attr:`AckContext.ecn_echo`.
    ecn = False

    def __init__(self) -> None:
        self.window: float = 1.0

    # -- lifecycle -----------------------------------------------------
    def on_flow_start(self, now: float) -> None:
        """Called when the application turns the sender on.

        The paper's on/off model treats each "on" period as a fresh
        transfer, so controllers reset their congestion state here.
        """

    # -- ACK clock -----------------------------------------------------
    def on_ack(self, ctx: AckContext) -> None:
        """A cumulative ACK advanced the left edge of the window."""

    def on_dupack(self, ctx: AckContext) -> None:
        """A duplicate ACK arrived (window inflation hooks)."""

    # -- loss ----------------------------------------------------------
    def on_loss(self, now: float) -> None:
        """Triple-dupack loss: fast retransmit was just triggered."""

    def on_recovery_exit(self, ctx: AckContext) -> None:
        """The ACK covering the recovery point arrived (deflate window)."""

    def on_timeout(self, now: float) -> None:
        """The retransmission timer fired."""

    # -- knobs read by the transport ------------------------------------
    def pacing_interval(self) -> float:
        """Minimum seconds between transmissions; 0 disables pacing."""
        return 0.0

    def _clamp_window(self, minimum: float = 1.0) -> None:
        if self.window < minimum:
            self.window = minimum
        elif self.window > MAX_WINDOW_PACKETS:
            self.window = MAX_WINDOW_PACKETS


class FluidStep:
    """One :mod:`repro.sim.fluid` step as a kernel sees it: the
    :class:`AckContext` of ``(seeds, flows)`` arrays.  Kernels rebind,
    or assign into, ``w`` and ``pace_tau``; the rest is read-only."""

    __slots__ = (
        "t", "dt",         # step start and length, seconds
        "w", "pace_tau",   # windows, packets; pacing gaps, s (0: unpaced)
        "acks",            # packets ACKed this step (fractional)
        "acked", "grow",   # started lanes with ACKs; those not in recovery
        "rtt_sample",      # the RTT those ACKs measured
        "sent_lag",        # the send rate when they were sent, packets/s
        "marked",          # their CE-mark indicator; None with ECN off
    )


class FluidKernel:
    """A scheme's fluid port: its controller's rules as array updates
    over the scheme's ``lanes`` (a ``(flows,)`` mask, broadcast across
    seeds).  Every hook must be elementwise and change its own lanes
    only — ``np.where(mask & self.lanes, new, old)``; ``start`` and
    ``loss`` get masks already cut to them — so kernels are independent
    and a batched seed is bitwise the seed alone.  Loss detection is the
    loop's, as it is the transport's: a loss opens a one-RTT recovery
    (``grow`` false, no further ``loss``)."""

    #: Window of a lane before its first ACK.
    initial_window = 2.0
    #: Private state, name -> initial value: ``(seeds, flows)`` arrays.
    state: dict = {}

    def __init__(self, lanes, shape) -> None:
        self.lanes = lanes
        for name, value in self.state.items():
            setattr(self, name, np.full(shape, value))

    def start(self, step: FluidStep, turning_on) -> None:
        """An on-period begins (TCP state outlives it: no-op here)."""

    def loss(self, step: FluidStep, lost) -> None:
        """A loss signal reached the ``lost`` lanes."""

    def ack(self, step: FluidStep) -> None:
        """The ACK clock ticked: mark reaction and window growth."""
