"""The congestion signals tracked by RemyCC senders.

The paper's senders maintain four signals, updated on every ACK
(section 3.3):

1. ``rec_ewma`` — EWMA of the interarrival times between ACKs, gain 1/8.
2. ``slow_rec_ewma`` — the same with gain 1/256 (long-history average).
3. ``send_ewma`` — EWMA (gain 1/8) of the intersend times between the
   sender timestamps echoed in received ACKs.
4. ``rtt_ratio`` — most recent RTT divided by the minimum RTT seen so
   far in this "on" period.

The signal-knockout study (section 3.4) retrains protocols with one
signal removed; :data:`SignalMask` encodes which signals a rule table is
allowed to condition on.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["SIGNAL_NAMES", "NUM_SIGNALS", "SIGNAL_UPPER_BOUNDS",
           "SIGNAL_LOWER_BOUNDS", "SIGNAL_CAPS", "FAST_GAIN", "SLOW_GAIN",
           "SignalMask", "ALL_SIGNALS", "Memory"]

SIGNAL_NAMES: Tuple[str, ...] = (
    "rec_ewma", "slow_rec_ewma", "send_ewma", "rtt_ratio")

NUM_SIGNALS = len(SIGNAL_NAMES)

#: Domain bounds used by the whisker tree.  EWMAs are in seconds (an
#: interarrival above 16 s means the flow is effectively dead); the RTT
#: ratio is dimensionless and clipped at 64x the minimum.
SIGNAL_LOWER_BOUNDS: Tuple[float, ...] = (0.0, 0.0, 0.0, 1.0)
SIGNAL_UPPER_BOUNDS: Tuple[float, ...] = (16.0, 16.0, 16.0, 64.0)

#: Which signals a tree may split on: a 4-tuple of bools.
SignalMask = Tuple[bool, bool, bool, bool]

ALL_SIGNALS: SignalMask = (True, True, True, True)

FAST_GAIN = 1.0 / 8.0
SLOW_GAIN = 1.0 / 256.0

#: What a signal at or over its bound clips to — the exact float `_clip`
#: computes per call: strictly inside the domain so the half-open
#: whisker boxes always contain the vector.
SIGNAL_CAPS = tuple(high * (1.0 - 1e-9) for high in SIGNAL_UPPER_BOUNDS)

#: Clip bounds unpacked to module-level scalars so the per-ACK hot path
#: pays no tuple indexing.
_LO0, _LO1, _LO2, _LO3 = SIGNAL_LOWER_BOUNDS
_HI0, _HI1, _HI2, _HI3 = SIGNAL_UPPER_BOUNDS
_CAP0, _CAP1, _CAP2, _CAP3 = SIGNAL_CAPS


class Memory:
    """Per-sender congestion-signal state.

    Reset at the start of each "on" period (and after a retransmission
    timeout), matching the paper's model where each on-period is a fresh
    transfer.
    """

    __slots__ = ("rec_ewma", "slow_rec_ewma", "send_ewma", "rtt_ratio",
                 "min_rtt", "_last_ack_time", "_last_echo", "_have_sample")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget all history (fresh on-period)."""
        self.rec_ewma = 0.0
        self.slow_rec_ewma = 0.0
        self.send_ewma = 0.0
        self.rtt_ratio = 1.0
        self.min_rtt = float("inf")
        self._last_ack_time = -1.0
        self._last_echo = -1.0
        self._have_sample = False

    def on_ack(self, now: float, echo_sent_at: float,
               rtt_sample: float) -> None:
        """Fold one arriving ACK into the four signals."""
        if self._last_ack_time >= 0.0:
            interarrival = now - self._last_ack_time
            if self._have_sample:
                self.rec_ewma += FAST_GAIN * (interarrival - self.rec_ewma)
                self.slow_rec_ewma += SLOW_GAIN * (
                    interarrival - self.slow_rec_ewma)
            else:
                # Seed the averages with the first observation instead of
                # decaying up from zero.
                self.rec_ewma = interarrival
                self.slow_rec_ewma = interarrival
                self._have_sample = True
        self._last_ack_time = now

        if self._last_echo >= 0.0:
            intersend = echo_sent_at - self._last_echo
            if intersend >= 0.0:
                if self.send_ewma > 0.0:
                    self.send_ewma += FAST_GAIN * (
                        intersend - self.send_ewma)
                else:
                    self.send_ewma = intersend
        self._last_echo = echo_sent_at

        if rtt_sample > 0.0:
            if rtt_sample < self.min_rtt:
                self.min_rtt = rtt_sample
            self.rtt_ratio = rtt_sample / self.min_rtt

    def vector(self) -> Tuple[float, float, float, float]:
        """The signal vector used for whisker-tree lookup (clipped)."""
        v0 = self.rec_ewma
        v1 = self.slow_rec_ewma
        v2 = self.send_ewma
        v3 = self.rtt_ratio
        return (
            _LO0 if v0 < _LO0 else (_CAP0 if v0 >= _HI0 else v0),
            _LO1 if v1 < _LO1 else (_CAP1 if v1 >= _HI1 else v1),
            _LO2 if v2 < _LO2 else (_CAP2 if v2 >= _HI2 else v2),
            _LO3 if v3 < _LO3 else (_CAP3 if v3 >= _HI3 else v3),
        )

    def signals_into(self, out: list) -> None:
        """Write the clipped signal vector into ``out[0:4]`` in place.

        The allocation-free twin of :meth:`vector` for the compiled
        lookup path: callers reuse one scratch list per flow instead of
        building a fresh tuple on every ACK.  Values are identical to
        :meth:`vector`'s.
        """
        v0 = self.rec_ewma
        v1 = self.slow_rec_ewma
        v2 = self.send_ewma
        v3 = self.rtt_ratio
        out[0] = _LO0 if v0 < _LO0 else (_CAP0 if v0 >= _HI0 else v0)
        out[1] = _LO1 if v1 < _LO1 else (_CAP1 if v1 >= _HI1 else v1)
        out[2] = _LO2 if v2 < _LO2 else (_CAP2 if v2 >= _HI2 else v2)
        out[3] = _LO3 if v3 < _LO3 else (_CAP3 if v3 >= _HI3 else v3)


def _clip(value: float, dim: int) -> float:
    """Reference clip (kept for tests/tools; the hot paths inline it)."""
    low = SIGNAL_LOWER_BOUNDS[dim]
    high = SIGNAL_UPPER_BOUNDS[dim]
    if value < low:
        return low
    if value >= high:
        # Keep strictly inside the domain so the half-open whisker boxes
        # always contain the vector.
        return high * (1.0 - 1e-9)
    return value
