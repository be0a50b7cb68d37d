"""Simulation budgets: trading fidelity against wall-clock time.

A pure-Python packet-level simulator processes a bounded number of
events per second, so every experiment here runs at a configurable
*scale*: simulated duration shrinks on fast links to keep per-run packet
counts bounded (the reproduction's key cost-control, "Substitutions"
in README.md), while floors on duration keep enough RTTs and on/off
cycles in each run for the statistics to mean something.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from .scenario import NetworkConfig

__all__ = ["Scale", "QUICK", "DEFAULT", "FULL", "NAMED_SCALES",
           "PACKET_BYTES"]

#: On-the-wire data packet size used for packet-rate math (matches
#: :data:`repro.protocols.transport.DATA_PACKET_BYTES`).
PACKET_BYTES = 1500


@dataclass(frozen=True)
class Scale:
    """Simulation budget knobs shared by experiments and training.

    ``duration_s`` caps the simulated time; ``packet_budget`` shrinks the
    duration on fast links (a 1000 Mbps run is limited to roughly
    ``packet_budget`` packet events); ``min_duration_s`` keeps enough
    on/off cycles and RTTs in even the fastest runs.
    """

    duration_s: float = 60.0
    packet_budget: int = 300_000
    min_duration_s: float = 4.0
    n_seeds: int = 4
    sweep_points: int = 12

    def duration_for(self, config: NetworkConfig) -> float:
        """Simulated seconds for one run of ``config``."""
        rate_pps = max(config.link_speeds_mbps) * 1e6 / (
            8.0 * PACKET_BYTES)
        capped = self.packet_budget / max(rate_pps, 1.0)
        duration = min(self.duration_s, capped)
        floor = max(self.min_duration_s, 10.0 * config.rtt_ms / 1e3)
        return max(duration, floor)

    def with_seeds(self, n_seeds: int) -> "Scale":
        return replace(self, n_seeds=n_seeds)

    # ------------------------------------------------------------------
    @classmethod
    def named(cls, name: str) -> "Scale":
        """The canonical scale registered under ``name``.

        This is the single named-scale lookup shared by the CLI scripts
        (``--scale quick|default|full``), the benchmark harness, and the
        sweep engine — there is deliberately no second SCALES dict
        anywhere else.
        """
        try:
            return NAMED_SCALES[name]
        except KeyError:
            raise ValueError(f"unknown scale {name!r}; "
                             f"available: {sorted(NAMED_SCALES)}") from None

    @classmethod
    def names(cls) -> Tuple[str, ...]:
        """Registered scale names, smallest budget first."""
        return tuple(NAMED_SCALES)


#: Smoke/benchmark scale: seconds per experiment (the budget the CI
#: smoke job and the parity tables run at).
QUICK = Scale(duration_s=10.0, packet_budget=30_000, min_duration_s=4.0,
              n_seeds=2, sweep_points=5)

#: Default scale for examples and EXPERIMENTS.md numbers.  (Unified
#: with the CLI's former SCALES["default"]; smaller than the pre-PR-4
#: library DEFAULT — pass an explicit Scale for bigger budgets.)
DEFAULT = Scale(duration_s=30.0, packet_budget=90_000, min_duration_s=4.0,
                n_seeds=3, sweep_points=7)

#: The largest named budget (the CLI's --scale full): minutes per
#: experiment on one core.  Still far below the paper's statistics —
#: scale n_seeds/duration_s up explicitly for publication-grade runs.
FULL = Scale(duration_s=60.0, packet_budget=300_000, min_duration_s=4.0,
             n_seeds=5, sweep_points=10)

#: The :meth:`Scale.named` registry, smallest budget first.
NAMED_SCALES: Dict[str, Scale] = {
    "quick": QUICK, "default": DEFAULT, "full": FULL,
}
