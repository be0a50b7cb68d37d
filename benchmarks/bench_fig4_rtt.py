"""E4 — regenerate Figure 4 / Table 4 (propagation-delay knowledge).

Paper shape: the Tao trained for exactly 150 ms collapses at short
RTTs; adding a little diversity (145-155 ms) yields performance over
1-300 ms commensurate with the broad 50-250 ms protocol.
"""

from conftest import BENCH_SCALE, banner, run_spec

from repro.experiments import rtt


def _mean(rows):
    return sum(row["normalized_objective"] for row in rows) / len(rows)


def test_fig4_rtt(benchmark):
    result = run_spec(benchmark, rtt.SPEC, BENCH_SCALE)

    banner("Figure 4 — propagation delay sweep, 1-300 ms at 33 Mbps",
           "exact-150ms Tao collapses at short RTTs; 145-155ms Tao "
           "performs like the broad 50-250ms Tao")
    print(rtt.SPEC.render(result))

    exact = list(result.select("tao_rtt_150"))
    little = list(result.select("tao_rtt_145_155"))
    broad = list(result.select("tao_rtt_50_250"))

    short = [row for row in exact if row["rtt_ms"] < 50.0]
    in_range = [row for row in exact if row["in_training_range"]]
    assert short and in_range

    # A-little-diversity tracks the broad protocol across the sweep.
    little_mean = _mean(little)
    broad_mean = _mean(broad)
    assert little_mean > broad_mean - 1.0, (
        "145-155ms Tao should be commensurate with the 50-250ms Tao")

    # Diversity helps at short RTTs relative to exact-150 training.
    little_short = _mean([row for row in little
                          if row["rtt_ms"] < 50.0])
    exact_short = _mean(short)
    assert little_short >= exact_short - 0.25, (
        "training diversity should not hurt at short RTTs")
