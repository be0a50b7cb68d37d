"""E5 — regenerate Figure 6 / Table 5 (structural knowledge).

Paper shape: on the two-bottleneck parking lot, a Tao designed for a
simplified one-bottleneck model loses only ~17% of the crossing flow's
throughput vs. the full-model Tao, while beating Cubic by ~7.2x and
Cubic-over-sfqCoDel by ~2.75x on average throughput.
"""

from conftest import BENCH_SCALE, banner, run_spec

from repro.experiments import structure


def test_fig6_structure(benchmark):
    result = run_spec(benchmark, structure.SPEC, BENCH_SCALE)

    banner("Figure 6 — parking lot, both links swept 10-100 Mbps",
           "one-bottleneck Tao ~17% below full-model Tao; both far "
           "above Cubic (7.2x) and Cubic/sfqCoDel (2.75x)")
    print(structure.SPEC.render(result))

    simplified = structure.mean_throughput(result, "tao_one_bottleneck")
    full = structure.mean_throughput(result, "tao_two_bottleneck")
    cubic = structure.mean_throughput(result, "cubic")
    sfq = structure.mean_throughput(result, "cubic_sfqcodel")

    assert simplified > 0 and full > 0
    # The simplification penalty is a minority loss, not a collapse.
    assert structure.simplification_penalty(result) < 0.5, (
        "one-bottleneck model should lose only modestly vs. full model")
    # Both Taos handily beat Cubic's crossing flow (RTT unfairness
    # crushes Cubic's two-hop flow).
    assert simplified > cubic, "Tao should beat Cubic's crossing flow"
    assert simplified > 0.8 * sfq, (
        "Tao should at least match Cubic-over-sfqCoDel")
