"""E6 — regenerate Figure 7 / Table 6 (knowledge of incumbents).

Paper shape: homogeneous — TCP-awareness costs delay (the naive Tao
runs ~55% less queueing delay); mixed — the naive Tao is squeezed out
by NewReno while the aware Tao claims its share (+36% throughput, -37%
delay vs. naive when facing TCP).
"""

from conftest import BENCH_SCALE_FINE, banner, run_spec

from repro.experiments import tcp_awareness


def test_fig7_tcp_awareness(benchmark):
    result = run_spec(benchmark, tcp_awareness.SPEC, BENCH_SCALE_FINE)

    banner("Figure 7 — TCP-aware vs TCP-naive, 10 Mbps / 100 ms / 250 kB",
           "awareness costs delay alone, pays against NewReno")
    print(tcp_awareness.SPEC.render(result))

    naive_homog = result.one("naive_homogeneous", kind="learner")
    aware_homog = result.one("aware_homogeneous", kind="learner")
    naive_mixed = result.one("naive_vs_newreno", kind="learner")
    aware_mixed = result.one("aware_vs_newreno", kind="learner")

    # Cost of awareness in the homogeneous setting: more delay.
    assert naive_homog["median_delay_s"] \
        <= aware_homog["median_delay_s"], (
        "TCP-naive Tao should see less queueing delay among its own kind")
    # Benefit against TCP: the aware Tao claims more throughput.
    assert (aware_mixed["median_throughput_bps"]
            > naive_mixed["median_throughput_bps"]), (
        "TCP-aware Tao should claim more of the link from NewReno")
