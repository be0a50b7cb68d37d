"""E1 — regenerate Figure 1 / Table 1 (the calibration experiment).

Paper shape: Tao beats Cubic and Cubic-over-sfqCoDel on throughput and
delay simultaneously, approaching the omniscient protocol (within 5% on
throughput, 10% on delay in the paper's full-scale runs).
"""

from conftest import BENCH_SCALE_FINE, banner, run_spec

from repro.experiments import calibration


def test_fig1_calibration(benchmark):
    result = run_spec(benchmark, calibration.SPEC, BENCH_SCALE_FINE)

    banner("Figure 1 — calibration: 32 Mbps dumbbell, 150 ms, 2 senders",
           "Tao within ~5% of omniscient tpt; beats Cubic and "
           "Cubic/sfqCoDel on both axes")
    print(calibration.SPEC.render(result))

    tao = result.one("tao")
    cubic = result.one("cubic")
    sfq = result.one("cubic_sfqcodel")
    # Shape assertions (loose: scaled-down runs).
    assert tao["median_delay_s"] < cubic["median_delay_s"], \
        "Tao must have much lower queueing delay than Cubic"
    assert tao["median_throughput_bps"] \
        >= 0.8 * sfq["median_throughput_bps"], \
        "Tao should at least match Cubic-over-sfqCoDel throughput"
    assert calibration.throughput_vs_omniscient(result, "tao") > 0.5, \
        "Tao should approach the omniscient bound"
