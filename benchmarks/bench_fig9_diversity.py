"""E8 — regenerate Figure 9 / Table 7 (the price of sender diversity).

Paper shape: co-optimization lets a delta=0.1 (throughput-sensitive)
and delta=10 (delay-sensitive) sender coexist: in the mixed network the
delay-sensitive sender sees lower delay than the throughput-sensitive
one, and co-optimization costs the throughput-sensitive sender some
throughput ("the price of playing nice") while protecting the
delay-sensitive one.
"""

from conftest import BENCH_SCALE_FINE, banner, run_spec

from repro.experiments import diversity


def test_fig9_diversity(benchmark):
    result = run_spec(benchmark, diversity.SPEC, BENCH_SCALE_FINE)

    def qdelay_ms(setting, kind):
        return result.one(setting, kind=kind)["median_delay_s"] * 1e3

    banner("Figure 9 — sender diversity, 10 Mbps / 100 ms / no-drop",
           "delay-sensitive sender keeps lower delay in the mix; "
           "co-optimization taxes the throughput-sensitive sender")
    print(diversity.SPEC.render(result))

    # In the mixed network, the delay-sensitive sender must see less
    # queueing delay than the throughput-sensitive one.
    for setting in ("naive_mixed", "coopt_mixed"):
        tpt_delay = qdelay_ms(setting, "learner")
        del_delay = qdelay_ms(setting, "peer")
        assert del_delay <= tpt_delay + 1.0, (
            f"[{setting}] delay-sensitive sender should see lower delay")

    # Co-optimization protects the delay-sensitive sender in the mix:
    # its delay must not blow up relative to running alone.
    alone = qdelay_ms("del_coopt_alone", "learner")
    mixed = qdelay_ms("coopt_mixed", "peer")
    naive_mixed = qdelay_ms("naive_mixed", "peer")
    assert mixed <= max(naive_mixed, alone * 4 + 5.0), (
        "co-optimized delay sender should not collapse in the mix")
