"""E2 — regenerate Figure 2 / Table 2 (link-speed operating range).

Paper shape: weak tradeoff — each Tao does best inside its design range
and degrades outside it; the 1000x Tao holds up across the whole sweep
and matches or beats Cubic and Cubic-over-sfqCoDel over 1-1000 Mbps.
"""

from conftest import BENCH_SCALE, banner, run_spec

from repro.experiments import link_speed


def test_fig2_link_speed(benchmark):
    result = run_spec(benchmark, link_speed.SPEC, BENCH_SCALE)

    banner("Figure 2 — link-speed operating ranges, sweep 1-1000 Mbps",
           "narrow Taos win modestly in-range, cliff out-of-range; "
           "Tao-1000x competitive everywhere")
    print(link_speed.SPEC.render(result))

    # Every Tao must beat Cubic on average within its own design range.
    cubic_by_speed = {row["speed_mbps"]: row["normalized_objective"]
                      for row in result.select("cubic")}
    for name in link_speed.SPEC.assets:
        in_range = [row["speed_mbps"] for row in result.select(name)
                    if row["in_training_range"]]
        assert in_range, f"{name} had no in-range sweep points"
        cubic_mean = sum(cubic_by_speed[speed] for speed in in_range) \
            / len(in_range)
        assert link_speed.mean_in_range(result, name) > cubic_mean, \
            f"{name} should beat Cubic inside its design range"

    # Out-of-range collapse: the 2x Tao must fall off hard somewhere
    # outside its catalog range relative to its in-range average.
    out = [row["normalized_objective"]
           for row in result.select("tao_2x")
           if not row["in_training_range"]]
    assert min(out) < link_speed.mean_in_range(result, "tao_2x") - 1.0, \
        "narrow-range Tao should degrade outside its training range"
