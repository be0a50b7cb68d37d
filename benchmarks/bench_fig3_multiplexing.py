"""E3 — regenerate Figure 3 / Table 3 (degree of multiplexing).

Paper shape: the wide-range (1-100) Tao tracks omniscient across the
sweep at the cost of throughput at low multiplexing; the narrow (1-2)
Tao collapses at high sender counts (delay explosion on the no-drop
buffer, loss storms on the 5-BDP one).
"""

from conftest import banner, run_spec

from repro.core.scale import Scale
from repro.experiments import multiplexing

# Multiplexing sims are cheap per-packet (15 Mbps) but heavy in sender
# count; keep durations tight.
_SCALE = Scale(duration_s=8.0, packet_budget=25_000, min_duration_s=4.0,
               n_seeds=2, sweep_points=5)


def _mean(rows):
    return sum(row["normalized_objective"] for row in rows) / len(rows)


def test_fig3_multiplexing(benchmark):
    result = run_spec(benchmark, multiplexing.SPEC, _SCALE)

    banner("Figure 3 — degree of multiplexing, 1-100 senders at 15 Mbps",
           "Tao-1-100 tracks omniscient but loses at low mux; "
           "Tao-1-2 collapses at high mux")
    print(multiplexing.SPEC.render(result))

    for case in ("5bdp", "nodrop"):
        wide = result.select("tao_mux_1_100", buffer_case=case)
        narrow = result.select("tao_mux_1_2", buffer_case=case)
        high_mux = [row for row in narrow if row["n_senders"] >= 50]
        wide_high = [row for row in wide if row["n_senders"] >= 50]
        assert high_mux and wide_high
        # The narrow Tao must do worse than the wide Tao at high mux.
        assert _mean(high_mux) < _mean(wide_high), (
            f"[{case}] Tao-1-2 should collapse at high multiplexing "
            "relative to Tao-1-100")

    # The cost of breadth: at 1-2 senders the wide Tao is not better
    # than the narrow one (which was trained for exactly that regime).
    for case in ("5bdp", "nodrop"):
        low_narrow = [row for row in result.select(
                          "tao_mux_1_2", buffer_case=case)
                      if row["n_senders"] <= 2]
        low_wide = [row for row in result.select(
                        "tao_mux_1_100", buffer_case=case)
                    if row["n_senders"] <= 2]
        assert _mean(low_wide) <= _mean(low_narrow) + 0.5, (
            f"[{case}] breadth should not dominate at low multiplexing")
