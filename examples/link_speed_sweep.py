#!/usr/bin/env python
"""Mini Figure 2: sweep link speed and plot normalized objective.

Sweeps a dumbbell's link speed across 1-1000 Mbps and prints an ASCII
rendition of the paper's Figure 2: the normalized objective (0 = fair
share at zero queueing delay) for two Tao protocols with different
operating ranges, next to TCP Cubic.

Run:  python examples/link_speed_sweep.py       (~2-3 minutes)
"""

from dataclasses import replace

from repro import Scale
from repro.experiments import link_speed, run_experiment
from repro.remy.assets import available_assets
from repro.remy.catalog import CATALOG

SCALE = Scale(duration_s=12.0, packet_budget=40_000, n_seeds=2,
              sweep_points=7)
SCHEMES = ("tao_2x", "tao_1000x", "cubic")

#: Objective axis of the chart, in log2 units.
AXIS_LO, AXIS_HI = -4.0, 0.5


def render_row(value, width=50):
    clamped = min(max(value, AXIS_LO), AXIS_HI)
    position = int((clamped - AXIS_LO) / (AXIS_HI - AXIS_LO)
                   * (width - 1))
    row = ["."] * width
    row[position] = "o"
    zero = int((0.0 - AXIS_LO) / (AXIS_HI - AXIS_LO) * (width - 1))
    if row[zero] == ".":
        row[zero] = "|"
    return "".join(row)


def main():
    wanted = [s for s in SCHEMES if s.startswith("tao")]
    have = set(available_assets())
    missing = [s for s in wanted if s not in have]
    if missing:
        print(f"train assets first: {missing}")
        print("  python scripts/train_assets.py --assets "
              + " ".join(missing))
        return
    # The registered Figure 2 spec, cut down to three schemes: one
    # run_experiment call simulates the whole (scheme x speed x seed)
    # grid and returns it in long form.
    spec = replace(link_speed.SPEC, schemes=SCHEMES, reference=None)
    result = run_experiment(spec, scale=SCALE)

    print(f"normalized objective, {AXIS_LO:+.0f} (left) to "
          f"{AXIS_HI:+.1f} (right); '|' marks 0 = omniscient-like")
    for scheme in SCHEMES:
        tao = CATALOG.get(scheme)
        label = scheme
        if tao is not None:
            lo, hi = tao.training.link_speed_mbps
            label += f" [{lo:g}-{hi:g} Mbps]"
        print(f"\n--- {label} ---")
        for row in result.select(scheme):
            in_range = "   " if tao is None \
                else "in " if row["in_training_range"] else "out"
            value = row["normalized_objective"]
            print(f"{row['speed_mbps']:8.1f} Mbps {in_range} "
                  f"{render_row(value)} {value:+.2f}")


if __name__ == "__main__":
    main()
