#!/usr/bin/env python
"""Regenerate the committed parity tables.

Each file is one registered experiment's paper table — its spec's
``table`` of one :func:`run_experiment` pass, exactly what
``scripts/run_experiments.py --fake-taos`` prints — at ``PARITY_SCALE``
with the stand-in rule table.  ``tests/test_table_parity.py`` asserts
the current code reproduces these files byte-for-byte, so any refactor
of the experiment layer that shifts a table — cell grid, seed
assignment, scoring, or formatting — fails loudly.

Regenerate (only after convincing yourself a diff is intentional)::

    PYTHONPATH=src python tests/golden_tables/regen.py
"""

from __future__ import annotations

import pathlib
import sys

from repro.core.scale import Scale
from repro.experiments.api import (FAKE_TREE, experiments,
                                   run_experiment)

#: Small enough for the tier-1 suite, big enough to exercise multiple
#: seeds and sweep points.
PARITY_SCALE = Scale(duration_s=3.0, packet_budget=6_000,
                     min_duration_s=2.0, n_seeds=2, sweep_points=3)

#: Every table the parity suite pins (regenerated into <name>.txt):
#: the registered specs that set a ``table``.
TABLE_NAMES = tuple(entry.name for entry in experiments()
                    if entry.spec is not None
                    and entry.spec.table is not None)


def tables(executor=None) -> dict:
    """name -> table text at PARITY_SCALE with fake trees."""
    out = {}
    for entry in experiments():
        if entry.name in TABLE_NAMES:
            result = run_experiment(
                entry.spec, scale=PARITY_SCALE, executor=executor,
                trees={asset: FAKE_TREE for asset in entry.assets})
            out[entry.name] = entry.spec.render(result)
    return out


def main() -> int:
    directory = pathlib.Path(__file__).resolve().parent
    for name, text in tables().items():
        path = directory / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
