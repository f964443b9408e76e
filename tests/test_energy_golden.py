"""Golden energy data: exact joules, deaths and summaries, stored as data.

``tests/golden/energy_windows.json`` holds, for every protocol x battery
x duty-cycle x seed cell of :data:`GRID` run through
:func:`~repro.harness.experiments.energy_scenario` at smoke scale, the
scenario ``summary()``, the battery deaths and every node's per-state
joules, all as float reprs.  The test re-runs each cell and compares the
reprs with ``==``: any change to how, when or in what order the radio
state machine charges a window moves at least one last bit and fails.

Regenerate (only when a result change is intended) with::

    PYTHONPATH=src python tests/test_energy_golden.py --record
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.harness.experiments import energy_scenario
from repro.harness.presets import get_scale
from repro.harness.scenario import run_scenario

GOLDEN = Path(__file__).parent / "golden" / "energy_windows.json"

PROTOCOLS = ("frugal", "neighbor-flooding", "gossip", "simple-flooding")
BATTERIES = (None, 5.0, 20.0)          # None = mains power
AWAKE_FRACTIONS = (1.0, 0.5)
SEEDS = (1, 2)
GRID = list(itertools.product(PROTOCOLS, BATTERIES, AWAKE_FRACTIONS, SEEDS))


def cell_key(protocol, battery_j, awake_fraction, seed) -> str:
    """The JSON key of one grid cell."""
    battery = "mains" if battery_j is None else f"{battery_j:g}J"
    return f"{protocol}/{battery}/awake={awake_fraction:g}/seed={seed}"


def record_cell(protocol, battery_j, awake_fraction, seed) -> dict:
    """Run one cell and return its readings as JSON-ready float reprs."""
    cfg = energy_scenario(get_scale("smoke"), protocol, battery_j=battery_j,
                          awake_fraction=awake_fraction)
    result = run_scenario(cfg.with_changes(seed=seed))
    energy = result.energy
    return {
        "summary": {k: repr(v) for k, v in result.summary().items()},
        "deaths": [[repr(t), node_id] for t, node_id in energy.deaths],
        "joules": {
            str(node_id): {state.value: repr(joules) for state, joules
                           in model.joules_by_state.items()}
            for node_id, model in sorted(energy.models.items())},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("cell", GRID, ids=lambda c: cell_key(*c))
def test_energy_cell_matches_golden(cell, golden):
    assert record_cell(*cell) == golden[cell_key(*cell)]


def test_golden_covers_the_grid_with_deaths(golden):
    assert sorted(golden) == sorted(cell_key(*c) for c in GRID)
    # Finite batteries must actually run dry, or the death path is
    # untested by this data.
    for battery in (5.0, 20.0):
        assert any(golden[cell_key(p, battery, a, s)]["deaths"]
                   for p, _, a, s in GRID)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {cell_key(*c): record_cell(*c) for c in GRID}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cells to {GOLDEN}")
