"""Full-precision golden of the analytic protocol at sixteen operating points.

The CSV goldens round to six decimals; this one stores ``repr`` floats of
every analytic output a scenario reports (fidelities, acceptance, per-outcome
table, no-feed-forward fidelity, both teleporter fidelities, rate and the
teleport budget), so a change to the teleporter's stages shows up at
rounding level.  Regenerate (only when a change of numbers is intended) with::

    PYTHONPATH=src python -m tests.test_analytic_golden
"""

import itertools
import json
from pathlib import Path

import pytest

from teleportsim import harness, protocol

GOLDEN = Path(__file__).resolve().parent / "data" / "analytic_points.json"
#: (protocol mode, BAR readout, improved memory, timeout) of every point.
POINTS = tuple(
    itertools.product(("conditional", "unconditional"), (True, False), (True, False), (150, 2500))
)
TOL = 1e-15


def record(i: int) -> dict:
    """Every analytic output of point ``i``."""
    mode, bar, improved, timeout = POINTS[i]
    scenario = harness.Scenario(
        name=f"golden-{i}", protocol_mode=mode, bar=bar, improved_memory=improved, timeout=timeout
    )
    cfg = scenario.config
    per_state = protocol.six_state_results(cfg)
    plus_z = per_state["+z"]
    return {
        "point": [mode, bar, improved, timeout],
        "fidelity": {s: r.fidelity for s, r in per_state.items()},
        "accept_probability": {s: r.accept_probability for s, r in per_state.items()},
        "per_bsm_outcome_fidelity": {
            f"{m}{c}": f for (m, c), f in protocol.per_bsm_outcome_fidelity(cfg).items()
        },
        "no_feedforward_fidelity": protocol.no_feedforward_fidelity(cfg),
        "swap_fidelity": plus_z.swap_fidelity,
        "teleporter_fidelity": plus_z.teleporter_fidelity,
        "rate_hz": harness.estimate_rate(harness.rate_model_for(scenario, plus_z)),
        "teleport_budget": harness.teleport_budget_table(scenario),
    }


def _flat(rec: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in rec.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


@pytest.mark.parametrize("i", range(len(POINTS)))
def test_analytic_point_matches_golden(i):
    want = _flat(json.loads(GOLDEN.read_text())[i])
    got = _flat(record(i))
    assert got.keys() == want.keys()
    assert got.pop("point") == want.pop("point")
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=0, abs=TOL), key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([record(i) for i in range(len(POINTS))], indent=1) + "\n")
