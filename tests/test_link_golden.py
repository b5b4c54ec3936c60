"""Full-precision golden of twelve seeded link designs and their budgets.

The CSV goldens round to six decimals; this one stores ``repr`` floats, so a
change to pulse calibration, efficiency calibration or the herald shows up at
rounding level.  Regenerate (only when a change of numbers is intended) with::

    PYTHONPATH=src python -m tests.test_link_golden
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from teleportsim import params, photonics

GOLDEN = Path(__file__).resolve().parent / "data" / "link_designs.json"
WINDOWS = (15.0, 10.0, 7.5)
DESIGNS = 12


def design(i: int) -> tuple[params.LinkConfig, float]:
    """Design ``i``: AB and BC alternate, the windows cycle 15, 10, 7.5 ns."""
    rng = random.Random(f"link-golden:{i}")
    base = (params.LINK_AB, params.LINK_BC)[i % 2]
    lo, hi = (0.03, 0.07) if base.pulse_ns[0] == 5.0 else (0.04, 0.085)
    cfg = replace(
        base,
        name=f"{base.name}-golden-{i}",
        alpha=(rng.uniform(0.03, 0.10), rng.uniform(0.03, 0.10)),
        double_excitation=rng.uniform(lo, hi),
        visibility=rng.uniform(0.85, 0.97),
        visibility_by_window=(),
        phase_uncertainty_deg=rng.uniform(5.0, 25.0),
        dark_rate_hz=rng.uniform(0.0, 50.0),
    )
    return cfg, WINDOWS[i % len(WINDOWS)]


def record(i: int) -> dict:
    """Calibrated nodes, herald probabilities and the budget of design ``i``."""
    cfg, window = design(i)
    link = params.build_link(cfg, window_ns=window)
    nodes = (link.node1, link.node2)
    return {
        "design": cfg.name,
        "window_ns": window,
        "omega": [n.emission.solution.pulse.omega_max for n in nodes],
        "p2": [n.emission.p2 for n in nodes],
        "eta_zpl": [n.eta_zpl for n in nodes],
        "p_plus": link.heralded.p_plus,
        "p_minus": link.heralded.p_minus,
        "rows": {s: photonics.single_error_budget(link, s) for s in photonics.BUDGET_SOURCES},
        "combined": photonics.combined_infidelity(link),
    }


@pytest.mark.parametrize("i", range(DESIGNS))
def test_link_design_matches_golden(i):
    want = json.loads(GOLDEN.read_text())[i]
    got = record(i)
    assert (got["design"], got["window_ns"]) == (want["design"], want["window_ns"])
    # The calibrated numbers are bit-identical.
    for key in ("omega", "p2", "eta_zpl"):
        assert got[key] == want[key], key
    # Everything derived from them agrees to rounding level.
    assert got["p_plus"] == pytest.approx(want["p_plus"], rel=0, abs=1e-15)
    assert got["p_minus"] == pytest.approx(want["p_minus"], rel=0, abs=1e-15)
    assert got["rows"].keys() == want["rows"].keys()
    for src, value in want["rows"].items():
        assert got["rows"][src] == pytest.approx(value, rel=0, abs=1e-15), src
    assert got["combined"] == pytest.approx(want["combined"], rel=0, abs=1e-15)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([record(i) for i in range(DESIGNS)], indent=1) + "\n")
