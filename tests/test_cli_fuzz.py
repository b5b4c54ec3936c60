"""Table-driven fuzz of the command line, run in-process.

Every scenario key gets every value below, on a noisy and a noiseless base
scenario, through ``run`` and ``rates``, and ``rates --windows`` gets
edge-case lists.  Each case either runs (exit 0, nothing on stderr, no
warning) or fails with exit 2 and exactly one ``error:`` line.  Monte Carlo
never runs, so a huge shot count costs nothing.
"""

import warnings
from pathlib import Path

import pytest

from teleportsim import cli, harness

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "teleportsim" / "scenarios"
VALUES = ["", "abc", "0", "-1", "nan", "inf", "1e300", "1e308", str(2**70)]
KEYS = sorted(harness.Scenario(name="keys").to_values())
WINDOWS = [
    "", ",", "15,", "abc", "nan", "inf", "-inf", "-5", "0", "1e-300", "1e300", str(2**70),
    "15,15", " 15 ", "7.5,10", "15,0.5",
]


def _check(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    err = capsys.readouterr().err
    if rc == 0:
        assert err == "", (argv, err)
    else:
        lines = err.strip().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error:"), (argv, rc, err)
    return rc, err


@pytest.mark.parametrize("key", KEYS)
def test_cli_scenario_values(key, tmp_path, capsys):
    for noiseless in ("off", "on"):
        for value in VALUES:
            values = {
                "scenario.name": "fuzz",
                "scenario.outputs": "fidelities, rates",
                "protocol.noiseless": noiseless,
                key: value,
            }
            path = tmp_path / "fuzz.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            for command in (["run"], ["rates", "--windows", "15"]):
                _check(command + [str(path), "--out", str(tmp_path / "out")], capsys)


@pytest.mark.parametrize("scenario", ["experiment-conditional.cfg", "noiseless.cfg"])
def test_cli_rates_windows(scenario, tmp_path, capsys):
    for windows in WINDOWS:
        argv = ["rates", str(SCENARIOS / scenario), f"--windows={windows}"]
        _check(argv + ["--out", str(tmp_path)], capsys)


def test_cli_window_without_heralds(tmp_path, capsys):
    # A detection window too short to hold a grid time never heralds; the
    # error line names the link and the window.
    path = tmp_path / "zero.cfg"
    path.write_text("scenario.name = zero\nprotocol.noiseless = on\nprotocol.window_ns = 0\n")
    cases = [
        (["run", str(path)], "at a 0 ns detection window"),
        (["rates", str(SCENARIOS / "noiseless.cfg"), "--windows", "1e-300"], "at a 1e-300 ns"),
    ]
    for argv, window in cases:
        rc, err = _check(argv + ["--out", str(tmp_path / "out")], capsys)
        assert rc == 2 and "Bob-Charlie link" in err and window in err, err
