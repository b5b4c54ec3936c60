import json
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teleportsim import cli, harness, protocol

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "teleportsim" / "scenarios"


def test_config_round_trip():
    scen = harness.Scenario(
        name="round-trip",
        mode="monte-carlo",
        shots=123,
        seed=9,
        outputs=("fidelities", "rates"),
        protocol_mode="unconditional",
        window_ns=7.5,
        bar=False,
    )
    text = harness.emit_config_text(scen.to_values())
    back = harness.Scenario.from_values(harness.read_config_text(text))
    assert back == scen


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    name=st.text(min_size=1, max_size=12),
    mode=st.sampled_from(["analytic", "monte-carlo"]),
    shots=st.integers(1, 2**70),
    seed=st.integers(0, 2**64 - 1),
    outputs=st.lists(st.sampled_from(harness.OUTPUT_KINDS), min_size=1, max_size=4),
    protocol_mode=st.sampled_from(["conditional", "unconditional"]),
    window_ns=finite,
    timeout=st.integers(-(2**70), 2**70),
    toggles=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    rates=st.tuples(st.floats(0.0, 1e300, exclude_min=True), finite, finite),
)
def test_config_text_round_trip_property(
    name, mode, shots, seed, outputs, protocol_mode, window_ns, timeout, toggles, rates
):
    try:
        scen = harness.Scenario(
            name=name,
            mode=mode,
            shots=shots,
            seed=seed,
            outputs=tuple(outputs),
            protocol_mode=protocol_mode,
            window_ns=window_ns,
            timeout=timeout,
            bar=toggles[0],
            improved_memory=toggles[1],
            tailored_heralding=toggles[2],
            noiseless=toggles[3],
            attempt_period_s=rates[0],
            cycle_overhead_s=rates[1],
            event_overhead_s=rates[2],
        )
    except harness.HarnessError:
        assume(False)
    text = harness.emit_config_text(scen.to_values())
    assert harness.Scenario.from_values(harness.read_config_text(text)) == scen


@pytest.mark.parametrize("name", ["v#1", "#", " v", "v ", "v\n1", "v\r", "v\u2028w", "a\0b"])
def test_names_that_do_not_read_back_rejected(name):
    with pytest.raises(harness.HarnessError, match="scenario.name"):
        harness.Scenario(name=name)


def test_config_parse_errors():
    with pytest.raises(harness.HarnessError):
        harness.read_config_text("scenario.name demo")
    with pytest.raises(harness.HarnessError):
        harness.Scenario.from_values({"scenario.name": "x", "scenario.flavor": "mint"})
    with pytest.raises(harness.HarnessError):
        harness.Scenario(name="x", mode="approximate")
    with pytest.raises(harness.HarnessError):
        harness.Scenario(name="x", outputs=("plots",))


def test_shot_rng_reproducible_and_independent():
    a = harness.shot_rng(1, "scen", 5).uniform(size=4)
    b = harness.shot_rng(1, "scen", 5).uniform(size=4)
    c = harness.shot_rng(1, "scen", 6).uniform(size=4)
    d = harness.shot_rng(2, "scen", 5).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_shot_streams_do_not_overlap():
    # No draw of shot k's first 64 appears in the streams of shots k + 1
    # and k + 1000, so no shot reuses a window of another's randomness.
    for k in (0, 7):
        first = harness.shot_rng(1, "scen", k).uniform(size=64)
        for other in (k + 1, k + 1000):
            assert not np.isin(first, harness.shot_rng(1, "scen", other).uniform(size=64)).any()


def test_run_scenario_deterministic(tmp_path):
    src = SCENARIOS / "monte-carlo.cfg"
    r1 = harness.run_scenario(src, tmp_path / "one", shots=300)
    r2 = harness.run_scenario(src, tmp_path / "two", shots=300)
    for f1, f2 in zip(sorted(r1.files), sorted(r2.files)):
        assert f1.read_bytes() == f2.read_bytes()


def test_run_scenario_summary_contents(tmp_path):
    report = harness.run_scenario(SCENARIOS / "experiment-conditional.cfg", tmp_path)
    summary = json.loads((tmp_path / "experiment-conditional.summary.json").read_text())
    assert summary["version"]
    assert summary["parameters"]["protocol.mode"] == "conditional"
    assert 0.65 < summary["results"]["average_fidelity"] < 0.75
    effective = tmp_path / "experiment-conditional.effective.cfg"
    back = harness.Scenario.from_values(harness.read_config_text(effective.read_text()))
    assert back == report.scenario


def test_noiseless_scenario(tmp_path):
    report = harness.run_scenario(SCENARIOS / "noiseless.cfg", tmp_path)
    for f in report.results["fidelities"].values():
        assert f >= 1 - 1e-9


def test_noiseless_links_follow_window(tmp_path, capsys):
    # The ideal link is built at the scenario's window, not at its own.
    cfg = protocol.make_config(noiseless=True, window_ns=7.5)
    assert cfg.link_ab.zpl_window_ns == 7.5
    assert cfg.link_ab.node1.windows.zpl_window == (9.0, 7.5)
    argv = ["rates", str(SCENARIOS / "noiseless.cfg"), "--windows", "15,7.5,0.5"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "noiseless.rates.json").read_text())
    assert [r["window_ns"] for r in rows] == [15.0, 7.5, 0.5]
    rates = [r["rate_hz"] for r in rows]
    assert rates[0] > rates[1] > rates[2] > 0.0
    capsys.readouterr()


def test_noiseless_negative_window_rejected(tmp_path, capsys):
    path = tmp_path / "negative.cfg"
    path.write_text("scenario.name = negative\nprotocol.noiseless = on\nprotocol.window_ns = -5\n")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "window" in _one_error_line(capsys.readouterr())


def test_link_budget_tables():
    rows = harness.link_budget_table("AB")
    assert set(rows) == {"alpha", "dark", "visibility", "double-excitation", "phase", "combined"}
    with pytest.raises(harness.HarnessError):
        harness.link_budget_table("AC")


def test_teleport_budget_table():
    scen = harness.Scenario(name="x")
    rows = harness.teleport_budget_table(scen)
    assert rows["combined"] > rows["links_only_infidelity"] > 0
    for key in ("ionization_alice", "bob_memory_storage", "charlie_readout"):
        assert rows[key] >= 0


def test_estimate_rate_limits():
    model = harness.RateModel(
        attempt_period_s=1.0,
        p_ab=1.0,
        p_bc=1.0,
        timeout=10,
        bob_accept=1.0,
        charlie_accept=1.0,
        cycle_overhead_s=0.0,
        bsm_overhead_s=0.0,
        charlie_stage_s=0.0,
        event_overhead_s=0.0,
    )
    # One attempt for each link plus one rephasing attempt period.
    assert harness.estimate_rate(model) == pytest.approx(1 / 3.0)
    with pytest.raises(harness.HarnessError):
        harness.RateModel(1.0, 0.0, 1.0, 10, 1.0, 1.0)


def test_estimate_rate_long_timeout_bounded_memory():
    # The sum stops after about 4e5 attempts, long before the timeout.
    model = harness.RateModel(5e-6, 1e-4, 1e-4, 2 * 10**6, 0.3, 0.5)
    tracemalloc.start()
    try:
        rate = harness.estimate_rate(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert rate == pytest.approx(harness.estimate_rate(replace(model, timeout=10**6)), rel=1e-12)


def test_rate_orderings():
    scen = harness.Scenario(name="rates")
    cond = harness.estimate_rate(harness.rate_model_for(scen))
    uncond = harness.estimate_rate(
        harness.rate_model_for(replace(scen, protocol_mode="unconditional"))
    )
    assert uncond >= cond
    sweep = harness.window_rate_sweep(scen, (15.0, 10.0, 7.5))
    rates = [row["rate_hz"] for row in sweep]
    assert rates[0] > rates[1] > rates[2]


def test_improvement_ladder_monotone():
    rows = harness.improvement_ladder(harness.Scenario(name="ladder"))
    fids = [row["average_fidelity"] for row in rows]
    assert all(b > a for a, b in zip(fids, fids[1:]))
    assert rows[0]["rate_hz"] > rows[1]["rate_hz"]  # readout filter costs rate


def test_correlation_tables():
    tables = harness.correlation_tables("AB")
    z = tables["herald_z"]
    assert z["01"] + z["10"] > 0.85
    aft = tables["flag_node1_aft_z"]
    assert aft["00"] == max(aft.values())


def test_cli_run_and_budget(tmp_path, capsys):
    rc = cli.main(
        ["run", str(SCENARIOS / "experiment-conditional.cfg"), "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "experiment-conditional.summary.json").exists()
    rc = cli.main(
        [
            "budget",
            str(SCENARIOS / "error-budget.cfg"),
            "--link",
            "AB",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "error-budget.budget_AB.csv").exists()
    capsys.readouterr()


def test_cli_rates_and_ladder(tmp_path, capsys):
    rc = cli.main(
        [
            "rates",
            str(SCENARIOS / "experiment-conditional.cfg"),
            "--windows",
            "15,10",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = json.loads((tmp_path / "experiment-conditional.rates.json").read_text())
    assert [row["window_ns"] for row in rows] == [15.0, 10.0]
    rc = cli.main(
        ["ladder", str(SCENARIOS / "experiment-conditional.cfg"), "--out", str(tmp_path)]
    )
    assert rc == 0
    capsys.readouterr()


def test_cli_missing_file(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


def test_monte_carlo_scenario_statistics(tmp_path):
    report = harness.run_scenario(
        SCENARIOS / "monte-carlo.cfg", tmp_path, shots=4000, seed=3
    )
    res = report.results
    assert res["total_shots"] == 4000
    assert res["accepted_shots"] == sum(
        1 for _ in range(res["accepted_shots"])
    )  # structural
    assert "bc_timeout" in res["aborts"]


def test_monte_carlo_zero_accepted_shots(tmp_path, capsys):
    # At 0.7 % acceptance, 20 shots of the shipped scenario accept none; the
    # run reports that instead of failing on an empty average.
    rc = cli.main(
        ["run", str(SCENARIOS / "monte-carlo.cfg"), "--shots", "20", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert "average fidelity: nan" in capsys.readouterr().out
    # Undefined fidelities are written as null: the summary is strict JSON.
    text = (tmp_path / "monte-carlo.summary.json").read_text()
    res = json.loads(text, parse_constant=_reject_constant)["results"]
    assert res["accepted_shots"] == 0 and res["total_shots"] == 20
    assert res["average_fidelity"] is None
    assert all(f is None for f in res["fidelities"].values())


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_cli_rates_uncalibrated_window(tmp_path, capsys):
    # A window missing from the link's visibility table is an error, not a
    # silent fallback to the 15 ns visibility.
    rc = cli.main(
        [
            "rates",
            str(SCENARIOS / "experiment-conditional.cfg"),
            "--windows",
            "12,15",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "12 ns" in err[0]


def _run_config(tmp_path, capsys, *lines):
    path = tmp_path / "typed.cfg"
    text = "scenario.name = typed\nscenario.mode = monte-carlo\nscenario.shots = 20\n"
    path.write_text(text + "\n".join(lines) + "\n")
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr()


def _one_error_line(captured) -> str:
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


def test_scenario_name_stays_text(tmp_path, capsys):
    # A name that looks like a number keeps its digits and runs.
    rc, captured = _run_config(tmp_path, capsys, "scenario.name = 007")
    assert rc == 0, captured.err
    assert harness.load_scenario(tmp_path / "typed.cfg").name == "007"
    assert (tmp_path / "out" / "007.summary.json").exists()


def test_scenario_fractional_shots_rejected(tmp_path, capsys):
    rc, captured = _run_config(tmp_path, capsys, "scenario.shots = 2.5")
    assert rc == 2
    assert "scenario.shots" in _one_error_line(captured)


def test_scenario_text_timeout_rejected(tmp_path, capsys):
    rc, captured = _run_config(tmp_path, capsys, "protocol.timeout = abc")
    assert rc == 2
    assert "protocol.timeout" in _one_error_line(captured)


def test_scenario_text_seed_message(tmp_path, capsys):
    rc, captured = _run_config(tmp_path, capsys, "scenario.seed = x")
    assert rc == 2
    line = _one_error_line(captured)
    assert "scenario.seed" in line and "'x'" in line and "np." not in line


def test_module_entry_point_help():
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-m", "teleportsim", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: teleportsim" in proc.stdout


def _named_config(tmp_path, name):
    path = tmp_path / "named.cfg"
    path.write_text(f"scenario.name = {name}\nscenario.outputs = fidelities\n")
    return path


def _run_named(tmp_path, name):
    return cli.main(["run", str(_named_config(tmp_path, name)), "--out", str(tmp_path / "out")])


def test_report_names_keep_dots(tmp_path, capsys):
    # Scenario names differing after a dot write different reports.
    for name in ("v1.5", "v1.6"):
        assert _run_named(tmp_path, name) == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert {"v1.5.summary.json", "v1.6.summary.json", "v1.5.fidelities.csv"} <= names
    assert not any(n.startswith("v1.summary") for n in names)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "budget", "ladder", "rates"])
def test_report_name_with_separator_rejected(tmp_path, capsys, command):
    argv = [command, str(_named_config(tmp_path, "../escape")), "--out", str(tmp_path / "out")]
    if command == "budget":
        argv += ["--link", "AB"]
    assert cli.main(argv) == 2
    assert "scenario.name" in _one_error_line(capsys.readouterr())
    assert not (tmp_path / "escape.summary.json").exists()
    assert not any(tmp_path.glob("escape.*"))


def test_empty_report_name_rejected(tmp_path, capsys):
    assert _run_named(tmp_path, "") == 2
    assert "scenario.name" in _one_error_line(capsys.readouterr())
    assert not (tmp_path / "out.summary.json").exists()


@pytest.mark.parametrize("name", [".", ".."])
def test_dot_report_names_rejected(tmp_path, capsys, name):
    assert _run_named(tmp_path, name) == 2
    assert "scenario.name" in _one_error_line(capsys.readouterr())


@pytest.mark.parametrize("seed", ["99999999999999999999999", "18446744073709551616", "-1"])
def test_cli_seed_outside_key_range(tmp_path, capsys, seed):
    # Philox key words are 64-bit unsigned: a seed outside [0, 2**64) would
    # overflow or wrap in a platform-dependent way.
    argv = ["run", str(SCENARIOS / "monte-carlo.cfg"), "--shots", "5", "--seed", seed]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert "scenario.seed" in _one_error_line(capsys.readouterr())


def test_cli_largest_seed_runs(tmp_path, capsys):
    argv = ["run", str(SCENARIOS / "monte-carlo.cfg"), "--shots", "5", "--seed", str(2**64 - 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    first = harness.shot_rng(2**64 - 1, "scen", 0).uniform(size=4)
    assert not np.array_equal(first, harness.shot_rng(2**63, "scen", 0).uniform(size=4))
    capsys.readouterr()


def test_cli_scenario_directory(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert "directory" in _one_error_line(capsys.readouterr()).lower()


def test_cli_rates_windows_not_numbers(tmp_path, capsys):
    argv = ["rates", str(SCENARIOS / "experiment-conditional.cfg"), "--windows", "abc"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert "--windows" in _one_error_line(capsys.readouterr())


def test_one_teleporter_per_config(tmp_path, capsys, monkeypatch):
    # Every output of a run reads one prepared teleporter; a ladder prepares
    # one per step, a rate sweep one per window, and a teleport budget one
    # per distinct set of the fields the teleporter reads.
    calls = []
    prepare = protocol._prepare_teleporter

    def counting(cfg):
        calls.append(cfg)
        return prepare(cfg)

    monkeypatch.setattr(protocol, "_prepare_teleporter", counting)
    cfg = str(SCENARIOS / "experiment-conditional.cfg")
    expected = {("run",): 1, ("ladder",): 4, ("rates",): 3, ("budget", "--link", "teleport"): 7}
    for argv, count in expected.items():
        calls.clear()
        assert cli.main([argv[0], cfg, *argv[1:], "--out", str(tmp_path)]) == 0
        assert len(calls) == count, argv
    capsys.readouterr()


def test_run_sends_the_inputs_through_once_per_output(tmp_path, capsys, monkeypatch):
    # One run makes one Charlie-side Bell contraction per output that needs
    # one (fidelities, bsm_breakdown and no_feedforward take the six inputs
    # as one stack, rates one input) and applies no Kraus channel to a
    # labeled state.
    shapes = []
    bell = protocol._bell_outcomes

    def counting(left, right):
        shapes.append(right.shape)
        return bell(left, right)

    def refuse(*args, **kwargs):
        raise AssertionError("apply_channel called")

    monkeypatch.setattr(protocol, "_bell_outcomes", counting)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("teleportsim") and hasattr(module, "apply_channel"):
            monkeypatch.setattr(module, "apply_channel", refuse)
    cfg = str(SCENARIOS / "experiment-conditional.cfg")
    assert cli.main(["run", cfg, "--out", str(tmp_path)]) == 0
    charlie = [shape[0] for shape in shapes if shape[-1] == 2]  # input qubits on the right
    assert sorted(charlie) == [1, 6, 6, 6]
    capsys.readouterr()
