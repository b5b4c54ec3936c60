"""Scenario runner: config files, reports, error budgets, ladders and rates.

Scenario files are flat ``section.key = value`` text (comments with ``#``,
units spelled out in key names).  Reports are CSV tables plus a JSON summary
with stable key ordering; every report embeds the resolved parameter set and
the package version, and reruns with the same seed are byte-identical.
Monte Carlo randomness comes from counter-based streams keyed by
(master seed, scenario name, shot index), so shots are reproducible and
order-independent.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, params as defaults, photonics, protocol
from .hilbert import CARDINAL_STATES

OUTPUT_KINDS = (
    "fidelities",
    "error_budget",
    "bsm_breakdown",
    "no_feedforward",
    "correlations",
    "rates",
    "bar_curves",
    "memory_curves",
)


class HarnessError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config format


_TRUE = ("on", "true", "yes")
_FALSE = ("off", "false", "no")
_KIND_NAMES = {bool: "on or off", int: "an integer", float: "a finite number", str: "text"}


def read_config_text(text: str) -> dict[str, str]:
    """Read ``section.key = value`` lines into a flat dict of raw value texts."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise HarnessError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise HarnessError(f"line {lineno}: empty key")
        out[key] = value
    return out


def _typed(key: str, kind: type, value):
    """One scenario value as its field's type: text is parsed, typed values checked."""
    if kind == tuple[str, ...]:
        if isinstance(value, str):
            value = tuple(v.strip() for v in value.split(","))
        return tuple(_typed(key, str, v) for v in (value if isinstance(value, tuple) else (value,)))
    out = _parse(kind, value) if isinstance(value, str) else value
    if kind is float and type(out) is int:
        out = float(out)
    if type(out) is not kind or (kind is float and not math.isfinite(out)):
        raise HarnessError(f"{key}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return out


def _parse(kind: type, text: str):
    """``text`` as a ``kind``, or None when it does not parse as one."""
    if kind is bool:
        low = text.lower()
        return True if low in _TRUE else False if low in _FALSE else None
    try:
        return kind(text)
    except ValueError:
        return None


def emit_config_text(values: dict) -> str:
    lines = []
    for key in sorted(values):
        lines.append(f"{key} = {_render(values[key])}")
    return "\n".join(lines) + "\n"


def _render(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return ", ".join(_render(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Scenario:
    """One runnable scenario: protocol settings plus execution/reporting."""

    name: str
    mode: str = "analytic"  # analytic | monte-carlo
    shots: int = 20000
    seed: int = 1
    outputs: tuple[str, ...] = ("fidelities",)
    protocol_mode: str = "conditional"
    window_ns: float = 15.0
    timeout: int = defaults.TIMEOUT_ATTEMPTS
    bar: bool = True
    improved_memory: bool = True
    tailored_heralding: bool = True
    noiseless: bool = False
    attempt_period_s: float = defaults.ATTEMPT_PERIOD_S
    cycle_overhead_s: float = defaults.CYCLE_OVERHEAD_S
    event_overhead_s: float = defaults.EVENT_OVERHEAD_S

    def __post_init__(self) -> None:
        # The name becomes the stem of every report file in the output
        # directory, and must read back from a config line as itself.
        name = self.name
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise HarnessError(f"scenario.name {name!r} is not a plain file name")
        if "#" in name or name != name.strip() or name.splitlines() != [name]:
            raise HarnessError(
                f"scenario.name {name!r} has a '#', a line break or surrounding spaces"
            )
        if not 0 <= self.seed < 2**64:
            raise HarnessError(f"scenario.seed {self.seed} outside [0, 2**64)")
        if self.mode not in ("analytic", "monte-carlo"):
            raise HarnessError(f"unknown run mode {self.mode!r}")
        if self.mode == "monte-carlo" and self.shots < 1:
            raise HarnessError("monte-carlo mode needs at least one shot")
        if self.protocol_mode not in ("conditional", "unconditional"):
            raise HarnessError(f"unknown protocol mode {self.protocol_mode!r}")
        if not self.attempt_period_s > 0:
            raise HarnessError(f"rate.attempt_period_s {self.attempt_period_s} is not positive")
        if not self.outputs:
            raise HarnessError("scenario.outputs names no output")
        unknown = set(self.outputs) - set(OUTPUT_KINDS)
        if unknown:
            raise HarnessError(f"unknown outputs {sorted(unknown)}")

    @classmethod
    def from_values(cls, values: dict) -> "Scenario":
        known = {
            "scenario.name": "name",
            "scenario.mode": "mode",
            "scenario.shots": "shots",
            "scenario.seed": "seed",
            "scenario.outputs": "outputs",
            "protocol.mode": "protocol_mode",
            "protocol.window_ns": "window_ns",
            "protocol.timeout": "timeout",
            "protocol.bar_readout": "bar",
            "protocol.improved_memory": "improved_memory",
            "protocol.tailored_heralding": "tailored_heralding",
            "protocol.noiseless": "noiseless",
            "rate.attempt_period_s": "attempt_period_s",
            "rate.cycle_overhead_s": "cycle_overhead_s",
            "rate.event_overhead_s": "event_overhead_s",
        }
        kinds = get_type_hints(cls)
        kwargs = {}
        for key, value in values.items():
            if key not in known:
                raise HarnessError(f"unknown configuration key {key!r}")
            name = known[key]
            kwargs[name] = _typed(key, kinds[name], value)
        if "name" not in kwargs:
            raise HarnessError("scenario.name is required")
        return cls(**kwargs)

    def to_values(self) -> dict:
        return {
            "scenario.name": self.name,
            "scenario.mode": self.mode,
            "scenario.shots": self.shots,
            "scenario.seed": self.seed,
            "scenario.outputs": self.outputs,
            "protocol.mode": self.protocol_mode,
            "protocol.window_ns": self.window_ns,
            "protocol.timeout": self.timeout,
            "protocol.bar_readout": self.bar,
            "protocol.improved_memory": self.improved_memory,
            "protocol.tailored_heralding": self.tailored_heralding,
            "protocol.noiseless": self.noiseless,
            "rate.attempt_period_s": self.attempt_period_s,
            "rate.cycle_overhead_s": self.cycle_overhead_s,
            "rate.event_overhead_s": self.event_overhead_s,
        }

    @cached_property
    def config(self) -> protocol.ProtocolConfig:
        """The protocol configuration, built once per scenario."""
        return protocol.make_config(
            mode=self.protocol_mode,
            window_ns=self.window_ns,
            bar_on=self.bar,
            improved_memory=self.improved_memory,
            tailored_heralding=self.tailored_heralding,
            noiseless=self.noiseless,
            timeout=self.timeout,
            attempt_period_s=self.attempt_period_s,
        )


def load_scenario(path: str | Path) -> Scenario:
    return Scenario.from_values(read_config_text(Path(path).read_text()))


def shot_rng(seed: int, scenario: str, shot: int) -> np.random.Generator:
    """Counter-based stream for one shot; independent of execution order.

    The shot index sits in counter word 1 and numpy counts the stream's
    4-draw blocks in word 0, so every shot owns 2**64 blocks of its own.
    """
    scen_key = zlib.crc32(scenario.encode())
    key = np.array([seed, scen_key], dtype=np.uint64)
    bits = np.random.Philox(counter=[0, shot, 0, 0], key=key)
    return np.random.Generator(bits)


# ---------------------------------------------------------------------------
# Rate model


@dataclass(frozen=True)
class RateModel:
    """Expected event rate from per-attempt probabilities and overheads."""

    attempt_period_s: float
    p_ab: float
    p_bc: float
    timeout: int
    bob_accept: float  # policy weight x consistent-pattern x charge check
    charlie_accept: float
    cycle_overhead_s: float = defaults.CYCLE_OVERHEAD_S
    bsm_overhead_s: float = 5e-3
    charlie_stage_s: float = 5e-3
    event_overhead_s: float = defaults.EVENT_OVERHEAD_S

    def __post_init__(self) -> None:
        if self.attempt_period_s <= 0:
            raise HarnessError("attempt period must be positive")
        if self.p_ab <= 0 or self.p_bc <= 0:
            raise HarnessError("per-attempt success probabilities must be positive")
        if min(
            self.cycle_overhead_s,
            self.bsm_overhead_s,
            self.charlie_stage_s,
            self.event_overhead_s,
        ) < 0:
            raise HarnessError("overhead durations must be nonnegative")


def estimate_rate(model: RateModel) -> float:
    """Accepted teleportation events per second.

    One cycle generates the first link, then attempts the second under the
    timeout; a timeout restarts the cycle.  A successful cycle pays the
    rephasing wait and Bob's measurement; rejected measurements restart from
    scratch, as does Charlie's stage in conditional operation.
    """
    tau = model.attempt_period_s
    p_t = 1.0 - (1.0 - model.p_bc) ** model.timeout
    if p_t <= 0:
        raise HarnessError("second link can never herald within the timeout")
    mean_tries = (1.0 - (1.0 - model.p_bc) ** model.timeout) / model.p_bc
    mass, (q_sum,) = protocol.truncated_geometric_sums(
        model.p_bc, model.timeout, lambda qs: qs[:, None]
    )
    q_mean_success = float(q_sum / mass)
    t_cycle = (1.0 / model.p_ab) * tau + model.cycle_overhead_s + mean_tries * tau
    t_prep = t_cycle / p_t + q_mean_success * tau + model.bsm_overhead_s
    t_bob = t_prep / model.bob_accept
    t_event = (t_bob + model.charlie_stage_s) / model.charlie_accept + model.event_overhead_s
    if not math.isfinite(t_event):
        raise HarnessError(f"time per event {t_event} s overflows")
    return 1.0 / t_event


def rate_model_for(scenario: Scenario) -> RateModel:
    cfg = scenario.config
    hl_ab = photonics.build_heralded(cfg.link_ab)
    hl_bc = photonics.build_heralded(cfg.link_bc)
    res = protocol.run_teleportation_analytic(cfg, "+z")
    # Split the analytic acceptance into the per-stage policy weights.
    total_weight = sum(w for w, _f in res.per_outcome.values())
    bob_policy = res.bob_accept_weight
    charlie_policy = total_weight / bob_policy if bob_policy > 0 else 1.0
    return RateModel(
        attempt_period_s=scenario.attempt_period_s,
        p_ab=hl_ab.p_success,
        p_bc=hl_bc.p_success,
        timeout=cfg.timeout,
        bob_accept=bob_policy * cfg.bob_bsm.acceptance_probability,
        charlie_accept=charlie_policy * cfg.charlie_bsm.acceptance_probability,
        cycle_overhead_s=scenario.cycle_overhead_s,
        event_overhead_s=scenario.event_overhead_s,
    )


# ---------------------------------------------------------------------------
# Scenario execution


@dataclass
class ScenarioReport:
    scenario: Scenario
    results: dict = field(default_factory=dict)
    files: list = field(default_factory=list)


def _analytic_results(scenario: Scenario) -> dict:
    cfg = scenario.config
    per_state = protocol.six_state_results(cfg)
    res = per_state["+z"]
    return {
        "fidelities": {k: float(r.fidelity) for k, r in per_state.items()},
        "average_fidelity": float(np.mean([r.fidelity for r in per_state.values()])),
        "teleporter_fidelity": float(res.swap_fidelity),
        "stored_teleporter_fidelity": float(res.teleporter_fidelity),
        "accept_probability": float(res.accept_probability),
        "mean_attempts_bc": float(res.mean_attempts_bc),
    }


def _monte_carlo_results(scenario: Scenario) -> dict:
    cfg = scenario.config
    states = list(CARDINAL_STATES)
    sums: dict[str, list[float]] = {s: [] for s in states}
    aborts: dict[str, int] = {}
    duration = 0.0
    for shot in range(scenario.shots):
        which = states[shot % len(states)]
        rng = shot_rng(scenario.seed, scenario.name, shot)
        out = protocol.run_teleportation_shot(cfg, which, rng)
        duration += out.duration_s
        if out.aborted:
            aborts[out.aborted] = aborts.get(out.aborted, 0) + 1
        else:
            sums[which].append(out.fidelity)
    fidelities = {}
    errors = {}
    for s in states:
        vals = np.asarray(sums[s])
        fidelities[s] = float(vals.mean()) if len(vals) else float("nan")
        errors[s] = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else float("nan")
    merged = [f for s in states for f in sums[s]]
    accepted = len(merged)
    return {
        "fidelities": fidelities,
        "fidelity_errors": errors,
        "average_fidelity": float(np.mean(merged)) if accepted else float("nan"),
        "accepted_shots": accepted,
        "total_shots": scenario.shots,
        "accept_probability": accepted / scenario.shots,
        "aborts": aborts,
    }


def link_budget_table(which: str, window_ns: float = 15.0) -> dict:
    cfg = {"AB": defaults.LINK_AB, "BC": defaults.LINK_BC}.get(which)
    if cfg is None:
        raise HarnessError(f"unknown link {which!r} (expected AB or BC)")
    link = defaults.build_link(cfg, window_ns=window_ns)
    rows = {src: float(photonics.single_error_budget(link, src)) for src in photonics.BUDGET_SOURCES}
    rows["combined"] = float(photonics.combined_infidelity(link))
    return rows


def teleport_budget_table(scenario: Scenario) -> dict:
    """Teleported-state infidelity attributed to each preparation/measurement noise.

    Link noise stays on throughout; each row is the infidelity increase over
    the links-only protocol when that single source is restored.  Rows that
    restore only fields the teleporter does not read share its preparation.
    """
    base_cfg = scenario.config
    # The links-only protocol: its ideal readouts accept every pattern, which
    # moves the acceptance probability but no fidelity.
    base = protocol.noiseless_config(
        scenario.protocol_mode,
        base_cfg.link_ab,
        base_cfg.link_bc,
        timeout=base_cfg.timeout,
        attempt_period_s=base_cfg.attempt_period_s,
    )
    f0 = protocol.average_fidelity(base)
    rows = {}
    restore = {
        "ionization_alice": ("ionization_alice",),
        "alice_decoupling": ("alice_eigen_fit", "alice_super_fit"),
        "bob_memory_storage": ("store_depol_bob",),
        "bob_memory_dephasing": ("memory_fit",),
        "charlie_memory_storage": ("store_depol_charlie",),
        "bob_readout": ("bob_bsm",),
        "charlie_readout": ("charlie_bsm",),
        "state_preparation": ("prep_init_error", "prep_pulse_error"),
    }
    for name, fields in restore.items():
        cfg = protocol.replace_config(base, **{f: getattr(base_cfg, f) for f in fields})
        rows[name] = float(f0 - protocol.average_fidelity(cfg))
    rows["links_only_infidelity"] = float(1.0 - f0)
    rows["combined"] = float(1.0 - protocol.average_fidelity(base_cfg))
    return rows


def improvement_ladder(scenario: Scenario) -> list[dict]:
    """Cumulative effect of the three protocol upgrades on fidelity and rate."""
    steps = [
        ("baseline", dict(bar=False, improved_memory=False, tailored_heralding=False)),
        ("repetitive_readout", dict(bar=True, improved_memory=False, tailored_heralding=False)),
        ("memory_decoupling", dict(bar=True, improved_memory=True, tailored_heralding=False)),
        ("tailored_heralding", dict(bar=True, improved_memory=True, tailored_heralding=True)),
    ]
    rows = []
    for name, toggles in steps:
        scen = replace(scenario, **toggles)
        fid = protocol.average_fidelity(scen.config)
        rate = estimate_rate(rate_model_for(scen))
        rows.append({"step": name, "average_fidelity": float(fid), "rate_hz": float(rate)})
    return rows


def correlation_tables(which: str = "AB", window_ns: float = 15.0) -> dict:
    """Measurement correlations of a heralded link, overall and flag-conditioned."""
    cfg = {"AB": defaults.LINK_AB, "BC": defaults.LINK_BC}[which]
    link = defaults.build_link(cfg, window_ns=window_ns)
    hl = photonics.build_heralded(replace(link, psb_rejection=False))
    out = {}
    for basis in ("z", "x", "y"):
        out[f"herald_{basis}"] = photonics.herald_correlations(hl, basis)
    for node in ("node1", "node2"):
        for epoch in ("dur", "aft"):
            for basis in ("z", "x", "y"):
                key = (node, epoch)
                if key in hl.flag_states:
                    out[f"flag_{node}_{epoch}_{basis}"] = photonics.psb_conditioned_correlations(
                        hl, node, epoch, basis
                    )
    return out


def bar_curve_tables() -> dict:
    from .spin_noise import ReadoutParams, bar_model_curves

    out = {}
    for node in ("bob", "charlie"):
        pars = ReadoutParams(
            comm_fidelities=defaults.COMM_READOUT[node],
            memory_effective=defaults.MEMORY_READOUT_EFFECTIVE[node],
            **defaults.BAR_PARAMS[node],
        )
        fid, acc = bar_model_curves(pars, 5)
        out[node] = {"fidelity": fid.tolist(), "accepted_fraction": acc.tolist()}
    return out


def memory_curve_tables(points: int = 20) -> dict:
    from .spin_noise import DecayFit

    out = {}
    grid = np.linspace(0, 6000, points)
    for name, fit in defaults.MEMORY_FITS.items():
        f = DecayFit(fit["amplitude"], fit["scale"], fit["stretch"])
        out[name] = {
            "attempts": grid.tolist(),
            "bloch_length": [f.value(n) for n in grid],
        }
    return out


def run_scenario(
    path: str | Path,
    out_dir: str | Path,
    seed: int | None = None,
    shots: int | None = None,
    analytic: bool | None = None,
) -> ScenarioReport:
    """Execute a scenario file and write its reports.

    Returns the report object; files land in ``out_dir`` named after the
    scenario.  Deterministic for a fixed seed and configuration.
    """
    scenario = load_scenario(path)
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    if shots is not None:
        scenario = replace(scenario, shots=shots)
    if analytic:
        scenario = replace(scenario, mode="analytic")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = ScenarioReport(scenario=scenario)

    if scenario.mode == "analytic":
        report.results.update(_analytic_results(scenario))
    else:
        report.results.update(_monte_carlo_results(scenario))

    if "error_budget" in scenario.outputs:
        report.results["error_budget"] = {
            "AB": link_budget_table("AB", scenario.window_ns),
            "BC": link_budget_table("BC", scenario.window_ns),
            "teleport": teleport_budget_table(scenario),
        }
    if "bsm_breakdown" in scenario.outputs:
        table = protocol.per_bsm_outcome_fidelity(scenario.config)
        report.results["bsm_breakdown"] = {f"{m}{c}": float(v) for (m, c), v in table.items()}
    if "no_feedforward" in scenario.outputs:
        report.results["no_feedforward_fidelity"] = float(
            protocol.no_feedforward_fidelity(scenario.config)
        )
    if "correlations" in scenario.outputs:
        report.results["correlations"] = correlation_tables("AB", scenario.window_ns)
    if "rates" in scenario.outputs:
        report.results["rate_hz"] = float(estimate_rate(rate_model_for(scenario)))
    if "bar_curves" in scenario.outputs:
        report.results["bar_curves"] = bar_curve_tables()
    if "memory_curves" in scenario.outputs:
        report.results["memory_curves"] = memory_curve_tables()

    _write_reports(report, out)
    return report


def _write_reports(report: ScenarioReport, out: Path) -> None:
    scenario, res = report.scenario, report.results

    def write(kind: str, text: str = "", header=(), rows=()) -> None:
        path = out / f"{scenario.name}.{kind}"
        with path.open("w", newline="") as fh:
            fh.write(text)
            if header:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        report.files.append(path)

    summary = {
        "scenario": scenario.name,
        "version": __version__,
        "parameters": {k: _jsonable(v) for k, v in scenario.to_values().items()},
        "results": _jsonable(res),
    }
    write("summary.json", json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n")
    write("effective.cfg", emit_config_text(scenario.to_values()))
    if "fidelities" in res:
        fids = res["fidelities"]
        rows = [[s, f"{fids[s]:.6f}"] for s in sorted(fids)]
        rows.append(["average", f"{res['average_fidelity']:.6f}"])
        write("fidelities.csv", header=["state", "fidelity"], rows=rows)
    if "error_budget" in res:
        rows = [
            [table, src, f"{budget[src]:.6f}"]
            for table, budget in sorted(res["error_budget"].items())
            for src in sorted(budget)
        ]
        write("error_budget.csv", header=["table", "source", "infidelity"], rows=rows)
    if "correlations" in res:
        rows = [
            [table, outcome, f"{dist[outcome]:.6f}"]
            for table, dist in sorted(res["correlations"].items())
            for outcome in sorted(dist)
        ]
        write("correlations.csv", header=["table", "outcome", "probability"], rows=rows)
    if "bsm_breakdown" in res:
        table = res["bsm_breakdown"]
        rows = [[outcome, f"{table[outcome]:.6f}"] for outcome in sorted(table)]
        write("bsm_breakdown.csv", header=["outcome_memory_comm", "average_fidelity"], rows=rows)
    if "bar_curves" in res:
        rows = [
            [node, i, f"{f:.6f}", f"{a:.6f}"]
            for node, curves in sorted(res["bar_curves"].items())
            for i, (f, a) in enumerate(zip(curves["fidelity"], curves["accepted_fraction"]), 1)
        ]
        header = ["node", "repetitions", "fidelity", "accepted_fraction"]
        write("bar_curves.csv", header=header, rows=rows)
    if "memory_curves" in res:
        rows = [
            [name, f"{n:.1f}", f"{b:.6f}"]
            for name, data in sorted(res["memory_curves"].items())
            for n, b in zip(data["attempts"], data["bloch_length"])
        ]
        write("memory_curves.csv", header=["sequence", "attempts", "bloch_length"], rows=rows)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None  # undefined (e.g. no accepted shots); strict JSON has no NaN
    return value


def window_rate_sweep(scenario: Scenario, windows: tuple[float, ...]) -> list[dict]:
    rows = []
    for w in windows:
        scen = replace(scenario, window_ns=float(w))
        rate = estimate_rate(rate_model_for(scen))
        fid = protocol.average_fidelity(scen.config)
        rows.append({"window_ns": float(w), "rate_hz": float(rate), "average_fidelity": float(fid)})
    return rows
