"""The benchmark's workloads: seeded op sequences, their checks and results.

Every workload is a closed loop: one process, one client, the next op starts
when the previous one returns.  Ops come in blocks that balance the drawn
inputs, and a phase only stops at a block boundary once its time is up, so
the mix of cheap and expensive ops in a run depends little on the seed.

Why each workload, and which layer it isolates:

``analytic-sweep``
    A seeded sequence of operating points, each run in-process through
    ``teleportsim.cli.main``: four points in five are ``run <cfg>`` in
    analytic mode with outputs ``fidelities, bsm_breakdown, no_feedforward,
    rates``, the fifth is ``budget <cfg> --link teleport``.  Point 0 is the
    shipped ``experiment-conditional.cfg``.  Every point reuses the two links
    calibrated in set-up, so the work is all ``protocol`` analytic stages,
    ``spin_noise`` channel builds and ``hilbert`` algebra; the emitter and
    photonics do nothing after set-up.  The timeout spread (log-uniform in
    [100, 3000], stratified per block) varies the attempt-average stage,
    which builds one decoupling channel per attempt count.
``link-sweep``
    A seeded sequence of new link designs: ``params.build_link``, then
    ``photonics.single_error_budget`` for every budget source and
    ``photonics.combined_infidelity`` -- what ``teleportsim budget --link
    AB`` computes, for new hardware.  Every design is new, so link reuse is
    0 % and the emitter (pulse calibration over the RK4 solver) and
    photonics do almost all the work; the protocol does none.
``monte-carlo`` (run by hand; not listed in ``BENCHMARK.json``)
    Fixed-seed shots through ``protocol.run_teleportation_shot`` with
    ``harness.shot_rng(seed, name, shot)``, alternating the default
    conditional and unconditional configurations and cycling the six
    cardinal states, then a second phase of ``spin_noise.bar_readout`` at 2
    repetitions for Bob and Charlie with alternating |0>/|1> inputs.  A
    per-shot state machine on 2-4 qubit states instead of dense per-config
    averaging; about 95 % of shots stop cheaply at the second-link timeout.
    It is kept out of the gated benchmark: in runs of 15 and 20 s its shot
    rate was the most sensitive of the three to the speed of a shared host
    (ten-run spreads of 0.15 and 0.20 of the median on two shared cores,
    against 0.10-0.16 for the other two at the same times), and three
    workloads of 30 s runs do not fit the benchmark's time budget.  Its
    per-layer metrics read 0 on the gated workloads; the layers it
    exercises (``protocol``, ``hilbert``, ``spin_noise``, ``harness``) are
    all measured on ``analytic-sweep``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import replace
from pathlib import Path

STATES = ("+x", "-x", "+y", "-y", "+z", "-z")


class CheckFailed(Exception):
    pass


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


class Phase:
    """A run of ops: ``prepare`` (untimed) then ``run`` (timed) per op."""

    name = "ops"
    block = 1
    share = 1.0  # share of the run's seconds
    digest_ops = 1  # ops covered by the output digest and the peak-memory reading
    ALIASES: dict[str, str] = {}  # generic metric name -> the workload's own name for it
    peak_rss_mb: float | None = None  # set by ``run.drive`` once ``digest_ops`` ops are done

    def prepare(self, i: int):
        return i

    def run(self, job):
        raise NotImplementedError

    def delivered(self, out) -> bool:
        """Whether a successful op delivered a result (an accepted shot)."""
        return True

    def check(self, i: int, job, out) -> None:
        """Raise CheckFailed when one op's output is wrong (runs untimed)."""

    def result(self, i: int, job, out) -> dict:
        """Deterministic record of one op: no wall times."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# analytic-sweep


class AnalyticPoints(Phase):
    name = "points"
    block = 5  # four runs and one budget; inputs are drawn per pair of blocks
    digest_ops = 5
    ALIASES = {"ops_per_s": "points_per_s", "op_p50_s": "point_p50_s", "op_tail_s": "point_tail_s"}
    OUTPUTS = "fidelities, bsm_breakdown, no_feedforward, rates"
    MODES = ("conditional", "unconditional")
    FLAGS = ((True, True), (True, False), (False, True), (False, False))  # bar, improved memory
    # Point 0 is the shipped configuration: conditional, BAR and improved
    # memory on (the defaults), timeout 1000, which lies in the fourth fifth
    # of the log-uniform timeout range.
    SHIPPED = ("conditional", True, True, 1000)

    def __init__(self, seed: int, run_dir: Path) -> None:
        from teleportsim import cli

        self.cli = cli
        self.rng = random.Random(f"analytic-sweep:{seed}")
        self.cfg_dir = run_dir / "cfgs"
        self.out_dir = run_dir / "reports"
        self.cfg_dir.mkdir(parents=True)
        self.out_dir.mkdir(parents=True)
        scenarios = Path(cli.__file__).parent / "scenarios"
        self.shipped = scenarios / "experiment-conditional.cfg"
        self._pair_draws: list[tuple[str, bool, bool, int]] = []

    @staticmethod
    def _timeout(u: float) -> int:
        return round(_log_uniform(100, 3000, u))

    def _new_pair(self, b: int) -> None:
        # Every block does about the same work, so a run's op rate depends on
        # the program and not on the seed.  The timeout of each point is
        # log-uniform within one fifth of the range: the four runs of a block
        # take the fifths 0, 1, 3 and 4 in a seeded order and its budget the
        # middle one, and the second block of a pair mirrors the first one's
        # position in each fifth (u and 1 - u), so each fifth is still drawn
        # uniformly and a pair costs nearly the same whatever u is.  Each
        # block runs two points of each mode; over the pair every mode meets
        # every (BAR, improved memory) pair once, and the two budgets take
        # opposite modes and opposite flags.
        rng = self.rng
        u = [rng.random() for _ in range(5)]
        if b == 0:
            lo, hi = math.log(100), math.log(3000)
            u[3] = 5 * (math.log(self.SHIPPED[3]) - lo) / (hi - lo) - 3
        blocks: list[list[tuple[str, bool, bool]]] = [[], []]
        for mode in self.MODES:
            flags = list(self.FLAGS)
            rng.shuffle(flags)
            if b == 0 and mode == self.SHIPPED[0]:
                flags.remove(self.SHIPPED[1:3])
                flags.insert(0, self.SHIPPED[1:3])
            blocks[0] += [(mode, *f) for f in flags[:2]]
            blocks[1] += [(mode, *f) for f in flags[2:]]
        budget_mode, (bar, improved) = rng.randrange(2), rng.choice(self.FLAGS)
        budgets = [(self.MODES[budget_mode], bar, improved),
                   (self.MODES[1 - budget_mode], not bar, not improved)]
        draws = []
        for h, (runs, budget) in enumerate(zip(blocks, budgets)):
            strata = [0, 1, 3, 4]
            rng.shuffle(strata)
            rng.shuffle(runs)
            if b == 0 and h == 0:
                runs.insert(0, runs.pop(runs.index(self.SHIPPED[:3])))
                strata.insert(0, strata.pop(strata.index(3)))
            for k, draw in zip(strata + [2], runs + [budget]):
                pos = u[k] if h == 0 else 1.0 - u[k]
                draws.append((*draw, self._timeout((k + pos) / 5)))
        self._pair_draws = draws

    def prepare(self, i: int):
        if i % (2 * self.block) == 0:
            self._new_pair(i // (2 * self.block))
        mode, bar, improved, timeout = self._pair_draws[i % (2 * self.block)]
        kind = "budget" if i % self.block == self.block - 1 else "run"
        if i == 0:
            return {"kind": "run", "name": "experiment-conditional", "cfg": str(self.shipped)}
        draw = {"mode": mode, "bar_readout": bar, "improved_memory": improved, "timeout": timeout}
        name = f"point-{i:04d}"
        text = (
            f"scenario.name = {name}\n"
            "scenario.mode = analytic\n"
            f"scenario.outputs = {self.OUTPUTS}\n"
            f"protocol.mode = {mode}\n"
            f"protocol.bar_readout = {'on' if bar else 'off'}\n"
            f"protocol.improved_memory = {'on' if improved else 'off'}\n"
            f"protocol.timeout = {timeout}\n"
        )
        path = self.cfg_dir / f"{name}.cfg"
        path.write_text(text)
        return {"kind": kind, "name": name, "cfg": str(path), **draw}

    def run(self, job):
        argv = [job["kind"], job["cfg"], "--out", str(self.out_dir)]
        if job["kind"] == "budget":
            argv[2:2] = ["--link", "teleport"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def _files(self, job) -> list[Path]:
        return sorted(self.out_dir.glob(f"{job['name']}.*"))

    def check(self, i: int, job, out) -> None:
        rc, _stdout = out
        _check(rc == 0, f"exit code {rc}")
        if job["kind"] == "budget":
            path = self.out_dir / f"{job['name']}.budget_teleport.csv"
            with path.open() as fh:
                rows = {r["source"]: float(r["infidelity"]) for r in csv.DictReader(fh)}
            _check(all(math.isfinite(v) for v in rows.values()), "non-finite budget row")
            _check(0.0 < rows["combined"] < 1.0, f"combined infidelity {rows['combined']}")
            return
        res = json.loads((self.out_dir / f"{job['name']}.summary.json").read_text())["results"]
        fids = res["fidelities"]
        _check(len(fids) == 6, f"{len(fids)} fidelities")
        _check(all(0.0 <= f <= 1.0 for f in fids.values()), "fidelity outside [0, 1]")
        rate = res["rate_hz"]
        _check(math.isfinite(rate) and rate > 0, f"rate_hz {rate}")

    def result(self, i: int, job, out) -> dict:
        rc, stdout = out
        files = {p.name: _sha(p.read_bytes()) for p in self._files(job)}
        params = {k: v for k, v in job.items() if k != "cfg"}
        return {
            "op": i, **params, "rc": rc,
            "stdout": _sha(stdout.replace(str(self.out_dir), "<out>").encode()),
            "files": files,
        }

    def run_checks(self, records) -> list[tuple[str, bool, str]]:
        """Criteria 5 and 7 on point 0, the shipped experiment configuration."""
        if not records or records[0][2] is not None:
            return [("point0", False, "point 0 did not run")]
        res = json.loads((self.out_dir / "experiment-conditional.summary.json").read_text())
        res = res["results"]
        f = res["fidelities"]
        avg = sum(f.values()) / 6.0
        x, y, z = ((f[f"+{a}"] + f[f"-{a}"]) / 2.0 for a in "xyz")
        nff = res["no_feedforward_fidelity"]
        return [
            ("point0.average", abs(avg - 0.695) <= 0.02 and x > z > y,
             f"average {avg:.4f}; X {x:.4f} > Z {z:.4f} > Y {y:.4f}"),
            ("point0.no_feedforward", abs(nff - 0.50) <= 0.01, f"{nff:.4f}"),
        ]


# ---------------------------------------------------------------------------
# link-sweep


class LinkDesigns(Phase):
    name = "designs"
    block = 2  # one design from each default link
    digest_ops = 4
    ALIASES = {"ops_per_s": "links_per_s", "op_p50_s": "link_p50_s"}
    WINDOWS = (15.0, 10.0, 7.5)

    def __init__(self, seed: int, cfg) -> None:
        from teleportsim import params, photonics

        self.params, self.photonics = params, photonics
        self.seed = seed
        self.rng = random.Random(f"link-sweep:{seed}")
        self.defaults = (cfg.link_ab, cfg.link_bc)

    def prepare(self, i: int):
        rng = self.rng
        base = (self.params.LINK_AB, self.params.LINK_BC)[i % 2]
        # Reachable calibration ranges are about [0.022, 0.076] for 5 ns
        # pulses and [0.026, 0.089] for 6 ns ones.
        lo, hi = (0.03, 0.07) if base.pulse_ns[0] == 5.0 else (0.04, 0.085)
        design = replace(
            base,
            name=f"{base.name}-design-{self.seed}-{i}",
            alpha=(rng.uniform(0.03, 0.10), rng.uniform(0.03, 0.10)),
            double_excitation=rng.uniform(lo, hi),
            visibility=rng.uniform(0.85, 0.97),
            visibility_by_window=(),
            phase_uncertainty_deg=rng.uniform(5.0, 25.0),
            dark_rate_hz=rng.uniform(0.0, 50.0),
        )
        return design, rng.choice(self.WINDOWS)

    def run(self, job):
        design, window = job
        ph = self.photonics
        link = self.params.build_link(design, window_ns=window)
        rows = {src: ph.single_error_budget(link, src) for src in ph.BUDGET_SOURCES}
        return link, rows, ph.combined_infidelity(link)

    def check(self, i: int, job, out) -> None:
        design, _window = job
        link, rows, combined = out
        for node in (link.node1, link.node2):
            p2 = node.emission.p2
            _check(abs(p2 - design.double_excitation) <= 1e-3,
                   f"P2 {p2:.5f} vs target {design.double_excitation:.5f}")
        _check(0.0 < combined < 1.0, f"combined infidelity {combined}")
        _check(combined >= rows["alpha"], f"combined {combined} below alpha row {rows['alpha']}")

    def result(self, i: int, job, out) -> dict:
        design, window = job
        link, rows, combined = out
        return {
            "op": i, "design": design.name, "window_ns": window,
            "alpha": list(design.alpha), "double_excitation": design.double_excitation,
            "visibility": design.visibility, "phase_deg": design.phase_uncertainty_deg,
            "dark_hz": design.dark_rate_hz,
            "p2": [link.node1.emission.p2, link.node2.emission.p2],
            "eta_zpl": [link.node1.eta_zpl, link.node2.eta_zpl],
            "rows": rows, "combined": combined,
        }

    def run_checks(self, records) -> list[tuple[str, bool, str]]:
        """Criterion 2: default AB/BC combined infidelities 0.16/0.17 +- 0.03."""
        out = []
        for name, link, target in (("AB", self.defaults[0], 0.16), ("BC", self.defaults[1], 0.17)):
            c = self.photonics.combined_infidelity(link)
            out.append((f"default_{name}.combined", abs(c - target) <= 0.03, f"{c:.4f}"))
        return out


# ---------------------------------------------------------------------------
# monte-carlo


class Shots(Phase):
    name = "shots"
    block = 12  # both configurations x six cardinal states
    share = 0.9
    digest_ops = 12000
    ALIASES = {"ops_per_s": "shots_per_s", "accepted_per_s": "accepted_per_s"}
    ABORTS = ("ab_cap", "bc_timeout", "bob_bsm", "charlie_bsm")

    def __init__(self, seed: int, cfg) -> None:
        from teleportsim import harness, protocol

        self.harness, self.protocol = harness, protocol
        self.seed = seed
        self.cfgs = (cfg, protocol.make_config("unconditional"))
        self.tags = ("bench-conditional", "bench-unconditional")

    def run(self, i: int):
        c = i % 2
        which = STATES[(i // 2) % 6]
        rng = self.harness.shot_rng(self.seed, self.tags[c], i)
        out = self.protocol.run_teleportation_shot(self.cfgs[c], which, rng)
        return out.aborted, out.fidelity

    def delivered(self, out) -> bool:
        return out[0] is None

    def check(self, i: int, job, out) -> None:
        aborted, fid = out
        _check(aborted in self.ABORTS if fid is None else 0.0 <= fid <= 1.0,
               f"shot outcome {out}")

    def result(self, i: int, job, out) -> dict:
        return {"op": i, "aborted": out[0], "fidelity": out[1]}

    @classmethod
    def mc_metrics(cls, records) -> dict:
        """Acceptance ratio and abort counts of the sampled shots (zero without shots)."""
        outcomes = [out[0] for _dt, out, err in records if err is None]
        metrics = {
            "protocol.mc.accept_ratio": (outcomes.count(None) / len(records) if records else 0.0, "ratio")
        }
        for k in cls.ABORTS:
            metrics[f"protocol.mc.abort.{k}"] = (outcomes.count(k), "count")
        return metrics

    def run_checks(self, records) -> list[tuple[str, bool, str]]:
        """Sampled acceptance and mean fidelity against the analytic model, 4 SE.

        The fidelity's standard error uses the bound Var(F) <= m (1 - m) of a
        quantity in [0, 1] with mean m, not the sample variance: accepted
        shots carry a rare class of low-fidelity outcomes (misassigned Bell
        results, about 3 % conditional and 10 % unconditional), and a run's
        few hundred accepted shots often hold too few of them for their own
        spread to be trusted.
        """
        checks = []
        for c, cfg in enumerate(self.cfgs):
            per_state = {s: self.protocol.run_teleportation_analytic(cfg, s) for s in STATES}
            n_state = dict.fromkeys(STATES, 0)
            fids = []
            for i, (_dt, out, err) in enumerate(records):
                if i % 2 != c or err is not None:
                    continue
                n_state[STATES[(i // 2) % 6]] += 1
                if out[0] is None:
                    fids.append(out[1])
            n = sum(n_state.values())
            acc_w = {s: n_state[s] * per_state[s].accept_probability for s in STATES}
            p_acc = sum(acc_w.values()) / n
            f_exp = sum(acc_w[s] * per_state[s].fidelity for s in STATES) / sum(acc_w.values())
            k = len(fids)
            se_acc = math.sqrt(p_acc * (1 - p_acc) / n)
            z_acc = (k / n - p_acc) / se_acc
            checks.append((f"{self.tags[c]}.acceptance", abs(z_acc) <= 4,
                           f"{k}/{n} = {k / n:.5f} vs {p_acc:.5f} ({z_acc:+.2f} SE)"))
            if k == 0:
                checks.append((f"{self.tags[c]}.fidelity", False, "no accepted shots"))
                continue
            mean = sum(fids) / k
            z_fid = (mean - f_exp) / math.sqrt(f_exp * (1 - f_exp) / k)
            checks.append((f"{self.tags[c]}.fidelity", abs(z_fid) <= 4,
                           f"{mean:.4f} vs {f_exp:.4f} ({z_fid:+.2f} SE)"))
        return checks


class BarReadouts(Phase):
    name = "bar"
    block = 4  # both nodes x both inputs
    share = 0.1
    digest_ops = 3000
    REPS = 2

    def __init__(self, seed: int) -> None:
        from teleportsim import harness, hilbert, params, spin_noise

        self.sn = spin_noise
        self.rng = harness.shot_rng(seed, "bench-bar", 0)
        self.nodes = ("bob", "charlie")
        self.readout = [
            spin_noise.ReadoutParams(
                comm_fidelities=params.COMM_READOUT[node],
                memory_effective=params.MEMORY_READOUT_EFFECTIVE[node],
                **params.BAR_PARAMS[node],
            )
            for node in self.nodes
        ]
        self.inputs = (hilbert.qubit("m", hilbert.KET0), hilbert.qubit("m", hilbert.KET1))

    def run(self, i: int):
        res = self.sn.bar_readout(self.inputs[i % 2], self.REPS, self.readout[(i // 2) % 2], self.rng)
        return res.consistent, res.assigned

    def result(self, i: int, job, out) -> dict:
        return {"op": i, "consistent": out[0], "assigned": out[1]}

    def run_checks(self, records) -> list[tuple[str, bool, str]]:
        """Sampled BAR fidelity and accepted fraction against bar_model_curves, 4 SE."""
        checks = []
        for k, node in enumerate(self.nodes):
            fid_c, acc_c = self.sn.bar_model_curves(self.readout[k], self.REPS)
            f_exp, a_exp = fid_c[self.REPS - 1], acc_c[self.REPS - 1]
            n = consistent = correct = 0
            for i, (_dt, out, err) in enumerate(records):
                if (i // 2) % 2 != k or err is not None:
                    continue
                n += 1
                if out[0]:
                    consistent += 1
                    correct += out[1] == i % 2
            z_acc = (consistent / n - a_exp) / math.sqrt(a_exp * (1 - a_exp) / n)
            z_fid = (correct / consistent - f_exp) / math.sqrt(f_exp * (1 - f_exp) / consistent)
            checks.append((f"bar_{node}.accepted", abs(z_acc) <= 4,
                           f"{consistent / n:.4f} vs {a_exp:.4f} ({z_acc:+.2f} SE)"))
            checks.append((f"bar_{node}.fidelity", abs(z_fid) <= 4,
                           f"{correct / consistent:.4f} vs {f_exp:.4f} ({z_fid:+.2f} SE)"))
        return checks


def phases(workload: str, seed: int, run_dir: Path, cfg) -> list[Phase]:
    """The phases of a named workload, built after set-up (untimed)."""
    if workload == "analytic-sweep":
        return [AnalyticPoints(seed, run_dir)]
    if workload == "link-sweep":
        return [LinkDesigns(seed, cfg)]
    if workload == "monte-carlo":
        return [Shots(seed, cfg), BarReadouts(seed)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("analytic-sweep", "link-sweep", "monte-carlo")
