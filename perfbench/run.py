"""Benchmark of the teleportation simulator, end to end and per layer.

Run from the checkout root::

    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 30 --trace 0

The workloads (``analytic-sweep`` and ``link-sweep``, listed in
``BENCHMARK.json``, and ``monte-carlo``, run by hand) and why each was
chosen are described in ``workloads.py``.  Inputs come only from
``--seed``.  Each run:

1. times set-up (import, default configuration, both default heralded
   links) in two fresh interpreters side by side, one per core, then in
   this process alone; ``setup_s`` is the median of the three;
2. runs the workload's phases in a closed loop for ``--seconds`` in total,
   timing each op; the inputs of an op are prepared outside its timing;
3. checks every op and the run as a whole, outside the timed region;
4. writes under ``.perfbench/<workload>-s<seed>-t<trace>/`` the per-op
   results (gzipped JSON lines, no wall times), the op durations and the run
   context, which holds the digest of the first ops' results: two runs on
   one seed give the same digest;
5. prints the run context as one JSON line, then the result as the last line.

With ``--trace 0`` the metrics are the end-to-end ones, the same for every
workload:

- ``setup_s``: median set-up time, as above;
- ``peak_rss_mb``: peak resident memory of this process once the ops the
  digest covers are done, so that a faster program doing more ops in a run
  does not read as bigger;
- ``ok_frac``: ops that neither raised, exited non-zero nor failed their
  own check, over ops attempted (the failed count is in ``failed``);
- ``ops_per_s``: ops of the workload's main phase over the time they took.

The op latency, ``op_p50_s`` and ``op_tail_s`` (the highest of the p50 ...
p99.9 percentiles with at least ten ops beyond it, the median when there
are fewer than 20 ops), is in the context line with its percentile and
sample count, not among the metrics: a median of the few multi-second ops
of a run moves with the host's speed far more than their total does.  The
context line also gives the metrics under each workload's own names
(``points_per_s``, ``point_p50_s``, ``links_per_s``, ``shots_per_s`` ...),
with ``accepted_per_s`` (accepted shots) and ``bar_shots_per_s`` for
``monte-carlo``, and ``failed_frac``.

With ``--trace 1`` the run first starts the same command with ``--trace 0``
as the untraced reference, then wraps the public functions of every layer
(``tracer.py``) and prints per-function and per-layer counts and self time,
cache hit ratios, solver iterations per pulse calibration, decoupling
channels per op, Monte Carlo acceptance and abort counts, and
``trace.overhead_frac``: traced over untraced time on the ops both runs did.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT = bootstrap.ROOT / ".perfbench"
SETUP_PROBES = 2
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def probe_setup() -> list[float]:
    """Set-up times measured in ``SETUP_PROBES`` fresh interpreters at once.

    The probes run side by side (no more of them than the two cores the
    benchmark is sized for) so that they cost one set-up of wall time.
    """
    procs = [
        subprocess.Popen([sys.executable, str(HERE / "probe.py")], cwd=bootstrap.ROOT,
                         stdout=subprocess.PIPE, text=True)
        for _ in range(SETUP_PROBES)
    ]
    try:
        outs = [proc.communicate(timeout=60)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    if any(proc.returncode for proc in procs):
        raise RuntimeError("a set-up probe failed")
    return [float(json.loads(out.strip().splitlines()[-1])["setup_s"]) for out in outs]


def rss_high_water_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drive(phase: workloads.Phase, seconds: float, tracer: Tracer | None, op_base: int):
    """Closed loop over one phase; stops at a block boundary once time is up."""
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        job = phase.prepare(i)
        if tracer is not None:
            tracer.op = op_base + i
        t0 = time.perf_counter()
        try:
            out, err = phase.run(job), None
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        records.append((t1 - t0, out, err, job))
        i += 1
        if i == phase.digest_ops:
            phase.peak_rss_mb = rss_high_water_mb()
        if i % phase.block == 0 and t1 >= deadline:
            return records


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): highest listed percentile with >= 10 ops beyond it."""
    n = len(durations)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            break
    else:
        p = 50
    if n < 2:
        return p, durations[0]
    cuts = statistics.quantiles(durations, n=1000, method="inclusive")
    return p, cuts[int(round(p * 10)) - 1]


def git_commit() -> str:
    head = bootstrap.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = bootstrap.ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref
    return ref


def untraced_reference(args) -> dict:
    """Run the same command with ``--trace 0``; returns its run context."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True,
                          timeout=100, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-2])["context"]


def check_runs(runs, run_dir: Path) -> tuple[dict, dict]:
    """Check every op and the run, write the per-op results and digest them.

    Returns the (duration, output, error) records per phase, with failed
    checks turned into errors, and the run's check summary.
    """
    summary = {"attempted": 0, "failed": 0, "failures": [], "checks": [], "digest_ops": {}}
    digest = hashlib.sha256()
    per_phase = {}
    with gzip.open(run_dir / "results.jsonl.gz", "wt", compresslevel=1) as fh:
        for phase, records in runs:
            checked = []
            for i, (dt, out, err, job) in enumerate(records):
                if err is None:
                    try:
                        phase.check(i, job, out)
                    except Exception as exc:  # a failed check fails the op, not the run
                        err = f"{type(exc).__name__}: {exc}"
                line = {"phase": phase.name, "op": i, "error": err} if out is None \
                    else {"phase": phase.name, **phase.result(i, job, out)}
                text = json.dumps(line, sort_keys=True)
                fh.write(text + "\n")
                if i < phase.digest_ops:
                    digest.update(text.encode() + b"\n")
                summary["attempted"] += 1
                if err is not None:
                    summary["failed"] += 1
                    if len(summary["failures"]) < 5:
                        summary["failures"].append(f"{phase.name}[{i}]: {err}")
                checked.append((dt, out, err))
            per_phase[phase.name] = checked
            summary["digest_ops"][phase.name] = min(len(records), phase.digest_ops)
            summary["checks"] += [
                {"name": n, "ok": bool(ok), "detail": d} for n, ok, d in phase.run_checks(checked)
            ]
    summary["digest"] = digest.hexdigest()
    return per_phase, summary


def trace_overhead(per_phase: dict, reference: dict) -> dict:
    """Traced against untraced op time, over the ops both runs did."""
    ref = json.loads((bootstrap.ROOT / reference["run_dir"] / "durations.json").read_text())
    traced_s = untraced_s = 0.0
    for name, recs in per_phase.items():
        k = min(len(recs), len(ref[name]))
        traced_s += sum(dt for dt, _o, _e in recs[:k])
        untraced_s += sum(ref[name][:k])
    return {"run_dir": reference["run_dir"], "traced_s": traced_s, "untraced_s": untraced_s,
            "overhead_frac": traced_s / untraced_s - 1.0}


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.require_source()
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    reference = untraced_reference(args) if args.trace else None
    setup_samples = [] if args.trace else probe_setup()
    setup_s, cfg = bootstrap.timed_setup()
    setup_samples.append(setup_s)
    import numpy  # loaded by set-up; imported here only for its version

    phases = workloads.phases(args.workload, args.seed, run_dir, cfg)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    runs = []
    try:
        for phase in phases:
            op_base = sum(len(records) for _p, records in runs)
            runs.append((phase, drive(phase, args.seconds * phase.share, tracer, op_base)))
    finally:
        if tracer is not None:
            tracer.uninstall()

    per_phase, summary = check_runs(runs, run_dir)
    main_phase = phases[0]
    durations = [dt for dt, _o, _e in per_phase[main_phase.name]]
    busy = sum(durations)
    delivered = sum(1 for _dt, out, err in per_phase[main_phase.name]
                    if err is None and main_phase.delivered(out))
    tail_p, tail_s = tail(durations)
    failed_frac = summary["failed"] / summary["attempted"]
    e2e = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (main_phase.peak_rss_mb or rss_high_water_mb(), "MB"),
        "ok_frac": (1.0 - failed_frac, "ratio"),
        "ops_per_s": (len(durations) / busy, "1/s"),
    }
    latency = {"op_p50_s": statistics.median(durations), "op_tail_s": tail_s}
    op_seconds = {name: sum(dt for dt, _o, _e in recs) for name, recs in per_phase.items()}
    overall = {**{k: v for k, (v, _u) in e2e.items()}, **latency,
               "accepted_per_s": delivered / busy}
    named = {alias: overall[generic] for generic, alias in main_phase.ALIASES.items()}
    if "bar" in per_phase:
        named["bar_shots_per_s"] = len(per_phase["bar"]) / op_seconds["bar"]
    named["failed_frac"] = failed_frac
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "commit": git_commit(), "run_dir": str(run_dir.relative_to(bootstrap.ROOT)),
        "ops": {name: len(recs) for name, recs in per_phase.items()},
        "op_seconds": op_seconds,
        "latency_s": {**latency, "tail_percentile": tail_p, "samples": len(durations)},
        "setup_samples_s": setup_samples,
        "named_metrics": named,
        **summary,
    }
    (run_dir / "durations.json").write_text(json.dumps(
        {name: [dt for dt, _o, _e in recs] for name, recs in per_phase.items()}))

    if tracer is not None:
        metrics = tracer.metrics(len(durations))
        metrics.update(workloads.Shots.mc_metrics(per_phase.get("shots", [])))
        context["trace_reference"] = trace_overhead(per_phase, reference)
        metrics["trace.overhead_frac"] = (context["trace_reference"]["overhead_frac"], "ratio")
        tracer.write_spans(run_dir / "spans.tsv.gz")
    else:
        metrics = e2e

    result = {
        "correct": all(check["ok"] for check in summary["checks"]),
        "attempted": summary["attempted"], "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "context.json").write_text(json.dumps(context, indent=2, sort_keys=True) + "\n")
    (run_dir / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
