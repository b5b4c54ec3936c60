"""The benchmark's tracer and gated workloads run against the package's API."""

import importlib
import importlib.util
import json
from pathlib import Path

from teleportsim import photonics, protocol

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable():
    tracer = _perfbench_module("tracer")
    missing = [
        f"{mod}.{name}"
        for mod, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"teleportsim.{mod}"), name, None))
    ]
    assert missing == []
    traced = {f"{mod}.{name}" for mod, names in tracer.TRACED.items() for name in names}
    assert set(tracer.CACHED) <= traced


def _one_op(phase):
    """Op 0 of a phase through its own prepare, run, check and result."""
    job = phase.prepare(0)
    out = phase.run(job)
    phase.check(0, job, out)
    return out, json.loads(json.dumps(phase.result(0, job, out), sort_keys=True))


def test_link_sweep_design_runs():
    workloads = _perfbench_module("workloads")
    phase = workloads.LinkDesigns(101, protocol.make_config("conditional"))
    _out, record = _one_op(phase)
    assert set(record["rows"]) == set(photonics.BUDGET_SOURCES)


def test_analytic_sweep_point0_runs(tmp_path):
    workloads = _perfbench_module("workloads")
    phase = workloads.AnalyticPoints(101, tmp_path)
    out, record = _one_op(phase)
    assert record["rc"] == 0 and record["files"]
    checks = phase.run_checks([(0.0, out, None)])
    assert checks and all(ok for _name, ok, _detail in checks), checks
