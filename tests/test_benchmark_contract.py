"""The benchmark's tracer names only functions that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable():
    tracer = _tracer_module()
    missing = [
        f"{mod}.{name}"
        for mod, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"teleportsim.{mod}"), name, None))
    ]
    assert missing == []
    traced = {f"{mod}.{name}" for mod, names in tracer.TRACED.items() for name in names}
    assert set(tracer.CACHED) <= traced
