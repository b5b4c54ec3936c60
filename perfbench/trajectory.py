"""Summarize the runs left under ``.perfbench/`` into one trajectory point.

Run from the checkout root after a set of benchmark runs::

    python3 perfbench/trajectory.py > perfbench/trajectory/<commit>.json

Per workload it gives, for every end-to-end metric (untraced runs), the
median and quartiles over the runs with their seeds; the same for the
workload's own figures from the run context (``named``: op latency, BAR
readout rate ...); and for every per-layer metric (traced runs) the median.
The run context (core count, versions, commit, BLAS setting) of the first
run is kept alongside.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import bootstrap


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def main() -> int:
    runs = defaultdict(lambda: {0: [], 1: []})
    for result_path in sorted((bootstrap.ROOT / ".perfbench").glob("*/result.json")):
        context = json.loads((result_path.parent / "context.json").read_text())
        result = json.loads(result_path.read_text())
        runs[context["workload"]][context["trace"]].append((context, result))
    if not runs:
        print("error: no runs under .perfbench/", file=sys.stderr)
        return 2
    out = {}
    for workload, by_trace in sorted(runs.items()):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = by_trace[trace]
            if not done:
                continue
            values = defaultdict(list)
            named = defaultdict(list)
            for context, result in done:
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
                for name, value in context["named_metrics"].items():
                    named[name].append(value)
                for name in ("op_p50_s", "op_tail_s"):
                    named[name].append(context["latency_s"][name])
            entry[key] = {name: summarize(v) for name, v in sorted(values.items())}
            if trace == 0:
                entry["named"] = {name: summarize(v) for name, v in sorted(named.items())}
            entry[f"{key}_seeds"] = sorted(c["seed"] for c, _r in done)
            entry[f"{key}_all_correct"] = all(r["correct"] and r["failed"] == 0 for _c, r in done)
        first = (by_trace[0] or by_trace[1])[0][0]
        entry["context"] = {k: first[k] for k in ("nproc", "python", "numpy", "blas_threads",
                                                  "commit", "seconds")}
        out[workload] = entry
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
