"""Spans around the public functions of every simulator layer.

The tracer wraps each listed function in every ``teleportsim`` module that
binds it, not only where it is defined: ``protocol`` binds the ``hilbert``,
``photonics.build_heralded`` and ``spin_noise`` names through
``from ... import``, and ``spin_noise`` binds ``hilbert.pauli_channel``, so
calls through those names would otherwise escape.  Call-time imports such as
``from .spin_noise import prepare_input_state`` read the module attribute and
see the wrapper too.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory (flat arrays) and are written out by :meth:`Tracer.write_spans`
when the run ends.  Self time is a span's duration minus the time covered by
its child spans, accumulated as spans close.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

#: module -> public functions wrapped, in the order metrics are printed.
TRACED = {
    "hilbert": (
        "apply_operator", "apply_channel", "apply_unitary", "partial_trace",
        "tensor", "fidelity", "pauli_channel",
    ),
    "emitter": ("solve_emission", "calibrate_pulse", "window_probabilities"),
    "params": ("build_link",),
    "photonics": (
        "build_heralded", "interfere_and_herald", "branch_emission",
        "calibrate_eta_zpl", "single_error_budget",
    ),
    "spin_noise": (
        "decoupling_channel", "depolarizing", "dephasing_from_factor",
        "prepare_input_state", "bar_readout",
    ),
    "protocol": (
        "make_config", "run_teleportation_analytic", "run_teleportation_shot",
        "generate_link",
    ),
    "harness": ("run_scenario", "teleport_budget_table", "rate_model_for", "shot_rng"),
    "cli": ("main",),
}

#: Memoizing entry points: a call with no traced child returned a cached value.
CACHED = ("photonics.build_heralded", "params.build_link")


class Tracer:
    """Wraps the traced functions; holds their spans, counts and self times."""

    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.leaf_calls = [0] * n  # calls that made no traced call
        self.op = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds, child count]
        self._patched: list[tuple] = []

    def install(self) -> None:
        """Rebind every traced function in every loaded teleportsim module."""
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("teleportsim")]
        for idx, name in enumerate(self.names):
            mod_name, func_name = name.split(".")
            original = getattr(sys.modules[f"teleportsim.{mod_name}"], func_name)
            wrapper = self._wrap(idx, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, idx: int, fn):
        stack = self._stack
        calls, self_s, leaf = self.calls, self.self_s, self.leaf_calls
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            span = len(s_name)
            s_name.append(idx)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(tracer.op)
            s_end.append(0.0)
            frame = [span, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                s_end[span] = t1
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if frame[2] == 0:
                    leaf[idx] += 1
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += 1

        traced.__wrapped__ = fn
        return traced

    def child_calls(self, parent: str, child: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        p, c = self.names.index(parent), self.names.index(child)
        names, parents = self.span_name, self.span_parent
        return sum(
            1 for i, n in enumerate(names) if n == c and parents[i] >= 0 and names[parents[i]] == p
        )

    def metrics(self, ops: int) -> dict:
        """Per-function and per-layer counts and self times, plus cache ratios."""
        out = {}
        layer_s: dict[str, float] = {m: 0.0 for m in TRACED}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_s"] = (self.self_s[idx], "s")
            layer_s[name.split(".")[0]] += self.self_s[idx]
        for layer, secs in layer_s.items():
            out[f"{layer}.self_s"] = (secs, "s")
        for name in CACHED:
            idx = self.names.index(name)
            n = self.calls[idx]
            out[f"{name}.hit_ratio"] = (self.leaf_calls[idx] / n if n else 0.0, "ratio")
        cal = self.calls[self.names.index("emitter.calibrate_pulse")]
        solves = self.child_calls("emitter.calibrate_pulse", "emitter.solve_emission")
        out["emitter.solve_emission.per_calibration"] = (solves / cal if cal else 0.0, "count")
        dc = self.calls[self.names.index("spin_noise.decoupling_channel")]
        out["spin_noise.decoupling_channel.per_point"] = (dc / ops if ops else 0.0, "count")
        return out

    def write_spans(self, path) -> None:
        """Gzipped TSV, one span per line: name, start, end, parent span, op id."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
