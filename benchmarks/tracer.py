"""Outside-in tracer: times qdof's layers by wrapping their public functions.

qdof modules bind each other's functions with ``from .x import f``, so a
function has a binding in its defining module, in every module that imported
it, in the package namespace, and sometimes as a default argument value
(``chsh(..., circuit=li_circuit)``).  `Tracer.install` replaces every one of
those bindings with the wrapper and `Tracer.uninstall` puts the originals
back; no file under ``src/`` changes.

A spanned function records one span per call: (op index, span id, parent span
id, name, start, end, self time), kept in memory and written out at the end.
Self time is the span's duration minus the intervals of its direct children,
including the time the tracer spent measuring a child's input, so a parent is
not charged for the instrumentation.  A counted function (``hardy.hardy_q``,
about 129k calls per ``qmax_solve``) only increments a counter.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function, kind): kind "span" times the call, "count" counts it.
TARGETS = (
    ("states", "to_density", "span"),
    ("states", "normalize", "span"),
    ("trace", "project_one_per_region", "span"),
    ("trace", "trace_region", "span"),
    ("trace", "trace_dof_indist", "span"),
    ("trace", "trace_dof_dist", "span"),
    ("trace", "to_qubit_array", "span"),
    ("circuits", "li_circuit", "span"),
    ("circuits", "swap_circuit", "span"),
    ("measurement", "coincidence_table", "span"),
    ("measurement", "chsh", "span"),
    ("measures", "concurrence", "span"),
    ("measures", "monogamy_report", "span"),
    ("measures", "case_state", "span"),
    ("fidelity", "singlet_fraction", "span"),
    ("fidelity", "average_teleport_fidelity", "span"),
    ("fidelity", "two_param_state", "span"),
    ("fidelity", "generalized_singlet_fraction", "span"),
    ("fidelity", "generalized_teleportation_fidelity", "span"),
    ("protocols", "signaling_mc", "span"),
    ("protocols", "qpq_sf", "span"),
    ("protocols", "swap_verify", "span"),
    ("hardy", "qmax_solve", "span"),
    ("hardy", "t_quantile", "span"),
    ("hardy", "noisy_sample", "span"),
    ("hardy", "hardy_q", "count"),
    ("cli", "main", "span"),
)

# Reductions whose input matrix is measured (non-zeros and basis size).
TRACE_CALLS = ("trace.project_one_per_region", "trace.trace_region",
               "trace.trace_dof_indist", "trace.trace_dof_dist")

# Functions whose calls each reduce n^2 DoF pairs of a layout with n DoFs.
PAIR_REDUCERS = ("fidelity.generalized_singlet_fraction",
                 "fidelity.generalized_teleportation_fidelity")


def _qdof_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "qdof" or name.startswith("qdof."))]


class Tracer:
    """Wraps the TARGETS in every qdof module; records spans and counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.nnz = []
        self.dims = []
        self.pairs = 0
        self.op = -1
        self._stack = []  # [span id, children time]
        self._patches = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn, kind):
        if kind == "count":
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        clock = time.perf_counter
        stack, spans = self._stack, self.spans
        measure_input = name in TRACE_CALLS
        counts_pairs = name in PAIR_REDUCERS

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            t_pre = clock()
            if measure_input:
                dm = args[0]
                self.nnz.append(int((dm.data != 0).sum()))
                self.dims.append(len(dm.basis))
            if counts_pairs:
                self.pairs += args[1].n ** 2
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[span_id] = (self.op, span_id, parent, name, t0, t1,
                                  t1 - t0 - frame[1])
                if stack:
                    stack[-1][1] += t1 - t_pre
        return spanned

    def install(self):
        replace = {}
        for mod, fname, kind in TARGETS:
            original = getattr(importlib.import_module(f"qdof.{mod}"), fname)
            replace[id(original)] = (original,
                                     self._wrap(f"{mod}.{fname}", original, kind))
        for m in _qdof_modules():
            for attr, value in list(vars(m).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((m, attr, value))
                    setattr(m, attr, hit[1])
                if callable(value) and getattr(value, "__defaults__", None):
                    defaults = value.__defaults__
                    new = tuple(replace[id(d)][1]
                                if id(d) in replace and replace[id(d)][0] is d
                                else d for d in defaults)
                    if new != defaults:
                        self._patches.append((value, "__defaults__", defaults))
                        value.__defaults__ = new
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        keys = ("op", "id", "parent", "name", "start", "end", "self")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, op_sizes, op_scale):
        """Per-layer metrics per op; `op_sizes[i]` is op i's DoF count or None.

        ``<name>.calls`` and ``<name>.self_ms`` are per op over all ops;
        ``<name>.self_ms.n<k>`` is per op over the ops with k DoFs.  Self
        times of op i are multiplied by `op_scale[i]`, its machine-drift
        correction.
        """
        ops = len(op_sizes)
        per_n = defaultdict(int)
        for n in op_sizes:
            per_n[n] += 1
        calls = defaultdict(int, self.counts)
        self_s = defaultdict(float)
        self_s_n = defaultdict(float)
        for op, _sid, _parent, name, _t0, _t1, own in self.spans:
            calls[name] += 1
            self_s[name] += own * op_scale[op]
            self_s_n[name, op_sizes[op]] += own * op_scale[op]
        out = {}
        for mod, fname, _kind in TARGETS:
            name = f"{mod}.{fname}"
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / ops
            for n in (1, 2, 3):
                out[f"{name}.self_ms.n{n}"] = (
                    1e3 * self_s_n[name, n] / per_n[n] if per_n[n] else 0.0)
        traces = calls["trace.trace_dof_dist"] + calls["trace.trace_dof_indist"]
        out["trace.nnz_in"] = sum(self.nnz) / len(self.nnz) if self.nnz else 0.0
        out["trace.dim_in"] = (sum(self.dims) / len(self.dims)
                               if self.dims else 0.0)
        out["fidelity.traces_per_pair"] = (traces / self.pairs
                                           if self.pairs else 0.0)
        return out
