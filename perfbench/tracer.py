"""Span tracer that times igamotor's public functions from outside the package.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each function
named in ``LAYERS`` by a timing wrapper wherever a caller looks the name up:
every ``igamotor`` module global bound to the original function (so
``igamotor.optim.check_mesh_validity`` and ``igamotor.geometry.
check_mesh_validity`` are both wrapped), or the class attribute for methods.
``Tracer.uninstall`` restores the originals.

While a unit of work (one set-up or one operation) is traced, every wrapped
call records a span ``(name, start, end, parent, unit)``.  Spans stay in
memory and are written by ``write``.  Self time is a span's duration minus
the durations of its direct children; the harness's own root span per unit
(``bench.setup``/``bench.op``) holds the time spent outside wrapped functions.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

# (module, function or Class.method) of every traced layer boundary
LAYERS = (
    ("geometry", "check_mesh_validity"),
    ("geometry", "build_demo_machine"),
    ("geometry", "build_dof_map"),
    ("splines", "insert_knots"),
    ("assembly", "build_patch_tables"),
    ("assembly", "assemble_stiffness"),
    ("assembly", "assemble_coupling"),
    ("assembly", "assemble_vector_metric"),
    ("assembly", "assemble_rhs"),
    ("linalg", "factorize"),
    ("linalg", "complex_lu_solve"),
    ("coupling", "precompute_side"),
    ("coupling", "solve_interface"),
    ("coupling", "rotation_sweep"),
    ("coupling", "reconstruct_state"),
    ("fourier", "attach_spectrum"),
    ("adjoint", "solve_adjoints"),
    ("adjoint", "assemble_shape_gradient"),
    ("adjoint", "thd_sample_sensitivities"),
    ("design", "DesignSpace.displace"),
    ("optim", "MachineSolver.evaluate"),
    ("optim", "line_search"),
    ("optim", "descent_field"),
)
NAMES = tuple("%s.%s" % layer for layer in LAYERS)
# called once per rotor angle (or per sweep): also report inclusive us/call
PER_CALL = ("linalg.complex_lu_solve", "coupling.solve_interface",
            "coupling.rotation_sweep", "coupling.reconstruct_state")
LINE_SEARCH = ("optim.line_search.trials", "optim.line_search.mesh_rejects",
               "optim.line_search.accept_ratio")
SUMMARY = ("op.s_p50", "op.s_p90", "op.traced_s_p50", "op.harness.s",
           "trace.overhead_frac", "trace.covered_frac",
           "setup.s_p50", "setup.init_s", "setup.evaluate_s", "setup.harness.s")
PHASES = ("setup", "op")
HARNESS = {"setup": ("bench.setup", "bench.solver_init"), "op": ("bench.op",)}


def layer_metrics() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in NAMES:
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
        if name in PER_CALL:
            units[name + ".us_per_call"] = "us"
    units.update({LINE_SEARCH[0]: "count", LINE_SEARCH[1]: "count",
                  LINE_SEARCH[2]: "1"})
    for name in NAMES:
        units["setup.%s.calls" % name] = "count"
        units["setup.%s.s" % name] = "s"
    for name in SUMMARY:
        units[name] = "1" if name.startswith("trace.") else "s"
    return units


def _modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "igamotor" or key.startswith("igamotor."))]


class Tracer:
    """Spans and counts of one benchmark run (one instance per run)."""

    def __init__(self):
        self.enabled = False
        self.spans = []            # [name, start, end, parent index, unit index]
        self.units = []            # phase of each traced unit
        self._stack = []           # open span indices
        self._open = {}            # name -> number of open spans
        self.counts = {"trials": 0, "mesh_rejects": 0, "accepted": 0}
        self._restore = []

    # -- wrapping ---------------------------------------------------------
    def install(self):
        import igamotor  # noqa: F401  (loads every submodule)

        for module, attr in LAYERS:
            name = "%s.%s" % (module, attr)
            mod = sys.modules["igamotor." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m in _modules():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def _wrap(self, name, fn):
        hook = {"geometry.check_mesh_validity": self._count_trial,
                "optim.line_search": self._count_accept}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if hook is not None:
                hook(result)
            return result
        return wrapper

    def _count_trial(self, result):
        if self._open.get("optim.line_search"):
            self.counts["trials"] += 1
            if not result[0]:
                self.counts["mesh_rejects"] += 1

    def _count_accept(self, result):
        if result is not None:
            self.counts["accepted"] += 1

    # -- spans ------------------------------------------------------------
    def _begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, len(self.units) - 1])
        self._stack.append(idx)
        self._open[name] = self._open.get(name, 0) + 1
        return idx

    def _end(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    @contextmanager
    def unit(self, phase: str, traced: bool):
        """One set-up or operation; traced units get a harness root span."""
        if not traced:
            yield
            return
        self.units.append(phase)
        self.enabled = True
        idx = self._begin(HARNESS[phase][0])
        try:
            yield
        finally:
            self._end(idx)
            self.enabled = False

    @contextmanager
    def span(self, name: str):
        """Harness span inside a traced unit (no-op otherwise)."""
        if not self.enabled:
            yield
            return
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    # -- aggregation ------------------------------------------------------
    def aggregate(self):
        """Per phase: {name: [calls, self s, inclusive s]} summed over units,
        and the number of traced units."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = {phase: {} for phase in PHASES}
        n_units = {phase: 0 for phase in PHASES}
        for phase in self.units:
            n_units[phase] += 1
        for i, (name, t0, t1, _, unit) in enumerate(self.spans):
            row = totals[self.units[unit]].setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (t1 - t0) - child[i]
            row[2] += t1 - t0
        return totals, n_units

    def layer_values(self, setup_times, op_times) -> dict:
        """Per-layer metric values, per traced unit, from the spans.

        setup_times/op_times: lists of (seconds, traced) for every unit run.
        """
        totals, n_units = self.aggregate()
        out = {}
        for phase, prefix in (("op", ""), ("setup", "setup.")):
            n = max(n_units[phase], 1)
            rows = totals[phase]
            for name in NAMES:
                calls, self_s, incl_s = rows.get(name, (0, 0.0, 0.0))
                out[prefix + name + ".calls"] = calls / n
                out[prefix + name + ".s"] = self_s / n
                if phase == "op" and name in PER_CALL:
                    out[name + ".us_per_call"] = 1e6 * incl_s / calls if calls else 0.0
            harness = sum(rows.get(h, (0, 0.0, 0.0))[1] for h in HARNESS[phase])
            out[phase + ".harness.s"] = harness / n
        n_ops = max(n_units["op"], 1)
        trials = self.counts["trials"]
        out[LINE_SEARCH[0]] = trials / n_ops
        out[LINE_SEARCH[1]] = self.counts["mesh_rejects"] / n_ops
        out[LINE_SEARCH[2]] = self.counts["accepted"] / trials if trials else 0.0

        plain = [t for t, traced in op_times if not traced]
        traced = [t for t, traced in op_times if traced]
        out["op.s_p50"] = statistics.median(plain)
        out["op.s_p90"] = _quantile(plain, 0.9)
        out["op.traced_s_p50"] = statistics.median(traced)
        out["trace.overhead_frac"] = out["op.traced_s_p50"] / out["op.s_p50"] - 1.0
        root = totals["op"].get("bench.op", (0, 0.0, 0.0))[2]
        out["trace.covered_frac"] = 1.0 - out["op.harness.s"] * n_ops / root if root else 0.0
        out["setup.s_p50"] = statistics.median(t for t, tr in setup_times if not tr)
        n_setup = max(n_units["setup"], 1)
        out["setup.init_s"] = totals["setup"].get("bench.solver_init", (0, 0, 0.0))[2] / n_setup
        out["setup.evaluate_s"] = totals["setup"].get(
            "optim.MachineSolver.evaluate", (0, 0, 0.0))[2] / n_setup
        return out

    def write(self, path, header: dict):
        """Header line, then one JSON array per span:
        [index, name, start_ns, end_ns, parent, unit, phase]."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, t0, t1, parent, unit) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round((t0 - origin) * 1e9),
                                     round((t1 - origin) * 1e9), parent, unit,
                                     self.units[unit]]) + "\n")


def _quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
