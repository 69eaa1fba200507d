"""Spans around the calls into gkpstab's public functions, recorded from the
benchmark's side by wrapping module attributes and class methods.

A span is [name, start, end, parent index]. Spans stay in a list until the
run ends. Self time is a span's duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); a dotted attribute is a class method.
TRACED = (
    ("fock", "matrix_exponential", "fock.matrix_exponential"),
    ("hermite", "hermite_functions", "hermite.hermite_functions"),
    ("codes", "build_dissipators", "codes.build_dissipators"),
    ("codes", "build_codewords", "codes.build_codewords"),
    ("codes", "build_lyapunov", "codes.build_lyapunov"),
    ("codes", "build_code", "codes.build_code"),
    ("lindblad", "stabilizer_model", "lindblad.stabilizer_model"),
    ("etd", "SplitPropagator.__init__", "etd.init"),
    ("etd", "SplitPropagator.apply_jump", "etd.apply_jump"),
    ("etd", "SplitPropagator.step", "etd.step"),
    ("etd", "SplitPropagator.run", "etd.run"),
    ("etd", "SplitPropagator.run_to_stationary", "etd.run_to_stationary"),
    ("ode", "integrate", "ode.integrate"),
    ("lindblad", "lindblad_rhs", "lindblad.lindblad_rhs"),
    ("lindblad", "evolve", "lindblad.evolve"),
    ("lindblad", "logical_operators", "lindblad.logical_operators"),
    ("analysis", "lyapunov_decay_experiment", "analysis.experiment"),
    ("analysis", "error_rate_experiment", "analysis.experiment"),
    ("cli", "main", "cli.main"),
    ("io", "write_envelope", "io.write_envelope"),
)


def rebind(package, original, replacement):
    """Point every name in the package's modules that is `original` at
    `replacement` (functions imported with `from x import y` live in several
    namespaces). Returns the undo list."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(args, kwargs, result) adds counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counts taken from what the program returns ------------------------

    def _after_run(self, args, kwargs, result):
        stats = result[1]
        self.counts["etd.steps_accepted"] += stats.get("n_accept", 0)
        self.counts["etd.steps_rejected"] += stats.get("n_reject", 0)
        self.counts["etd.trace_defect_max"] = max(self.counts["etd.trace_defect_max"],
                                                 stats.get("trace_defect", 0.0))

    def _after_stationary(self, args, kwargs, result):
        self.counts["etd.stationary_steps"] += result[3]

    def _after_jump(self, args, kwargs, result):
        prop = args[0]
        self.counts["etd.jump_gflop"] += len(prop.kraus) * 2 * 8.0 * prop.dim ** 3 / 1e9

    def _after_integrate(self, args, kwargs, result):
        self.counts["ode.steps_accepted"] += result.get("n_accept", 0)
        self.counts["ode.steps_rejected"] += result.get("n_reject", 0)

    def _after_logicals(self, args, kwargs, result):
        self.counts["lindblad.logical_residual"] = max(
            self.counts["lindblad.logical_residual"], result.convergence_residual)

    def _after_envelope(self, args, kwargs, result):
        self.counts["io.bytes_written"] += os.path.getsize(args[0])

    def install(self, gkpstab):
        """Wrap every TRACED function of the imported package; returns undo."""
        after = {
            "etd.run": self._after_run,
            "etd.run_to_stationary": self._after_stationary,
            "etd.apply_jump": self._after_jump,
            "ode.integrate": self._after_integrate,
            "lindblad.logical_operators": self._after_logicals,
            "io.write_envelope": self._after_envelope,
        }
        undo = []
        for mod_name, attr, span in TRACED:
            mod = getattr(gkpstab, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                fn = self.wrap(span, original, after.get(span))
                if span == "etd.run":
                    fn = self._wrap_callback(fn)
                setattr(cls, meth, fn)
                undo.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                fn = self.wrap(span, original, after.get(span))
                if span == "ode.integrate":
                    fn = self._wrap_callback(fn)
                undo += rebind(gkpstab.__name__, original, fn)
        return undo

    def _wrap_callback(self, fn):
        """Give evolve's record callback its own span, so its cost is
        charged to evolve and not to the integrator that calls it."""
        def call(*args, **kwargs):
            if kwargs.get("on_record") is not None:
                kwargs["on_record"] = self.wrap("lindblad.record_callback", kwargs["on_record"])
            return fn(*args, **kwargs)
        return call

    # -- summary ------------------------------------------------------------

    def summary(self):
        """Totals, self times and call counts per span name, plus counts."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, s in enumerate(self.spans):
            total[s[0]] += dur[i]
            own[s[0]] += dur[i] - child[i]
            calls[s[0]] += 1
        jumps_in_run = sum(1 for i, s in enumerate(self.spans)
                           if s[0] == "etd.apply_jump" and self._under(i, "etd.run"))
        return total, own, calls, jumps_in_run

    def _under(self, i, name):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


def span_cost_s(repeats=20000):
    """Cost of one span, timed on a wrapped no-op against the bare no-op."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        best.append(time.perf_counter() - t0)
    return max(best[1] - best[0], 0.0) / repeats
