"""Per-layer spans and counters for one traced crprime run, installed from outside.

`install()` wraps public functions and methods of the already imported
crprime modules in place, before the CLI entry point is called; no line of
crprime changes.  Every name that refers to a wrapped object is rebound, so
aliases (`__radd__ = __add__`) and names imported into other modules
(`from .structure import solve_structure`) go through the wrapper too.

A span records its calls, its inclusive wall time and its self time.  The
inclusive time is taken at the outermost call of a name only, so recursion
is not counted twice; the self time is the span minus the child spans
inside it.  State is kept per thread and summed by `snapshot()`, so the
threads of `crprime run all` lose no update and each thread has its own
span stack.  Layer spans use wall time: under `run all` they include the
time a thread waits for the interpreter lock, which the suite spans show
as `cli.gil_wait_s`.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute path) for every timed layer boundary.
LAYER_SPANS = (
    ("report.emit", "crprime.report", "reports_to_json"),
    ("report.emit", "crprime.report", "reports_to_text"),
    ("structure.solve", "crprime.structure", "solve_structure"),
    ("structure.conformal_change", "crprime.structure", "conformal_change"),
    ("structure.covariant_derivative", "crprime.structure", "covariant_derivative"),
    ("heisenberg.graded_conformal_check", "crprime.heisenberg", "graded_conformal_check"),
    ("forms.contract", "crprime.forms", "contract"),
    ("forms.exterior_d", "crprime.forms", "exterior_d"),
    ("series.mul", "crprime.series", "GradedSeries.__mul__"),
    ("series.invert", "crprime.series", "GradedSeries.invert"),
    ("series.exp", "crprime.series", "GradedSeries.exp"),
    ("poly.mul", "crprime.poly", "Poly.mul"),
    ("poly.divide_exact", "crprime.poly", "Poly.divide_exact"),
    ("expr.rat_add", "crprime.expr", "RatExpr.__add__"),
    ("expr.rat_mul", "crprime.expr", "RatExpr.__mul__"),
    ("expr.rat_diff", "crprime.expr", "RatExpr.diff"),
    ("expr.log_diff", "crprime.expr", "LogExpr.diff"),
    ("sphere.compile", "crprime.sphere", "compile_integrand"),
    ("sphere.integrate_chart", "crprime.sphere", "integrate_chart"),
    ("sphere.integrate_ball", "crprime.sphere", "integrate_ball"),
)

# Spans opened by wrappers that are not in LAYER_SPANS.
INNER_SPANS = ("sphere.integrand",)

# (counter name, module, attribute path): counted, not timed, since a
# timer around every scalar operation would cost more than the operation.
COUNTERS = (
    ("gauss.new", "crprime.gauss", "GaussRational.__init__"),
    ("gauss.add", "crprime.gauss", "GaussRational.__add__"),
    ("gauss.mul", "crprime.gauss", "GaussRational.__mul__"),
)

# Suite entry points as the CLI calls them; each is timed in wall and
# thread-CPU time, and the first call into any of them ends set-up.
SUITES = ("moser_suite", "heisenberg_suite", "conformal_battery",
          "graded_conformal_check", "sphere_suite")

# Counts that are sums over calls rather than numbers of calls.
EXTRA_COUNTS = ("poly.mul.pairs", "poly.mul.terms_out", "poly.divide_exact.hits",
                "sphere.integrand.nodes", "sphere.integrand.term_evals")


class _ThreadState:
    __slots__ = ("counts", "incl", "self_s", "cpu", "depth", "stack")

    def __init__(self):
        self.counts = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.cpu = defaultdict(float)
        self.depth = defaultdict(int)
        self.stack = []  # time covered by child spans, one entry per open span


class Tracer:
    """Spans and counters of one process; `snapshot()` sums the threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []
        self.setup_end = None  # time.monotonic() at the first suite call

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def mark_setup_end(self):
        if self.setup_end is None:
            self.setup_end = time.monotonic()

    def span(self, name, fn, after=None, cpu=False):
        """Wrap fn in a span; after(counts, args, result) adds work counts."""
        perf, thread_time = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            st = self.state()
            st.counts[name] += 1
            st.stack.append(0.0)
            st.depth[name] += 1
            c0 = thread_time() if cpu else 0.0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                if cpu:
                    st.cpu[name] += thread_time() - c0
                children = st.stack.pop()
                st.depth[name] -= 1
                if not st.depth[name]:
                    st.incl[name] += dt
                st.self_s[name] += dt - children
                if st.stack:
                    st.stack[-1] += dt
            if after is not None:
                result = after(st.counts, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        state = self.state

        def wrapper(*args, **kwargs):
            state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        """Summed counts and times: {"counts": {...}, "incl": ..., "self": ..., "cpu": ...}."""
        out = {"counts": defaultdict(int), "incl": defaultdict(float),
               "self": defaultdict(float), "cpu": defaultdict(float)}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, src in (("counts", st.counts), ("incl", st.incl),
                             ("self", st.self_s), ("cpu", st.cpu)):
                for name, v in src.items():
                    out[key][name] += v
        return {k: dict(v) for k, v in out.items()}


# -- work counts taken from arguments and results ---------------------------


def _poly_mul_after(counts, args, result):
    a, b = args[0], args[1]
    nb = len(b.terms) if hasattr(b, "terms") else 1
    counts["poly.mul.pairs"] += len(a.terms) * nb
    counts["poly.mul.terms_out"] += len(result.terms)
    return result


def _divide_after(counts, args, result):
    if result is not None:
        counts["poly.divide_exact.hits"] += 1
    return result


def _compile_after_factory(tracer):
    def after(counts, args, ci):
        e = ci.exact
        monomials = (len(e.na.terms) + len(e.nb.terms)
                     + sum(len(f.terms) for f in e.den))
        inner = tracer.span("sphere.integrand", ci.fn, after=_nodes_after(monomials))
        return dataclasses.replace(ci, fn=inner)
    return after


def _nodes_after(monomials):
    def after(counts, args, result):
        nodes = np.broadcast(*args[:3]).size
        counts["sphere.integrand.nodes"] += nodes
        counts["sphere.integrand.term_evals"] += nodes * monomials
        return result
    return after


# -- installation ------------------------------------------------------------


def _lookup(module, path):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _owners(module, path):
    """Namespaces that may hold the object: its class, or every crprime module."""
    if "." in path:
        return [_lookup(module, path.rsplit(".", 1)[0])]
    return [m for n, m in list(sys.modules.items())
            if n == "crprime" or n.startswith("crprime.")]


def _rebind(module, path, replacement_for):
    """Point every name bound to the object at `path` at replacement_for(object)."""
    original = _lookup(module, path)
    replacement = replacement_for(original)
    for owner in _owners(module, path):
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, replacement)


def install(cli) -> Tracer:
    """Wrap the layers and the CLI's suite entry points; cli is crprime.cli."""
    tracer = Tracer()
    after = {"poly.mul": _poly_mul_after, "poly.divide_exact": _divide_after,
             "sphere.compile": _compile_after_factory(tracer)}
    for name, module, path in COUNTERS:
        _rebind(module, path, lambda fn: tracer.counter(name, fn))
    for name, module, path in LAYER_SPANS:
        _rebind(module, path, lambda fn: tracer.span(name, fn, after=after.get(name)))
    install_suite_spans(cli, tracer, timed=True)
    return tracer


def install_suite_spans(cli, tracer, timed):
    """Wrap the suite entry points in the CLI's namespace only.

    The first call into any suite marks the end of set-up; with timed=True
    each suite is also a span with wall and thread-CPU time.
    """
    for suite in SUITES:
        fn = getattr(cli, suite)
        inner = tracer.span("cli.suite." + suite, fn, cpu=True) if timed else fn

        def entry(*args, _inner=inner, **kwargs):
            tracer.mark_setup_end()
            return _inner(*args, **kwargs)

        setattr(cli, suite, entry)
