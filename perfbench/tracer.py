"""Spans around the public functions of every wavedecay module, installed
from outside the package.

The tracer finds its targets by introspection, so it follows the code as
it is refactored: every public function of a layer module and every public
method of a public class defined there gets a span.  A function imported
into another module (``from .resolvent import free_green_matrix``) is
rebound in every namespace that holds the same object, and so are the
scipy kernels named in ``FOREIGN``, which are attributed to the layer that
owns the concept.  Spans stay in memory; ``summary`` turns them into the
per-layer metrics when the run ends.

A name that the metrics below refer to but the package no longer defines
reports zero; ``missing_targets`` lists such names for the smoke tests.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "wavedecay"
LAYERS = ("radialop", "specfun", "profiles", "freekernel", "resolvent",
          "propagator", "funcalc", "norms", "fitting", "estimates", "cache",
          "cli")

# scipy kernels as bound inside the package -> layer that owns the concept
FOREIGN = {"lu_factor": "resolvent", "lu_solve": "resolvent",
           "eigh_tridiagonal": "radialop"}

# inclusive span time of each public estimate group and of report emission
ESTIMATE_CHECKS = ("check_kernel_bounds", "check_prop21", "check_thm31",
                   "check_smoothing", "check_thm34",
                   "check_weighted_time_integral",
                   "mollified_multiplier_suite", "check_thm41",
                   "assemble_thm11", "emit_reports")

# metric -> (statistic, span name); "count" is the number of spans,
# "total" their summed inclusive time in seconds
SPAN_METRICS = {
    **{f"estimates.{c}_s": ("total", f"estimates.{c}")
       for c in ESTIMATE_CHECKS},
    "resolvent.lu_factors": ("count", "resolvent.lu_factor"),
    "resolvent.lu_factor_s": ("total", "resolvent.lu_factor"),
    "resolvent.lu_solves": ("count", "resolvent.lu_solve"),
    "resolvent.lu_solve_s": ("total", "resolvent.lu_solve"),
    "resolvent.green_matrices": ("count", "resolvent.free_green_matrix"),
    "resolvent.green_s": ("total", "resolvent.free_green_matrix"),
    "resolvent.jump_vectors": ("count",
                               "resolvent.resolvent_difference_vector"),
    "funcalc.hs_multiplier_s": ("total", "funcalc.hs_multiplier"),
    "propagator.duhamel_split_s": ("total", "propagator.duhamel_split"),
    "propagator.wave_via_resolvent_s": ("total",
                                        "propagator.wave_via_resolvent"),
    "propagator.time_domain_evolve_s": ("total",
                                        "propagator.time_domain_evolve"),
    "radialop.eigensolves": ("count", "radialop.eigh_tridiagonal"),
    "radialop.eigensolve_s": ("total", "radialop.eigh_tridiagonal"),
    "radialop.eigensystem_calls": ("count",
                                   "radialop.DiscreteOperator.eigensystem"),
    "fitting.fits": ("count", "fitting.fit_power_law"),
}

# metric -> (span name, ancestor span name): spans of the first kind that
# run inside a span of the second kind
NESTED_METRICS = {
    "propagator.leapfrog_applies": ("radialop.DiscreteOperator.apply",
                                    "propagator.time_domain_evolve"),
}
CACHE_SPAN = "cache.EigenCache.eigensystem"
EIGENSOLVE_SPAN = "radialop.eigh_tridiagonal"

# counters read off call arguments, keyed by the span that carries them
COUNTER_METRICS = ("resolvent.lu_flops_computed", "funcalc.quadrature_nodes",
                   "norms.power_iterations", "norms.power_unconverged",
                   "freekernel.kernel_evals")


def _lu_flops(a):
    """Real flops of an LU of the square matrix a (complex counts 4x)."""
    n = a.shape[0]
    return (8.0 if np.iscomplexobj(a) else 2.0) * n ** 3 / 3.0


def _solve_flops(lu_and_piv, b):
    lu = lu_and_piv[0]
    n = lu.shape[0]
    k = b.shape[1] if np.ndim(b) == 2 else 1
    cplx = np.iscomplexobj(lu) or np.iscomplexobj(b)
    return (8.0 if cplx else 2.0) * n * n * k


def _hook_lu_factor(tracer, bound):
    tracer.counters["resolvent.lu_flops_computed"] += _lu_flops(
        np.asarray(bound.arguments["a"]))


def _hook_lu_solve(tracer, bound):
    tracer.counters["resolvent.lu_flops_computed"] += _solve_flops(
        bound.arguments["lu_and_piv"], np.asarray(bound.arguments["b"]))


def _hook_dbar(tracer, bound):
    tracer.counters["funcalc.quadrature_nodes"] += np.size(
        bound.arguments["z"])


def _kernel_evals(param):
    def hook(tracer, bound):
        value = bound.arguments[param] if param else 1
        tracer.counters["freekernel.kernel_evals"] += np.size(value)
    return hook


def _hook_power(tracer, bound):
    """Count matvecs of the power iteration; an iteration that used all
    max_iter steps did not converge."""
    matvec = bound.arguments["matvec"]
    state = {"calls": 0}

    def counted(v):
        state["calls"] += 1
        return matvec(v)

    bound.arguments["matvec"] = counted

    def after():
        tracer.counters["norms.power_iterations"] += state["calls"]
        if state["calls"] >= bound.arguments["max_iter"]:
            tracer.counters["norms.power_unconverged"] += 1
    return after


HOOKS = {
    "resolvent.lu_factor": _hook_lu_factor,
    "resolvent.lu_solve": _hook_lu_solve,
    "funcalc.AlmostAnalytic.dbar": _hook_dbar,
    "freekernel.eval_Kh": _kernel_evals(None),
    "freekernel.eval_Kh_pm": _kernel_evals(None),
    "freekernel.eval_Kh_batch": _kernel_evals("t_array"),
    "freekernel.eval_Kh_sigma_batch": _kernel_evals("sigma_array"),
    "norms.operator_two_norm": _hook_power,
}


def per_layer_names():
    """Every per-layer metric name, in report order."""
    names = [f"{layer}.{stat}" for layer in LAYERS
             for stat in ("calls", "self_s")]
    names += list(SPAN_METRICS) + list(NESTED_METRICS)
    names += ["cache.hits", "cache.misses"] + list(COUNTER_METRICS)
    names += ["trace.spans", "trace.overhead_s"]
    return names


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    return "flop" if metric.endswith("_flops_computed") else "count"


class Tracer:
    """Records one span per call of every installed function."""

    def __init__(self):
        self.names = []          # span name per name id
        self.layers = []         # layer per name id
        self.spans = []          # (name id, parent span index, t0, t1)
        self.counters = defaultdict(float)
        self._stack = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrappers = {}            # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}",
                                                   layer)
                elif (inspect.isclass(obj)
                      and obj.__module__ == mod.__name__):
                    self._wrap_methods(obj, f"{layer}.{name}", layer)
        for name, layer in FOREIGN.items():
            for mod in modules.values():
                obj = getattr(mod, name, None)
                if (callable(obj) and id(obj) not in wrappers
                        and not obj.__module__.startswith(PACKAGE)):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}",
                                                   layer)
        # rebind every alias, including `from .x import y` copies
        for mod in [m for k, m in sys.modules.items()
                    if k == PACKAGE or k.startswith(PACKAGE + ".")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not name.startswith("__"):
                    setattr(mod, name, wrappers[id(obj)])
        return self

    def _wrap_methods(self, cls, prefix, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, f"{prefix}.{name}",
                                              layer))
            elif isinstance(attr, (classmethod, staticmethod)):
                wrapped = self._wrap(attr.__func__, f"{prefix}.{name}", layer)
                setattr(cls, name, type(attr)(wrapped))

    def _wrap(self, fn, name, layer):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = None
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after = hook(self, bound)
                args, kwargs = bound.args, bound.kwargs
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1)
                if after is not None:
                    after()

        return traced

    def missing_targets(self):
        """Span names the metrics refer to that were not installed."""
        wanted = {span for _, span in SPAN_METRICS.values()}
        wanted |= {n for pair in NESTED_METRICS.values() for n in pair}
        wanted |= {CACHE_SPAN, EIGENSOLVE_SPAN} | set(HOOKS)
        return sorted(wanted - set(self.names))

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per-name tallies and the per-layer metrics (overhead excluded)."""
        spans = self.spans
        child = defaultdict(float)      # span index -> time of its children
        for _, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, self
        for idx, (nid, _, t0, t1) in enumerate(spans):
            row = by_name[self.names[nid]]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[idx]

        layer_of = dict(zip(self.names, self.layers))
        metrics = dict.fromkeys(per_layer_names(), 0.0)
        for name, (calls, _, self_s) in by_name.items():
            metrics[f"{layer_of[name]}.calls"] += calls
            metrics[f"{layer_of[name]}.self_s"] += self_s
        for metric, (stat, span) in SPAN_METRICS.items():
            calls, total, _ = by_name.get(span, (0, 0.0, 0.0))
            metrics[metric] = float(calls if stat == "count" else total)

        def inside(span, ancestor):
            """Nearest enclosing `ancestor` span of each `span` span."""
            return [self._ancestor(i, ancestor)
                    for i, s in enumerate(spans) if self.names[s[0]] == span]

        for metric, (span, ancestor) in NESTED_METRICS.items():
            metrics[metric] = float(sum(a >= 0
                                        for a in inside(span, ancestor)))
        # a cache lookup misses when it had to run an eigensolve
        missed = set(inside(EIGENSOLVE_SPAN, CACHE_SPAN)) - {-1}
        metrics["cache.misses"] = float(len(missed))
        metrics["cache.hits"] = float(by_name.get(CACHE_SPAN, [0])[0]
                                      - len(missed))
        for name in COUNTER_METRICS:
            metrics[name] = float(self.counters.get(name, 0.0))
        metrics["trace.spans"] = float(len(spans))
        table = {name: {"calls": c, "total_s": t, "self_s": s}
                 for name, (c, t, s) in sorted(by_name.items())}
        return metrics, table

    def _ancestor(self, idx, name):
        """Index of the nearest enclosing span called name, or -1."""
        parent = self.spans[idx][1]
        while parent >= 0:
            nid, parent_of_parent = self.spans[parent][:2]
            if self.names[nid] == name:
                return parent
            parent = parent_of_parent
        return -1
