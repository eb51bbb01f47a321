"""Per-layer spans for a traced run, recorded from outside the package.

`Tracer.install` replaces each listed public function, on every cvcsp module
that holds a reference to it, with a wrapper that records a span (name,
start, end, parent) plus counts read from the call's arguments and result.
Calls made inside the package look functions up through their module
globals, so the spans follow the program's real call path.  A listed
function that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time

# metric -> unit, better; the order here is the order of the report
METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.load_s": ("s", "lower"),
    "cli.cache_hits": ("count", "higher"),
    "cli.cache_misses": ("count", "lower"),
    "express.pool_s": ("s", "lower"),
    "express.views": ("count", "lower"),
    "express.pool_calls": ("count", "lower"),
    "pairgraph.builds": ("count", "lower"),
    "pairgraph.detect_s": ("s", "lower"),
    "pairgraph.edges_detected": ("count", "lower"),
    "pairgraph.close_s": ("s", "lower"),
    "pairgraph.edges_closed": ("count", "lower"),
    "pairgraph.witness_s": ("s", "lower"),
    "dichotomy.classify_s": ("s", "lower"),
    "dichotomy.search_s": ("s", "lower"),
    "dichotomy.candidates": ("count", "lower"),
    "dichotomy.components": ("count", "lower"),
    "dichotomy.budget_errors": ("count", "lower"),
    "dichotomy.order_s": ("s", "lower"),
    "dichotomy.verify_s": ("s", "lower"),
    "dichotomy.verify_calls": ("count", "lower"),
    "solver.mincut_s": ("s", "lower"),
    "solver.maxflow_s": ("s", "lower"),
    "solver.flow_arcs": ("count", "lower"),
    "solver.brute_s": ("s", "lower"),
    "solver.assignments": ("count", "lower"),
    "solver.assignments_per_s": ("1/s", "higher"),
    "hardness.normalize_s": ("s", "lower"),
    "hardness.reduce_s": ("s", "lower"),
    "hardness.verify_s": ("s", "lower"),
    "hardness.reference_s": ("s", "lower"),
}

# module -> function -> the time metric its self time adds to
SPANS = {
    "cvcsp.cli": {
        "main": "cli.self_s",
        "load_language": "cli.load_s",
        "load_instance": "cli.load_s",
        "load_source_graph": "cli.load_s",
    },
    "cvcsp.express": {"enumerate_binary_pool": "express.pool_s"},
    "cvcsp.pairgraph": {
        "build_graph": None,
        "detect_edges": "pairgraph.detect_s",
        "close_edges": "pairgraph.close_s",
        "find_soft_self_loop": "pairgraph.witness_s",
    },
    "cvcsp.dichotomy": {
        "classify": "dichotomy.classify_s",
        "search_stp": "dichotomy.search_s",
        "find_submodular_order": "dichotomy.order_s",
        "verify_multimorphism": "dichotomy.verify_s",
    },
    "cvcsp.solver": {
        "solve_mincut": "solver.mincut_s",
        "max_flow": "solver.maxflow_s",
        "brute_force": "solver.brute_s",
    },
    "cvcsp.hardness": {
        "normalize_witness": "hardness.normalize_s",
        "witness_from_loop": "hardness.normalize_s",
        "reduce_maxcut": "hardness.reduce_s",
        "reduce_mis": "hardness.reduce_s",
        "verify_reduction": "hardness.verify_s",
        "exact_max_cut": "hardness.reference_s",
        "exact_max_independent_set": "hardness.reference_s",
    },
}

# count metrics -> the functions they are read from; every one must exist
COUNTED_AT = {
    "cli.cache_hits": ("main", "classify"),
    "cli.cache_misses": ("main", "classify"),
    "express.views": ("enumerate_binary_pool",),
    "express.pool_calls": ("enumerate_binary_pool",),
    "pairgraph.builds": ("build_graph",),
    "pairgraph.edges_detected": ("detect_edges",),
    "pairgraph.edges_closed": ("close_edges",),
    "dichotomy.candidates": ("search_stp",),
    "dichotomy.components": ("search_stp",),
    "dichotomy.budget_errors": ("search_stp",),
    "dichotomy.verify_calls": ("verify_multimorphism",),
    "solver.flow_arcs": ("max_flow",),
    "solver.assignments": ("brute_force",),
    "solver.assignments_per_s": ("brute_force",),
}
# time metric -> the function of each span it sums (absent when none exists)
TIMED_AT = {}
for _functions in SPANS.values():
    for _fn, _metric in _functions.items():
        if _metric is not None:
            TIMED_AT.setdefault(_metric, []).append(_fn)


class Span:
    __slots__ = ("name", "start", "end", "parent", "args", "result", "error", "child_s")

    def __init__(self, name, parent, args):
        self.name = name
        self.parent = parent
        self.args = args
        self.result = None
        self.error = None
        self.child_s = 0.0
        self.start = self.end = 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.found: set = set()

    def install(self) -> None:
        originals = {}
        for module_name, functions in SPANS.items():
            module = sys.modules.get(module_name)
            for fn_name in functions:
                fn = getattr(module, fn_name, None) if module else None
                if callable(fn):
                    originals[fn] = self._wrap(fn_name, fn)
                    self.found.add(fn_name)
        for name, module in list(sys.modules.items()):
            if name != "cvcsp" and not name.startswith("cvcsp."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, args)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = exc
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start

        return traced

    def metrics(self) -> dict:
        """Every per-layer metric, or None for one whose function is gone."""
        values = {m: 0 for m in METRICS}
        span_metric = {fn: m for fns in SPANS.values() for fn, m in fns.items()}
        brute_total = 0.0
        solves_with_classify = set()
        for span in self.spans:
            own = span.end - span.start - span.child_s
            metric = span_metric[span.name]
            if metric is not None:
                values[metric] += own
            res = span.result
            if span.name == "enumerate_binary_pool":
                values["express.pool_calls"] += 1
                if res is not None:
                    values["express.views"] += len(res.views)
            elif span.name == "build_graph":
                values["pairgraph.builds"] += 1
            elif span.name == "detect_edges" and res is not None:
                values["pairgraph.edges_detected"] += len(res)
            elif span.name == "close_edges" and res is not None:
                values["pairgraph.edges_closed"] += len(res)
            elif span.name == "search_stp":
                if span.error is not None and type(span.error).__name__ == "BudgetExceeded":
                    values["dichotomy.budget_errors"] += 1
                elif res is not None:
                    values["dichotomy.candidates"] += res[1].get("candidates", 0)
                    values["dichotomy.components"] += res[1].get("components", 0)
            elif span.name == "verify_multimorphism":
                values["dichotomy.verify_calls"] += 1
            elif span.name == "max_flow":
                values["solver.flow_arcs"] += len(span.args[0].caps) // 2
            elif span.name == "brute_force":
                brute_total += span.end - span.start
                if res is not None:
                    values["solver.assignments"] += res.stats.get("evaluations", 0)
            elif span.name == "classify":
                top = span
                while top.parent is not None:
                    top = top.parent
                if top.name == "main":
                    solves_with_classify.add(id(top))
        for span in self.spans:
            if span.name == "main" and span.parent is None and span.args and span.args[0][0] == "solve":
                key = "cli.cache_misses" if id(span) in solves_with_classify else "cli.cache_hits"
                values[key] += 1
        if brute_total > 0:
            values["solver.assignments_per_s"] = values["solver.assignments"] / brute_total
        for metric, fns in COUNTED_AT.items():
            if not all(fn in self.found for fn in fns):
                values[metric] = None
        for metric, fns in TIMED_AT.items():
            if not any(fn in self.found for fn in fns):
                values[metric] = None
        return values
