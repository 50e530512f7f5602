"""Per-layer tracing for the traced run, from outside the program.

Each traced function is wrapped by rebinding the name its caller looks
up (for example ``nsbox.distance.lp_solve``, which the distance functions
call), for the traced pass only.  A wrapper records a span (name, start,
end, parent) in memory and adds counters computed from the call's
arguments and return value.  Self time is a span's duration minus the
durations of its direct children.
"""

import math
import os
import time
from collections import defaultdict


def _strategies(box):
    from nsbox.distance import adaptive_strategy_count

    return adaptive_strategy_count(box.parties, box.inputs, box.outputs)


def _decomposition(args, kwargs, result):
    return {"terms": len(result.terms), "dropped_mass": 1.0 - result.total_weight}


def _lp_rows(args, kwargs):
    rows = 0
    for key in ("a_ub", "a_eq"):
        mat = kwargs.get(key)
        if mat is not None:
            rows += len(mat)
    return rows


# (module, attribute, span name, counter function or None).  A counter
# function maps (args, kwargs, result) to {counter name: amount}.
POINTS = [
    ("nsbox.cli", "main", "cli.main", None),
    ("nsbox.cli", "load_box", "jsonio.load_box",
     lambda a, kw, r: {"bytes": os.path.getsize(a[0])}),
    ("nsbox.cli", "dump_json", "jsonio.dump_json",
     lambda a, kw, r: {"bytes": os.path.getsize(a[1])}),
    ("nsbox.cli", "quantum_spec_from_json", "jsonio.quantum_spec_from_json", None),
    ("nsbox.box", "is_no_signalling", "box.is_no_signalling", None),
    ("nsbox.cli", "is_no_signalling", "box.is_no_signalling", None),
    ("nsbox.distance", "is_no_signalling", "box.is_no_signalling", None),
    ("nsbox.definetti", "is_no_signalling", "box.is_no_signalling", None),
    ("nsbox.definetti", "symmetry_violation", "box.symmetry_violation", None),
    ("nsbox.cli", "marginal", "box.marginal", None),
    ("nsbox.definetti", "marginal", "box.marginal", None),
    ("nsbox.cli", "product", "box.product", None),
    ("nsbox.definetti", "product", "box.product", None),
    ("nsbox.distance", "lp_solve", "simplex.lp_solve",
     lambda a, kw, r: {
         "rows": _lp_rows(a, kw),
         "cols": len(a[0]),
         "not_optimal": int(r.status != "optimal"),
     }),
    ("nsbox.distance", "ns_constraints", "distance.ns_constraints", None),
    ("nsbox.distance", "polytope_extremum", "distance.polytope_extremum", None),
    ("nsbox.distance", "general_distance_detailed", "distance.general_distance_detailed",
     lambda a, kw, r: {"iterations": r.iterations, "working_set": r.working_set_size}),
    ("nsbox.cli", "adaptive_distance", "distance.adaptive_distance",
     lambda a, kw, r: {"strategies": _strategies(a[0])}),
    ("nsbox.cli", "individual_distance", "distance.individual_distance", None),
    ("nsbox.cli", "separable_decompose", "definetti.separable_decompose", _decomposition),
    ("nsbox.definetti", "separable_decompose", "definetti.separable_decompose", _decomposition),
    ("nsbox.definetti", "averaged_mixture", "definetti.averaged_mixture",
     lambda a, kw, r: {"components": len(r.terms), "input_terms": len(a[0].terms)}),
    ("nsbox.cli", "mixture_to_box", "definetti.mixture_to_box", None),
    ("nsbox.urn", "urn_variational_distance", "urn.urn_variational_distance",
     lambda a, kw, r: {"sequences": len(a[0].distinct) ** a[1]}),
    ("nsbox.cli", "reduced_state", "quantum.reduced_state",
     lambda a, kw, r: {"tuples": len(a[0].terms) * math.perm(a[0].n, a[1])}),
    ("nsbox.quantum", "jacobi_eigh", "quantum.jacobi_eigh",
     lambda a, kw, r: {"dim": len(a[0])}),
    ("nsbox.cli", "mixture_density", "quantum.mixture_density", None),
    ("nsbox.cli", "trace_norm_distance", "quantum.trace_norm_distance", None),
]


def _layer(span, *counters, calls=True, better=None):
    """(metric name, unit, better) rows for one span."""
    rows = [(f"{span}.calls", "count", "lower")] if calls else []
    rows.append((f"{span}.s", "s", "lower"))
    for name, unit in counters:
        rows.append((f"{span}.{name}", unit, (better or {}).get(name, "lower")))
    return rows


# Every per-layer metric the traced run reports (zero when not reached).
LAYER_METRICS = (
    _layer("cli.main")
    + _layer("jsonio.load_box", ("bytes", "bytes"))
    + _layer("jsonio.dump_json", ("bytes", "bytes"))
    + _layer("jsonio.quantum_spec_from_json", calls=False)
    + _layer("box.is_no_signalling")
    + _layer("box.symmetry_violation")
    + _layer("box.marginal")
    + _layer("box.product")
    + _layer("simplex.lp_solve", ("rows", "count"), ("cols", "count"), ("not_optimal", "count"))
    + _layer("distance.ns_constraints", ("cache_hits", "count"), better={"cache_hits": "higher"})
    + _layer("distance.polytope_extremum")
    + _layer("distance.general_distance_detailed", ("iterations", "count"), ("working_set", "count"))
    + _layer("distance.adaptive_distance", ("strategies", "count"))
    + _layer("distance.individual_distance")
    + _layer("definetti.separable_decompose", ("terms", "count"), ("dropped_mass", "prob"))
    + _layer("definetti.averaged_mixture", ("components", "count"), ("merge_ratio", "ratio"))
    + _layer("definetti.mixture_to_box")
    + _layer("urn.urn_variational_distance", ("sequences", "count"))
    + _layer("quantum.reduced_state", ("tuples", "count"))
    + _layer("quantum.jacobi_eigh", ("dim", "count"))
    + _layer("quantum.mixture_density", calls=False)
    + _layer("quantum.trace_norm_distance", calls=False)
    + [("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Installs the wrappers on enter and restores the original names on exit."""

    def __init__(self, modules):
        self.modules = modules  # module name -> module object
        self.spans = []  # [name, start, end, parent index or -1, job index]
        self.counters = defaultdict(float)
        self.job = -1
        self._stack = []
        self._undo = []
        self._hits0 = 0

    def _wrap(self, func, name, count):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                try:
                    amounts = count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError, ImportError):
                    amounts = {}
                for key, amount in amounts.items():
                    tracer.counters[f"{name}.{key}"] += amount
            return result

        return traced

    def __enter__(self):
        self._hits0 = self._cache_hits()
        for mod_name, attr, name, count in POINTS:
            module = self.modules[mod_name]
            func = getattr(module, attr, None)
            if func is None:
                continue
            self._undo.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name, count))
        return self

    def __exit__(self, *exc):
        for module, attr, func in reversed(self._undo):
            setattr(module, attr, func)
        self._undo.clear()
        self.counters["distance.ns_constraints.cache_hits"] += self._cache_hits() - self._hits0

    def _cache_hits(self):
        """Hits of the lru_cache on ns_constraints, read while it is unwrapped."""
        func = getattr(self.modules["nsbox.distance"], "ns_constraints", None)
        info = getattr(func, "cache_info", None)
        return info().hits if info is not None else 0

    def layer_totals(self):
        """{span name: (calls, self seconds)} over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += end - start - child_time[i]
        return totals

    def metrics(self):
        """Per-layer metrics: <span>.calls, <span>.s (self time) and counters."""
        out = {}
        for name, (calls, self_s) in self.layer_totals().items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self_s
        out.update(self.counters)
        terms = out.pop("definetti.averaged_mixture.input_terms", 0)
        components = out.get("definetti.averaged_mixture.components", 0)
        out["definetti.averaged_mixture.merge_ratio"] = components / terms if terms else 0.0
        return out
