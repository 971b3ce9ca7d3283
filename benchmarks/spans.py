"""In-memory span tracer and the layer probes of the mvortho benchmark.

The probes wrap, from outside the package, the functions each mvortho
module exposes to its caller (the names bound in the caller's module
globals), plus the per-degree phase callables that ``stieltjes`` calls
through its own globals.  Every call becomes a span with a name, start,
end, parent and run id.  Spans stay in memory and are written as JSON
lines once the run ends.

A probe whose attribute no longer exists is skipped and its span name is
listed as missing, so a refactor that renames a phase shows up as a
missing metric instead of a failed run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    attrs: dict = field(default_factory=dict)
    end: float = math.nan
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []
        self._present: dict[str, bool] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        sp = Span(name=name, start=time.perf_counter(), parent=parent,
                  attrs=attrs)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.duration

    def traced(self, fn, name: str, before=None, after=None):
        """``fn`` wrapped in a span; ``before(*args, **kwargs)`` and
        ``after(result)`` return extra span attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = _safe(before, *args, **kwargs) if before else {}
            with self.span(name, **attrs) as sp:
                result = fn(*args, **kwargs)
                if after:
                    sp.attrs.update(_safe(after, result))
            return result

        return wrapper

    def patch(self, module: str, attr: str, name: str, *, before=None,
              after=None, factory=False):
        """Replace ``module.attr`` by a traced wrapper.

        With ``factory`` the call itself is not a span; the callable it
        returns is traced instead (evaluator factories).
        """
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        self._present[name] = self._present.get(name, False) or fn is not None
        if fn is None:
            return
        if factory:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.traced(fn(*args, **kwargs), name, before=before)
        else:
            wrapper = self.traced(fn, name, before=before, after=after)
        self._patched.append((mod, attr, fn))
        setattr(mod, attr, wrapper)

    def restore(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    @property
    def missing_spans(self) -> set:
        """Span names none of whose probed attributes exist."""
        return {name for name, ok in self._present.items() if not ok}

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "run_id": self.run_id, "id": idx, "name": sp.name,
                    "start": sp.start, "end": sp.end, "parent": sp.parent,
                    "attrs": sp.attrs}, sort_keys=True) + "\n")


def _safe(hook, *args, **kwargs) -> dict:
    """Attribute hooks read argument shapes; a changed signature loses
    the attributes, not the run."""
    try:
        return hook(*args, **kwargs)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return {}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Computed kernel counts (float64).  They follow the array shapes the
# kernels touch; bytes count each operand read or written once, so cache
# misses and BLAS packing are not included.

def _residual_pass_counts(state, centers, chunk_size=None, need_pairs=True):
    d = state.measure.d
    m = state.measure.n_nodes
    r = state.values_cur.shape[0]
    r_prev = (state.values_prev.shape[0]
              if state.degree >= 1 and state.values_prev is not None else 0)
    pairs = d * (d + 1) // 2 if need_pairs else d
    # per coordinate: x_i * p, centers @ p, B^T @ p_prev; per pair: weight
    # one residual and one GEMM.
    flop = m * (d * (2 * r * r + 2 * r * r_prev + 2 * r) + pairs * (2 * r * r + r))
    words = m * (r + r_prev + 2 * d * r + 3 * pairs * r)
    return {"n": state.degree, "r_n": r, "flop": flop, "bytes": 8 * words}


def _degree_attrs(state, *args, **kwargs):
    return {"n": state.degree, "r_n": state.values_cur.shape[0]}


def _build_gram_counts(basis, measure, *args, **kwargs):
    size, d, m = basis.size, measure.d, measure.n_nodes
    # Gram plus d coordinate-weighted Grams, each a (size x m)(m x size) GEMM.
    flop = (d + 1) * (2 * size * size * m + size * m)
    words = size * m * (2 + 3 * (d + 1))
    return {"size": size, "flop": flop, "bytes": 8 * words}


def _gram_error_counts(*args, **kwargs):
    measure = _arg(args, kwargs, 1, "measure")
    size = _arg(args, kwargs, 2, "size")
    m = measure.n_nodes
    flop = 2 * size * size * m + size * m
    # basis values read twice, weighted copy written and read once.
    words = 4 * size * m
    return {"size": size, "flop": flop, "bytes": 8 * words}


def _evaluate_points(points_chunk, *args, **kwargs):
    return {"points": len(points_chunk)}


def _breakdown(gram):
    return {"breakdown_degree": gram.failure_degree or 0}


MEASURE_BUILDERS = ("annulus_measure", "point_cloud_measure", "spiral_measure",
                    "square_minus_ball", "tensor_jacobi", "torus_measure")
CLOSURE_STEPS = ("symmetric_factor", "scaled_cross", "rank_one_completion",
                 "kernel_completion_basis", "three_dim_completion",
                 "degree_one_from_moments", "solve_orthogonal_factors")
SERIALIZATION_CSV = ("write_log_error_csv", "write_condition_csv",
                     "write_cc_csv", "write_christoffel_csv")


def install_layer_probes(tracer: Tracer) -> None:
    exp, st = "mvortho.experiments", "mvortho.stieltjes"
    for attr in MEASURE_BUILDERS:
        tracer.patch(exp, attr, "measures.build")
    tracer.patch(exp, "stieltjes_recurrence", "stieltjes.total")
    tracer.patch(st, "_advance", "stieltjes.degree", before=_degree_attrs)
    tracer.patch(st, "coordinate_moment", "stieltjes.centers")
    tracer.patch(st, "_moment_pass", "stieltjes.residual_pass",
                 before=_residual_pass_counts)
    for attr in CLOSURE_STEPS:
        tracer.patch(st, attr, "stieltjes.closure")
    tracer.patch(st, "_commit_degree", "stieltjes.commit")
    tracer.patch(st, "_evaluate_committed_degree", "stieltjes.block_eval")
    tracer.patch(exp, "build_gram", "moment_method.build_gram",
                 before=_build_gram_counts, after=_breakdown)
    tracer.patch("mvortho.moment_method", "_blocked_cholesky",
                 "moment_method.cholesky")
    tracer.patch(exp, "extract_recurrence", "moment_method.extract")
    tracer.patch(exp, "gram_condition_numbers", "diagnostics.cond")
    for attr in ("recurrence_evaluator", "orthonormal_evaluator"):
        tracer.patch(exp, attr, "evaluation.evaluate", before=_evaluate_points,
                     factory=True)
    tracer.patch(exp, "gram_error_streaming", "diagnostics.gram_error",
                 before=_gram_error_counts)
    tracer.patch(exp, "commuting_residuals", "diagnostics.cc")
    tracer.patch(exp, "christoffel_streaming", "diagnostics.christoffel")
    tracer.patch("mvortho.serialization", "save_recurrence",
                 "serialization.recurrence_json")
    for attr in SERIALIZATION_CSV:
        tracer.patch("mvortho.serialization", attr, "serialization.csv")


ROOT_SPAN = "experiments.run"

# Self-time metrics: together they partition the root span, so their sum
# is the traced run time.
SELF_TIME_METRICS = {
    "measures.build_s": ("measures.build",),
    "stieltjes.self_s": ("stieltjes.total", "stieltjes.degree"),
    "stieltjes.centers_s": ("stieltjes.centers",),
    "stieltjes.residual_pass_s": ("stieltjes.residual_pass",),
    "stieltjes.closure_s": ("stieltjes.closure",),
    "stieltjes.commit_s": ("stieltjes.commit",),
    "stieltjes.block_eval_s": ("stieltjes.block_eval",),
    "moment_method.build_gram_s": ("moment_method.build_gram",),
    "moment_method.cholesky_s": ("moment_method.cholesky",),
    "moment_method.extract_s": ("moment_method.extract",),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
    "diagnostics.gram_error_self_s": ("diagnostics.gram_error",),
    "diagnostics.cond_s": ("diagnostics.cond",),
    "diagnostics.cc_s": ("diagnostics.cc",),
    "diagnostics.christoffel_self_s": ("diagnostics.christoffel",),
    "serialization.recurrence_json_s": ("serialization.recurrence_json",),
    "serialization.csv_s": ("serialization.csv",),
    "experiments.self_s": (ROOT_SPAN,),
}

# Spans whose computed flop/bytes attrs are summed; the rate divides by
# the span's self time.
KERNELS = ("stieltjes.residual_pass", "moment_method.build_gram",
           "diagnostics.gram_error")


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer values (name -> (value, unit)) and the names that are
    missing because their probes found nothing to wrap."""
    self_s, total_s, count, sums = {}, {}, {}, {}
    for sp in tracer.spans:
        self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.self_s
        total_s[sp.name] = total_s.get(sp.name, 0.0) + sp.duration
        count[sp.name] = count.get(sp.name, 0) + 1
        bucket = sums.setdefault(sp.name, {})
        for key, val in sp.attrs.items():
            if isinstance(val, (int, float)):
                bucket[key] = bucket.get(key, 0) + val
    absent = tracer.missing_spans
    out, missing = {}, []

    def put(metric, value, unit, spans):
        out[metric] = (value, unit)
        if any(s in absent for s in spans):
            missing.append(metric)

    for metric, spans in SELF_TIME_METRICS.items():
        put(metric, sum(self_s.get(s, 0.0) for s in spans), "s", spans)
    put("stieltjes.total_s", total_s.get("stieltjes.total", 0.0), "s",
        ("stieltjes.total",))
    sweeps = ("stieltjes.centers", "stieltjes.residual_pass",
              "stieltjes.block_eval")
    put("stieltjes.node_sweeps", sum(count.get(s, 0) for s in sweeps),
        "count", sweeps)
    for span in KERNELS:
        attrs = sums.get(span, {})
        gflop = attrs.get("flop", 0) / 1e9
        busy = self_s.get(span, 0.0)
        put(f"{span}.gflop", gflop, "Gflop-computed", (span,))
        put(f"{span}.gbyte", attrs.get("bytes", 0) / 1e9, "GB-computed",
            (span,))
        put(f"{span}.gflops", gflop / busy if busy > 0 else 0.0,
            "Gflop/s", (span,))
        if count.get(span) and "flop" not in attrs:
            # Called, but the count hook no longer understands its arguments.
            missing.extend(f"{span}.{k}" for k in ("gflop", "gbyte", "gflops"))
    put("moment_method.breakdown_degree",
        sums.get("moment_method.build_gram", {}).get("breakdown_degree", 0),
        "degree", ("moment_method.build_gram",))
    put("evaluation.evaluate_calls", count.get("evaluation.evaluate", 0),
        "count", ("evaluation.evaluate",))
    put("evaluation.points",
        sums.get("evaluation.evaluate", {}).get("points", 0), "count",
        ("evaluation.evaluate",))
    return out, sorted(set(missing))
