"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps each traced public callable of the library at every
binding it has in every ``antiring.*`` module namespace (and the package
namespace), so calls made through names imported elsewhere -- ``squarezero``
importing ``is_nilpotent``, ``cli`` importing the handlers' targets, the
recursion of ``acyclic_polynomial`` through its module global -- are spanned
too.  A target the library no longer has is recorded as absent, never an
error: later versions may delete functions.

Spans (name, start, end, parent span, request id) are kept in memory and
written out at the end.  Self time is a span's duration minus the time its
child spans cover; the program is single-threaded, so children never overlap
and that is the sum of their durations.
"""

import importlib
import sys
import time

PACKAGE = "antiring"

#: Traced callables, by layer module.  ``Class.method`` names a method.
TARGETS = {
    "semirings": ("validate_axioms", "parse_semiring"),
    "matrices": (
        "Matrix.__matmul__", "Matrix.__pow__", "parse_matrix", "parse_matrix_file",
        "format_matrix",
    ),
    "nilpotency": ("is_nilpotent", "nilpotency_index", "triangularize", "topological_order"),
    "squarezero": (
        "decompose_nilpotent", "decompose_trace_zero", "tournament_coloring",
        "complete_digraph_coloring", "SquareZeroDecomposition.__init__",
    ),
    "invertibility": (
        "invertibility_failure", "factorize_invertible", "invert", "gl_encode", "gl_decode",
        "max_orthogonal_decomposition",
    ),
    "dag_counting": (
        "count_nilpotent", "nilpotent_count_polynomial", "acyclic_polynomial",
        "acyclic_polynomial_partition_form",
    ),
    "enumeration": ("count_nilpotent_bruteforce", "enumerate_gl", "orth_decomp_search"),
    "cli": ("run",),
}

#: Per-layer self-time metrics: metric name -> the span names it sums.
SELF_TIME = {
    "matrices.matmul.self_s": ("matrices.Matrix.__matmul__",),
    "matrices.parse.self_s": ("matrices.parse_matrix", "matrices.parse_matrix_file"),
    "matrices.format.self_s": ("matrices.format_matrix",),
    "nilpotency.is_nilpotent.self_s": ("nilpotency.is_nilpotent",),
    "nilpotency.nilpotency_index.self_s": ("nilpotency.nilpotency_index",),
    "nilpotency.triangularize.self_s": ("nilpotency.triangularize",),
    "nilpotency.topological_order.self_s": ("nilpotency.topological_order",),
    "squarezero.decompose_nilpotent.self_s": ("squarezero.decompose_nilpotent",),
    "squarezero.decompose_trace_zero.self_s": ("squarezero.decompose_trace_zero",),
    "squarezero.coloring.self_s": (
        "squarezero.tournament_coloring", "squarezero.complete_digraph_coloring",
    ),
    "squarezero.verify.self_s": ("squarezero.SquareZeroDecomposition.__init__",),
    "invertibility.invertibility_failure.self_s": ("invertibility.invertibility_failure",),
    "invertibility.factorize_invertible.self_s": ("invertibility.factorize_invertible",),
    "invertibility.invert.self_s": ("invertibility.invert",),
    "invertibility.gl_encode.self_s": ("invertibility.gl_encode",),
    "invertibility.gl_decode.self_s": ("invertibility.gl_decode",),
    "invertibility.max_orthogonal_decomposition.self_s": (
        "invertibility.max_orthogonal_decomposition",
    ),
    "dag_counting.count_nilpotent.self_s": ("dag_counting.count_nilpotent",),
    "dag_counting.nilpotent_count_polynomial.self_s": ("dag_counting.nilpotent_count_polynomial",),
    "dag_counting.acyclic_polynomial.self_s": ("dag_counting.acyclic_polynomial",),
    "dag_counting.partition_form.self_s": ("dag_counting.acyclic_polynomial_partition_form",),
    "enumeration.count_nilpotent_bruteforce.self_s": ("enumeration.count_nilpotent_bruteforce",),
    "enumeration.enumerate_gl.self_s": ("enumeration.enumerate_gl",),
    "enumeration.orth_decomp_search.self_s": ("enumeration.orth_decomp_search",),
    "semirings.validate_axioms.self_s": ("semirings.validate_axioms",),
    "semirings.parse_semiring.self_s": ("semirings.parse_semiring",),
}

#: Call-count metrics: metric name -> the span names it counts.
CALLS = {
    "matrices.matmul.calls": ("matrices.Matrix.__matmul__",),
    "matrices.pow.calls": ("matrices.Matrix.__pow__",),
    "nilpotency.topological_order.calls": ("nilpotency.topological_order",),
    "dag_counting.acyclic_polynomial.calls": ("dag_counting.acyclic_polynomial",),
}

NILPOTENCY_CALLS = frozenset((
    "nilpotency.is_nilpotent", "nilpotency.nilpotency_index", "nilpotency.triangularize",
))
ENUMERATION_SPANS = (
    "enumeration.count_nilpotent_bruteforce", "enumeration.enumerate_gl",
    "enumeration.orth_decomp_search",
)


def _nonzeros(matrix):
    zero = matrix.semiring.zero
    return sum(1 for row in matrix.rows for v in row if v != zero)


def _poly_bits(poly):
    return sum(abs(c).bit_length() for c in poly.coeffs)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _states(args, kwargs):
    """Matrix states a brute-force scan visits: |S|^(n^2)."""
    return _arg(args, kwargs, 0, "semiring").size ** (_arg(args, kwargs, 1, "n") ** 2)


# Observers turn a successful call into work counts.  Each runs after its
# span has closed and does O(1) work; anything heavier (counting nonzeros,
# summing coefficient bits) is deferred until the pass is over.
OBSERVERS = {
    "squarezero.decompose_nilpotent": lambda a, k, r, note: (
        note("squarezero.calls", 1), note("squarezero.summands", len(r)),
        note("squarezero.support_edges", (_nonzeros, a[0])),
    ),
    "squarezero.decompose_trace_zero": lambda a, k, r, note: (
        note("squarezero.calls", 1), note("squarezero.summands", len(r)),
        note("squarezero.support_edges", (_nonzeros, a[0])),
    ),
    "squarezero.tournament_coloring": lambda a, k, r, note: note(
        "squarezero.colored_edges", len(r.colors)),
    "squarezero.complete_digraph_coloring": lambda a, k, r, note: note(
        "squarezero.colored_edges", len(r.colors)),
    "invertibility.factorize_invertible": lambda a, k, r, note: (
        note("invertibility.factorizations", 1), note("invertibility.terms", len(r.terms)),
    ),
    "dag_counting.count_nilpotent": lambda a, k, r, note: (
        note("dag_counting.results", 1), note("dag_counting.bits", abs(r).bit_length()),
    ),
    "dag_counting.nilpotent_count_polynomial": lambda a, k, r, note: (
        note("dag_counting.results", 1), note("dag_counting.bits", (_poly_bits, r)),
    ),
    "dag_counting.acyclic_polynomial_partition_form": lambda a, k, r, note: (
        note("dag_counting.results", 1), note("dag_counting.bits", (_poly_bits, r)),
    ),
    "enumeration.count_nilpotent_bruteforce": lambda a, k, r, note: note(
        "enumeration.states", _states(a, k)),
    "enumeration.enumerate_gl": lambda a, k, r, note: (
        note("enumeration.states", _states(a, k)), note("enumeration.gl_states", _states(a, k)),
        note("enumeration.gl_found", len(r)),
    ),
    "enumeration.orth_decomp_search": lambda a, k, r, note: note(
        "enumeration.states", 2 ** (_arg(a, k, 0, "semiring").size - 1)),
}


class Tracer:
    """Records spans around the library's traced callables while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.stack = []
        self.request = -1
        self.absent = []
        self.counters = {}
        self.deferred = []
        self.observer_errors = 0
        self._bindings = []  # (object, attribute, original, wrapper)

    # --- installation ---

    def install(self):
        """Wrap every target at every binding; returns the absent target names.

        ``enable(False)`` / ``enable(True)`` later restore and re-apply the
        same bindings cheaply, so traced and untraced calls can alternate.
        """
        importlib.import_module(PACKAGE)
        for layer in TARGETS:
            try:
                importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                pass
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                span_name = f"{layer}.{name}"
                if module is None:
                    self.absent.append(span_name)
                    continue
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name, None)
                    orig = None if cls is None else cls.__dict__.get(meth)
                    if orig is None:
                        self.absent.append(span_name)
                        continue
                    self._bindings.append((cls, meth, orig, self._wrap(span_name, orig)))
                    continue
                orig = getattr(module, name, None)
                if orig is None:
                    self.absent.append(span_name)
                    continue
                wrapper = self._wrap(span_name, orig)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._bindings.append((ns, attr, orig, wrapper))
        self.enable(True)
        return self.absent

    def enable(self, on):
        for obj, attr, orig, wrapper in self._bindings:
            setattr(obj, attr, wrapper if on else orig)

    def uninstall(self):
        self.enable(False)
        self._bindings.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = OBSERVERS.get(name)
        note = self._note

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(args, kwargs, result, note)
                except Exception:
                    self.observer_errors += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _note(self, counter, value):
        if isinstance(value, tuple):
            self.deferred.append((counter, value))
        else:
            self.counters[counter] = self.counters.get(counter, 0) + value

    # --- requests ---

    def begin_request(self, rid, label):
        """Open the benchmark's own root span for one request."""
        self.request = rid
        span = [f"request.{label}", 0.0, 0.0, -1, rid]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end_request(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()
        self.request = -1

    # --- results ---

    def finish(self):
        """Resolve deferred observations; returns the counters."""
        for counter, (fn, obj) in self.deferred:
            try:
                self.counters[counter] = self.counters.get(counter, 0) + fn(obj)
            except Exception:
                self.observer_errors += 1
        self.deferred.clear()
        return self.counters

    def self_times(self):
        """Total self seconds and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            s, c = totals.get(name, (0.0, 0))
            totals[name] = (s + (end - start) - child[idx], c + 1)
        return totals

    def nilpotency_matmuls(self):
        """(matmuls made inside a nilpotency call, outermost nilpotency calls)."""
        spans = self.spans
        inside = {}

        def in_nilpotency(idx):
            if idx not in inside:
                parent = spans[idx][3]
                inside[idx] = spans[idx][0] in NILPOTENCY_CALLS or (
                    parent >= 0 and in_nilpotency(parent))
            return inside[idx]

        matmuls = calls = 0
        for idx, (name, _, _, parent, _) in enumerate(spans):
            if name == "matrices.Matrix.__matmul__" and parent >= 0 and in_nilpotency(parent):
                matmuls += 1
            elif name in NILPOTENCY_CALLS and not (parent >= 0 and in_nilpotency(parent)):
                calls += 1
        return matmuls, calls

    def dump(self):
        return {"absent": self.absent, "spans": self.spans, "counters": self.counters}


def layer_metrics(totals, counters, nil_matmuls, nil_calls):
    """Per-layer metrics from span totals and observer counters.

    A metric whose inputs were never observed reads 0 (see ``absent`` in
    the run record for callables the library no longer has).
    """
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(totals.get(n, (0.0, 0))[0] for n in names)
    for metric, names in CALLS.items():
        out[metric] = sum(totals.get(n, (0.0, 0))[1] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters.get
    out["nilpotency.matmul_per_call"] = ratio(nil_matmuls, nil_calls)
    out["squarezero.colored_edge_share"] = ratio(
        c("squarezero.support_edges", 0), c("squarezero.colored_edges", 0))
    out["squarezero.summands_per_call"] = ratio(c("squarezero.summands", 0), c("squarezero.calls", 0))
    out["invertibility.terms_per_call"] = ratio(
        c("invertibility.terms", 0), c("invertibility.factorizations", 0))
    out["dag_counting.result_bits"] = ratio(c("dag_counting.bits", 0), c("dag_counting.results", 0))
    enum_s = sum(totals.get(n, (0.0, 0))[0] for n in ENUMERATION_SPANS)
    out["enumeration.states"] = c("enumeration.states", 0)
    out["enumeration.states_per_s"] = ratio(c("enumeration.states", 0), enum_s)
    out["enumeration.gl_hit_ratio"] = ratio(c("enumeration.gl_found", 0), c("enumeration.gl_states", 0))
    return out


def count_semiring_ops(semirings):
    """Wrap ``add``/``mul`` of the given semiring instances with call counters.

    Returns (counts, restore).  This distorts timings, so it runs in its own
    pass, never together with spans.
    """
    counts = {"add": 0, "mul": 0}
    undo = []

    def counted(op, fn):
        def wrapper(a, b):
            counts[op] += 1
            return fn(a, b)
        return wrapper

    for sr in {id(s): s for s in semirings}.values():
        for op in ("add", "mul"):
            fn = getattr(sr, op, None)
            if fn is not None:
                undo.append((sr, op, sr.__dict__.get(op)))
                setattr(sr, op, counted(op, fn))

    def restore():
        for sr, op, own in reversed(undo):
            if own is None:
                delattr(sr, op)
            else:
                setattr(sr, op, own)

    return counts, restore
