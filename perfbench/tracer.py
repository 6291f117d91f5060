"""Outside-in layer trace of ringdim, installed from the benchmark's files.

The tracer replaces selected functions with wrappers while a traced pass
runs and restores them afterwards; no source file of the program changes.
A module-level function is replaced everywhere it is bound: in its own
module and in every ringdim module that imported it by name (for example
`ringdim.cli.evaluate` or `ringdim.chains.eliminate`), since a call
through an unreplaced binding would go around the span.  Methods are
replaced on their class.

Span wrappers record (name, start, end, parent, invocation).  Hot methods
called millions of times per pass (`compare`, `Polynomial.leading`) and
`Budget.spend` only count calls, so the trace stays cheap where it would
otherwise dominate.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

# module -> functions that get a timed span
SPANS = {
    "ringdim.cli": ("main",),
    "ringdim.parser": ("parse_ring_expr", "parse_polynomial", "ambient_ring_of"),
    "ringdim.calculus": ("evaluate", "flatten_affine"),
    "ringdim.dimension": ("dim_affine", "zero_divisor_status"),
    "ringdim.ideals": (
        "buchberger",
        "normal_form",
        "eliminate",
        "ideal_quotient",
        "saturate",
        "IdealPresentation.groebner_basis",
    ),
    "ringdim.fields": ("normalize_rational_function",),
    "ringdim.polynomials": ("polynomial_gcd",),
    "ringdim.chains": ("build_chain", "verify_chain", "certified_lower_bound"),
}

# module -> methods whose calls are counted, not timed
COUNTS = {
    "ringdim.orderings": ("GrevLex.compare", "Lex.compare", "BlockElimination.compare"),
    "ringdim.polynomials": ("Polynomial.leading",),
    "ringdim.ideals": ("Budget.spend",),
}

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it is expected to move).
LAYER_METRICS = (
    ("ideals.pair_reductions", "count", "lower", "pass_s on gb-fp"),
    ("ideals.normal_form_calls", "count", "lower", "pass_s on gb-fp"),
    ("ideals.nf_zero_ratio", "ratio", "lower", "pass_s on gb-fp"),
    ("ideals.buchberger_self_s", "s", "lower", "pass_s on gb-fp"),
    ("ideals.normal_form_self_s", "s", "lower", "pass_s on gb-fp"),
    ("ideals.eliminate_s", "s", "lower", "pass_s on gb-fp; latency_ms_p90 on cli-corpus"),
    ("ideals.gb_cache_hit_ratio", "ratio", "higher", "latency_ms_p50 on cli-corpus"),
    ("orderings.compare_calls", "count", "lower", "pass_s on gb-fp"),
    ("polynomials.leading_calls", "count", "lower", "pass_s on gb-fp"),
    ("polynomials.gcd_calls", "count", "lower", "pass_s on gb-coeff"),
    ("fields.ratfunc_normalize_calls", "count", "lower", "pass_s on gb-coeff (0 on gb-fp: no change there)"),
    ("fields.ratfunc_normalize_s", "s", "lower", "pass_s on gb-coeff (0 on gb-fp: no change there)"),
    ("dimension.dim_affine_calls", "count", "lower", "latency_ms_p50 on cli-corpus"),
    ("dimension.dim_affine_self_s", "s", "lower", "latency_ms_p50 on cli-corpus"),
    ("dimension.zero_divisor_calls", "count", "lower", "latency_ms_p50 on cli-corpus"),
    ("calculus.evaluate_self_s", "s", "lower", "latency_ms_p50 on cli-corpus"),
    ("calculus.flatten_calls", "count", "lower", "latency_ms_p50 on cli-corpus"),
    ("parser.calls", "count", "lower", "latency_ms_p50 and cli.cold_start_ms on cli-corpus"),
    ("parser.parse_s", "s", "lower", "latency_ms_p50 and cli.cold_start_ms on cli-corpus"),
    ("chains.build_s", "s", "lower", "latency_ms_p90 on cli-corpus"),
    ("chains.verify_s", "s", "lower", "latency_ms_p90 on cli-corpus"),
    ("cli.self_s", "s", "lower", "latency_ms_p50 on cli-corpus"),
    ("cli.interpreter_start_ms", "ms", "lower", "cli.cold_start_ms (the part no ringdim change can move)"),
    ("cli.import_ms", "ms", "lower", "cli.cold_start_ms on cli-corpus"),
    ("cli.cold_start_ms", "ms", "lower", "what a user waits for one `ringdim dim` in a fresh process"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced pass_s over untraced pass_s"),
)

# span names whose self time makes up a metric
_SELF = {
    "ideals.buchberger_self_s": ("ideals.buchberger",),
    "ideals.normal_form_self_s": ("ideals.normal_form",),
    "dimension.dim_affine_self_s": ("dimension.dim_affine",),
    "calculus.evaluate_self_s": ("calculus.evaluate", "calculus.flatten_affine"),
    "cli.self_s": ("cli.main",),
}
# span names whose outermost spans' wall time makes up a metric
_INCLUSIVE = {
    "ideals.eliminate_s": ("ideals.eliminate",),
    "fields.ratfunc_normalize_s": ("fields.normalize_rational_function",),
    "parser.parse_s": tuple(f"parser.{name}" for name in SPANS["ringdim.parser"]),
    "chains.build_s": ("chains.build_chain",),
    "chains.verify_s": ("chains.verify_chain", "chains.certified_lower_bound"),
}


def _label(module_name: str, qualname: str) -> str:
    return f"{module_name.split('.', 1)[1]}.{qualname}"


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, invocation]
        self.counts: Counter = Counter()
        self.zero_normal_forms = 0
        self.invocation = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- installing ----------------------------------------------------------------

    def install(self):
        for module_name, names in SPANS.items():
            for qualname in names:
                self._replace(module_name, qualname, self._span)
        for module_name, names in COUNTS.items():
            for qualname in names:
                self._replace(module_name, qualname, self._count)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, module_name: str, qualname: str, make):
        module = sys.modules[module_name]
        label = _label(module_name, qualname)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(label, original))
            return
        original = getattr(module, qualname)
        wrapper = make(label, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ringdim" or name.startswith("ringdim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _span(self, label: str, fn):
        spans, stack = self.spans, self._stack
        zero_check = label == "ideals.normal_form"

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.invocation)
            if zero_check and result.is_zero():
                self.zero_normal_forms += 1
            return result

        return wrapper

    def _count(self, label: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-pass metrics -------------------------------------------------------------

    def mark(self) -> tuple[int, Counter, int]:
        """A point to measure a pass from."""
        return len(self.spans), Counter(self.counts), self.zero_normal_forms

    def metrics_since(self, mark) -> dict[str, float]:
        """Per-layer counts and times of everything traced after `mark`
        (every metric of LAYER_METRICS that a pass yields)."""
        first, counts_before, zeros_before = mark
        spans = self.spans[first:]
        counts = self.counts - counts_before
        calls: Counter = Counter()
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            calls[name] += 1
            if parent is not None and parent >= first:
                child_time[parent - first] += end - start
        self_time = {name: 0.0 for name in calls}
        inclusive = {key: 0.0 for key in _INCLUSIVE}
        groups = {name: key for key, names in _INCLUSIVE.items() for name in names}
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_time[name] += (end - start) - child_time[i]
            key = groups.get(name)
            if key is not None and not self._inside(parent, _INCLUSIVE[key]):
                inclusive[key] += end - start
        normal_forms = calls["ideals.normal_form"]
        gb_calls = calls["ideals.IdealPresentation.groebner_basis"]
        out = {
            "ideals.pair_reductions": counts["ideals.Budget.spend"],
            "ideals.normal_form_calls": normal_forms,
            "ideals.nf_zero_ratio": (self.zero_normal_forms - zeros_before) / normal_forms if normal_forms else 0.0,
            "ideals.gb_cache_hit_ratio": 1.0 - calls["ideals.buchberger"] / gb_calls if gb_calls else 0.0,
            "orderings.compare_calls": sum(counts[_label("ringdim.orderings", q)] for q in COUNTS["ringdim.orderings"]),
            "polynomials.leading_calls": counts["polynomials.Polynomial.leading"],
            "polynomials.gcd_calls": calls["polynomials.polynomial_gcd"],
            "fields.ratfunc_normalize_calls": calls["fields.normalize_rational_function"],
            "dimension.dim_affine_calls": calls["dimension.dim_affine"],
            "dimension.zero_divisor_calls": calls["dimension.zero_divisor_status"],
            "calculus.flatten_calls": calls["calculus.flatten_affine"],
            "parser.calls": sum(calls[name] for name in _INCLUSIVE["parser.parse_s"]),
        }
        for key, names in _SELF.items():
            out[key] = sum(self_time.get(name, 0.0) for name in names)
        out.update(inclusive)
        return out

    def _inside(self, index, names) -> bool:
        while index is not None:
            span = self.spans[index]
            if span[0] in names:
                return True
            index = span[3]
        return False


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric medians over passes; counts stay whole numbers."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = statistics.median_low(values) if isinstance(values[0], int) else statistics.median(values)
    return out
