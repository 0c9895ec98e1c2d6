"""Span recording for the traced benchmark run, and the per-layer metrics
computed from the spans.

Spans are recorded from outside the program: `Tracer.install` replaces the
module attributes through which grasscy's layers call each other with
wrappers that open and close a span around the original function.  Nothing
under src/ is changed.  Spans are kept in memory and written out when the
traced operation ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict

# The six registry cases, in registry order.
CASES = ["X4_G24", "X113_G25", "X122_G25", "X11112_G26", "X1111111_G27", "X111111_G36"]
STAGES = ["a_series", "pf_fit", "frobenius", "mirror_map"]


def _bits(coeffs) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
               default=0)


def _a_series_attrs(args, kwargs, result):
    return {"coeffs": len(result.coeffs), "max_bits": _bits(result.coeffs)}


def _pf_fit_attrs(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    # rows of the accepted system minus its unknowns (r+1)(d+1)
    return {"guard_surplus": f.trunc + 1 - (result.order + 1) * (result.zdeg + 1)}


def _nullspace_attrs(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return {"entries": len(rows) * (len(rows[0]) if rows else 0)}


def _mirror_map_attrs(args, kwargs, result):
    fp = args[0] if args else kwargs["fp"]
    return {"order_in": fp.phi0.trunc}


def _instanton_attrs(args, kwargs, result):
    return {"consumed": len(result)}


def _run_case_attrs(args, kwargs, result):
    return {"case": result.name}


# (module, attribute, span name, attribute extractor).  Each module
# attribute is the name through which one layer calls the next, so a span
# covers exactly the calls that cross that boundary.
WRAPS = [
    ("grasscy.cli", "main", "cli.main", None),
    ("grasscy.cli", "run_case", "pipeline.run_case", _run_case_attrs),
    ("grasscy.cli", "registry_load", "registry.registry_load", None),
    ("grasscy.pipeline", "run_case", "pipeline.run_case", _run_case_attrs),
    ("grasscy.registry", "registry_load", "registry.registry_load", None),
    ("grasscy.pipeline", "a_series", "hypergeom.a_series", _a_series_attrs),
    ("grasscy.hypergeom", "a_series", "hypergeom.a_series", _a_series_attrs),
    ("grasscy.pipeline", "factorial_trick", "hypergeom.factorial_trick", None),
    ("grasscy.pipeline", "pf_fit", "dop.pf_fit", _pf_fit_attrs),
    ("grasscy.dop", "nullspace", "linalg.nullspace", _nullspace_attrs),
    ("grasscy.pipeline", "frobenius", "mirror_analysis.frobenius", None),
    ("grasscy.pipeline", "mirror_map", "mirror_analysis.mirror_map", _mirror_map_attrs),
    ("grasscy.pipeline", "yukawa_z", "mirror_analysis.yukawa_z", None),
    ("grasscy.pipeline", "yukawa_q", "mirror_analysis.yukawa_q", None),
    ("grasscy.pipeline", "extract_instantons", "mirror_analysis.extract_instantons",
     _instanton_attrs),
    ("grasscy.mirror_analysis", "series_revert", "series.series_revert", None),
    ("grasscy.mirror_analysis", "series_compose", "series.series_compose", None),
    ("grasscy.series", "series_compose", "series.series_compose", None),
    ("grasscy.mirror_analysis", "series_exp", "series.series_exp", None),
    ("grasscy.qh", "scalar_operator", "qh.scalar_operator", None),
    ("grasscy.qh", "build_qh_matrix", "qh.build_qh_matrix", None),
    ("grasscy.qh", "verify_conjecture", "qh.verify_conjecture", None),
    ("grasscy.laurent", "laurent_pow_ct", "laurent.laurent_pow_ct", None),
    ("grasscy.laxmirror", "period_ct", "laxmirror.period_ct", None),
    ("grasscy.laxmirror", "lax_operator", "laxmirror.lax_operator", None),
    ("grasscy.toric", "facets_and_reflexivity", "toric.facets_and_reflexivity", None),
    ("grasscy.toric", "build_delta", "toric.build_delta", None),
]


class Tracer:
    """Records spans of one traced operation.

    A span opened in a thread with no open span of its own (a worker of
    the `verify-all` thread pool) takes as parent the innermost open span
    of the thread that installed the tracer, which is blocked waiting for
    the workers.
    """

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.missing: list[list[str]] = []  # [module.attribute, span name]
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._restore: list[tuple] = []

    def open(self, name: str) -> dict:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            span = {"id": len(self.spans), "name": name, "parent": parent, "op": self.op_id,
                    "thread": tid, "start": 0.0, "end": 0.0, "cpu_s": 0.0, "attrs": {}}
            self.spans.append(span)
            stack.append(span["id"])
        span["cpu_s"] = time.thread_time()
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu_s"] = time.thread_time() - span["cpu_s"]
        with self._lock:
            self._stacks[threading.get_ident()].pop()

    def span(self, name: str, fn, attrs=None):
        """Wrap `fn` so that every call records a span called `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self, wraps=WRAPS) -> None:
        for module, attr, name, attrs in wraps:
            try:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.missing.append([f"{module}.{attr}", name])
                continue
            setattr(mod, attr, self.span(name, fn, attrs))
            self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the length of the union of its children's
    intervals, clipped to the span.  Children may overlap in time when they
    run in different threads; each instant is subtracted once."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, reach = 0.0, lo
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out


# Per-layer metric name -> (unit, span name it is computed from).
SELF_S = [
    "cli.main", "hypergeom.a_series", "hypergeom.factorial_trick", "dop.pf_fit",
    "linalg.nullspace", "mirror_analysis.frobenius", "mirror_analysis.mirror_map",
    "mirror_analysis.yukawa_z", "mirror_analysis.yukawa_q",
    "mirror_analysis.extract_instantons", "series.series_revert", "series.series_compose",
    "series.series_exp", "qh.scalar_operator", "qh.build_qh_matrix", "qh.verify_conjecture",
    "laurent.laurent_pow_ct", "laxmirror.period_ct", "laxmirror.lax_operator",
    "toric.facets_and_reflexivity", "toric.build_delta", "registry.registry_load",
]

METRICS: dict[str, tuple[str, str]] = {f"{n}.self_s": ("s", n) for n in SELF_S}
METRICS.update({
    "pipeline.run_case.busy_s": ("s", "pipeline.run_case"),
    "pipeline.run_case.wait_s": ("s", "pipeline.run_case"),
    **{f"pipeline.run_case.wall_s.{c}": ("s", "pipeline.run_case") for c in CASES},
    "hypergeom.a_series.calls": ("count", "hypergeom.a_series"),
    "hypergeom.a_series.coeffs": ("count", "hypergeom.a_series"),
    "hypergeom.a_series.max_bits": ("bits", "hypergeom.a_series"),
    "dop.pf_fit.calls": ("count", "dop.pf_fit"),
    "dop.pf_fit.guard_surplus": ("count", "dop.pf_fit"),
    "dop.pf_fit.useful_ratio": ("ratio", "linalg.nullspace"),
    "linalg.nullspace.calls": ("count", "linalg.nullspace"),
    "linalg.nullspace.entries": ("count", "linalg.nullspace"),
    "series.series_compose.calls": ("count", "series.series_compose"),
    "mirror_analysis.mirror_map.order_in": ("count", "mirror_analysis.mirror_map"),
    "mirror_analysis.truncation_used_ratio": ("ratio", "mirror_analysis.mirror_map"),
    **{f"stage.{c}.{st}.self_s": ("s", "pipeline.run_case") for c in CASES for st in STAGES},
})
OVERHEAD = "trace.overhead_ratio"


def _ratio(num: float, den: float) -> float:
    # a layer the workload never calls reads 0, with its call count 0 beside it
    return num / den if den else 0.0


def op_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    out = {f"{n}.self_s": sum((selfs[s["id"]] for s in by_name[n]), 0.0) for n in SELF_S}

    runs = by_name["pipeline.run_case"]
    out["pipeline.run_case.busy_s"] = sum((s["cpu_s"] for s in runs), 0.0)
    out["pipeline.run_case.wait_s"] = sum((s["end"] - s["start"] - s["cpu_s"] for s in runs), 0.0)
    case_of = {s["id"]: s["attrs"].get("case") for s in runs}
    for c in CASES:
        out[f"pipeline.run_case.wall_s.{c}"] = sum(
            (s["end"] - s["start"] for s in runs if case_of[s["id"]] == c), 0.0)

    aser = by_name["hypergeom.a_series"]
    out["hypergeom.a_series.calls"] = len(aser)
    out["hypergeom.a_series.coeffs"] = sum(s["attrs"].get("coeffs", 0) for s in aser)
    out["hypergeom.a_series.max_bits"] = max(
        (s["attrs"].get("max_bits", 0) for s in aser), default=0)

    fits, nulls = by_name["dop.pf_fit"], by_name["linalg.nullspace"]
    out["dop.pf_fit.calls"] = len(fits)
    # the weakest certificate of the operation
    out["dop.pf_fit.guard_surplus"] = min(
        (s["attrs"]["guard_surplus"] for s in fits if "guard_surplus" in s["attrs"]), default=0)
    out["dop.pf_fit.useful_ratio"] = _ratio(len(fits), len(nulls))
    out["linalg.nullspace.calls"] = len(nulls)
    out["linalg.nullspace.entries"] = sum(s["attrs"].get("entries", 0) for s in nulls)
    out["series.series_compose.calls"] = len(by_name["series.series_compose"])

    order_in = sum(s["attrs"].get("order_in", 0) for s in by_name["mirror_analysis.mirror_map"])
    consumed = sum(s["attrs"].get("consumed", 0)
                   for s in by_name["mirror_analysis.extract_instantons"])
    out["mirror_analysis.mirror_map.order_in"] = order_in
    out["mirror_analysis.truncation_used_ratio"] = _ratio(consumed, order_in)

    # stage.<case>.<stage>: thread CPU time of the outermost stage spans
    # under each case's run_case.  It includes the stage's kernels (pf_fit
    # its nullspace calls, mirror_map its series_revert/series_compose), so
    # the figures add up to the case's work, and drops the time a pool
    # worker waits for the GIL.  A stage called inside another counts
    # toward the outer one.
    by_id = {s["id"]: s for s in spans}
    stage_span = {"hypergeom.a_series": "a_series", "dop.pf_fit": "pf_fit",
                  "mirror_analysis.frobenius": "frobenius",
                  "mirror_analysis.mirror_map": "mirror_map"}

    def case_above(s):
        """The case of the run_case span above s, or None when another
        stage span comes first."""
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["id"] in case_of:
                return case_of[s["id"]]
            if s["name"] in stage_span:
                return None
        return None

    for c in CASES:
        for st in STAGES:
            out[f"stage.{c}.{st}.self_s"] = 0.0
    for s in spans:
        st = stage_span.get(s["name"])
        c = case_above(s) if st else None
        if c in CASES:
            out[f"stage.{c}.{st}.self_s"] += s["cpu_s"]
    return out


def run_metrics(per_op: list[dict[str, float]], missing_spans: set[str],
                pairs: list[tuple[float, float]]) -> dict:
    """Median over traced operations of every per-layer metric, as
    {"value", "unit"} entries.  A metric whose span name could not be wrapped
    everywhere has value None: it is missing, not zero.  `pairs` holds the
    (traced, untraced) wall times of adjacent operations; the overhead is the
    median of their ratios, which cancels drift in machine speed slower than
    one pair."""
    out = {}
    for metric, (unit, span) in METRICS.items():
        if span in missing_spans or not per_op:
            value = None
        else:
            value = statistics.median(op[metric] for op in per_op)
        out[metric] = {"value": value, "unit": unit}
    overhead = statistics.median(t / u for t, u in pairs) - 1 if pairs else None
    out[OVERHEAD] = {"value": overhead, "unit": "ratio"}
    return out
