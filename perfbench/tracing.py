"""Span tracing from outside the library.

Each public function of a layer is wrapped by rebinding the name where
its caller looks it up (a module attribute or a class attribute), so the
library code is untouched.  A span records its name, parent, start, end
and row count; spans are kept in memory and reduced to per-layer self
times and counts once the traced rounds end.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from nilmetric import decompose, grading, group, metric

# Per-layer metrics, in the order BENCHMARK.json lists them.  Times are
# seconds of self time per round, counts are per round.
LAYER_METRICS = (
    ("group.product_s", "s"),
    ("group.product_calls", "count"),
    ("group.product_rows", "count"),
    ("metric.gauge_s", "s"),
    ("metric.gauge_calls", "count"),
    ("metric.gauge_rows", "count"),
    ("metric.contains_s", "s"),
    ("metric.contains_calls", "count"),
    ("metric.contains_rows", "count"),
    ("metric.passes_per_row", "ratio"),
    ("metric.dilation_apply_s", "s"),
    ("metric.dilation_apply_calls", "count"),
    ("metric.dilation_apply_rows", "count"),
    ("metric.tuned_norm_s", "s"),
    ("metric.eps_halvings", "count"),
    ("metric.convexity_s", "s"),
    ("metric.convexity_calls", "count"),
    ("metric.cap_doublings", "count"),
    ("metric.sample_in_ball_s", "s"),
    ("metric.build_other_s", "s"),
    ("grading.classify_s", "s"),
    ("decompose.decompose_s", "s"),
    ("decompose.closure_s", "s"),
    ("decompose.closure_mats", "count"),
    ("decompose.closure_torus", "count"),
    ("decompose.bilipschitz_s", "s"),
    ("decompose.realify_other_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _rows(args, at: tuple) -> int:
    """Rows of the widest batch argument (a 1-d argument is one row)."""
    return max((np.shape(args[i])[0] if np.ndim(args[i]) == 2 else 1) for i in at)


# (owner, attribute, span name, indices of the arguments holding rows)
_TARGETS = (
    (group.GroupOps, "product", "group.product", (1, 2)),
    (metric.DilationAction, "apply", "metric.dilation_apply", (2,)),
    (metric.NormBall, "contains", "metric.contains", (1,)),
    (metric.PolyBall, "contains", "metric.contains", (1,)),
    (metric.LayeredBall, "contains", "metric.contains", (1,)),
    (metric.HomogeneousDistance, "gauge", "metric.gauge", (1,)),
    (metric, "tuned_norm", "metric.tuned_norm", ()),
    (metric, "verify_A_convexity", "metric.convexity", ()),
    (metric, "sample_in_ball", "metric.sample_in_ball", ()),
    (metric, "build_ball", "metric.build_ball", ()),
    (grading, "classify_derivation", "grading.classify", ()),
    (decompose, "decompose_automorphism", "decompose.decompose", ()),
    (decompose, "compact_closure_samples", "decompose.closure", ()),
    (decompose, "bilipschitz_constants", "decompose.bilipschitz", ()),
    (decompose, "realify", "decompose.realify", ()),
)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the top
    rows: int
    start: float = 0.0
    end: float = 0.0
    result: object = None  # kept only for the spans reduce() reads


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, fn, name: str, rows_at):
        keep_result = name in ("metric.tuned_norm", "metric.build_ball", "decompose.closure")
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rows = _rows(args, rows_at) if rows_at else 0
            span = Span(name, stack[-1] if stack else -1, rows)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep_result:
                span.result = out
            return out

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, rows_at in _TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, rows_at))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def _layered_levels(ball) -> int:
    levels = 0
    while isinstance(ball, metric.LayeredBall):
        levels += 1
        ball = ball.inner
    return levels


def _enclosing(spans: list, i: int, name: str) -> int:
    """Index of the nearest span named `name` at or above span i, else -1."""
    while i >= 0 and spans[i].name != name:
        i = spans[i].parent
    return i


def reduce(spans: list, rounds: int) -> dict:
    """Per-round self times and counts from a list of finished spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    self_s: dict = {}
    calls: dict = {}
    rows: dict = {}
    gauge_passes = 0
    checks_per_build: dict = {}
    for s, c in zip(spans, child_time):
        self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start) - c
        # a layered ball asking its inner ball is part of the outer
        # membership test, not another pass
        if s.name == "metric.contains" and s.parent >= 0 and spans[s.parent].name == s.name:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        rows[s.name] = rows.get(s.name, 0) + s.rows
        if s.name == "metric.contains" and _enclosing(spans, s.parent, "metric.gauge") >= 0:
            gauge_passes += s.rows
        if s.name == "metric.convexity":
            b = _enclosing(spans, s.parent, "metric.build_ball")
            checks_per_build[b] = checks_per_build.get(b, 0) + 1

    eps_halvings = cap_doublings = closure_mats = closure_torus = 0
    for i, s in enumerate(spans):
        if s.name == "metric.tuned_norm":
            eps_halvings += round(-math.log2(s.result.epsilon))
        elif s.name == "metric.build_ball":
            cap_doublings += checks_per_build.get(i, 0) - _layered_levels(s.result)
        elif s.name == "decompose.closure":
            mats, info = s.result
            closure_mats += len(mats)
            closure_torus += int(info.get("mode") == "torus")

    def t(name):
        return self_s.get(name, 0.0) / rounds

    def n(name, table=calls):
        return table.get(name, 0) / rounds

    gauge_rows = rows.get("metric.gauge", 0)
    return {
        "group.product_s": t("group.product"),
        "group.product_calls": n("group.product"),
        "group.product_rows": n("group.product", rows),
        "metric.gauge_s": t("metric.gauge"),
        "metric.gauge_calls": n("metric.gauge"),
        "metric.gauge_rows": n("metric.gauge", rows),
        "metric.contains_s": t("metric.contains"),
        "metric.contains_calls": n("metric.contains"),
        "metric.contains_rows": n("metric.contains", rows),
        "metric.passes_per_row": gauge_passes / gauge_rows if gauge_rows else 0.0,
        "metric.dilation_apply_s": t("metric.dilation_apply"),
        "metric.dilation_apply_calls": n("metric.dilation_apply"),
        "metric.dilation_apply_rows": n("metric.dilation_apply", rows),
        "metric.tuned_norm_s": t("metric.tuned_norm"),
        "metric.eps_halvings": eps_halvings / rounds,
        "metric.convexity_s": t("metric.convexity"),
        "metric.convexity_calls": n("metric.convexity"),
        "metric.cap_doublings": cap_doublings / rounds,
        "metric.sample_in_ball_s": t("metric.sample_in_ball"),
        "metric.build_other_s": t("metric.build_ball"),
        "grading.classify_s": t("grading.classify"),
        "decompose.decompose_s": t("decompose.decompose"),
        "decompose.closure_s": t("decompose.closure"),
        "decompose.closure_mats": closure_mats / rounds,
        "decompose.closure_torus": closure_torus / rounds,
        "decompose.bilipschitz_s": t("decompose.bilipschitz"),
        "decompose.realify_other_s": t("decompose.realify"),
        "trace.spans": len(spans) / rounds,
    }
