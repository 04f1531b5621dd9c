"""Correctness checks.  All of them run outside the timed region.

Each check returns a `Check`: a name, whether it passed, and the numbers
behind the verdict.  `self_test` proves on synthetic data that the
checkers catch what they are meant to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

REFERENCE_RTOL = 1e-8  # frozen reference distances
SYMMETRY_RTOL = 1e-8  # d(p, q) against d(q, p)
SINGLE_RTOL = 1e-9  # single-pair call against the same row of a batch
CLI_RTOL = 1e-10  # CLI prints 12 significant digits
HOMOGENEITY_RTOL = 1e-6  # N(s^A u) against s N(u)


@dataclass
class Check:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)


def _rel_err(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    return np.where(np.isfinite(got), err, np.inf)


def close(name: str, got, want, rtol: float) -> Check:
    """Every value within rtol of its reference (NaN and inf fail)."""
    err = _rel_err(got, want)
    bad = int(np.sum(~(err <= rtol)))
    worst = float(err.max()) if err.size else 0.0
    return Check(name, bad == 0 and err.size > 0, {"rows": int(err.size), "bad": bad, "worst_rel": worst, "rtol": rtol})


@dataclass
class SweepResult:
    """Scale sweep N(s^A u) = s N(u): one gauge call per decade."""

    rows_attempted: int = 0
    rows_failed: int = 0  # rows in calls that raised
    rows_checked: int = 0
    rows_wrong: int = 0  # rows returned but off by more than the tolerance
    unexpected_bad: int = 0  # wrong or failed rows outside the known defect
    decades: list = field(default_factory=list)

    @property
    def wrong_rate(self) -> float:
        return self.rows_wrong / self.rows_checked if self.rows_checked else 0.0

    @property
    def fail_rate(self) -> float:
        return self.rows_failed / self.rows_attempted if self.rows_attempted else 0.0


def scale_sweep(gauge, U: np.ndarray, weights: np.ndarray, exponents, known: tuple, failures: tuple) -> SweepResult:
    """Run gauge on s^A u for s = 10^e, each e in its own call.

    `weights` is the diagonal of A, so s^A u is computed here without the
    library.  A call that raises one of `failures` counts all of its rows
    as failed; any other exception propagates.

    `known = (low, high)` is the defect the library is known to have:
    a call may come back wrong when its smallest expected value s N(u)
    is below `low`, and may raise when its largest is above `high`.
    Wrong or failed rows outside that count as `unexpected_bad`, so the
    sweep is gated on every decade without failing on the known defect.
    """
    low, high = known
    base = gauge(U)
    out = SweepResult()
    for e in exponents:
        s = 10.0 ** e
        want = s * base
        m = U.shape[0]
        out.rows_attempted += m
        try:
            got = gauge(U * s ** weights[None, :])
        except failures as err:
            out.rows_failed += m
            out.unexpected_bad += 0 if want.max() > high else m
            out.decades.append({"exponent": e, "raised": type(err).__name__})
            continue
        err = _rel_err(got, want)
        wrong = int(np.sum(~(err <= HOMOGENEITY_RTOL)))
        out.rows_checked += m
        out.rows_wrong += wrong
        out.unexpected_bad += 0 if want.min() < low else wrong
        out.decades.append({"exponent": e, "wrong": wrong, "worst_rel": float(err.max())})
    return out


def self_test() -> list:
    """The checkers flag a distance scaled by (1 + 1e-6), and the sweep
    counts a raising call as failed and gates what lies outside the known
    defect.  Returns a list of failure messages."""
    problems = []
    rng = np.random.default_rng(7)
    ref = rng.uniform(0.1, 10.0, size=64)
    if not close("exact", ref.copy(), ref, REFERENCE_RTOL).ok:
        problems.append("reference check rejects exact values")
    if close("scaled", ref * (1 + 1e-6), ref, REFERENCE_RTOL).ok:
        problems.append("reference check misses a (1 + 1e-6) scaling")
    if close("nan", np.where(np.arange(64) == 3, np.nan, ref), ref, REFERENCE_RTOL).ok:
        problems.append("reference check misses a NaN")

    weights = np.array([1.0, 1.0, 2.0])
    U = rng.normal(size=(8, 3))

    def homogeneous(X):
        # a 1-homogeneous gauge for weights (1, 1, 2)
        return np.maximum(np.hypot(X[:, 0], X[:, 1]), np.sqrt(np.abs(X[:, 2])))

    def broken(X):
        top = np.abs(X).max()
        if top > 1e50:  # s >= 1e30
            raise OverflowError("synthetic overflow")
        return homogeneous(X) * (1 + 2e-6 * (top < 1e-35))  # s <= 1e-40

    # raising at s >= 1e40 and wrong values at s <= 1e-50 are "known"
    known = (1e-45, 1e35)
    good = scale_sweep(homogeneous, U, weights, range(-60, 61, 10), known, (OverflowError,))
    if good.rows_failed or good.rows_wrong or good.unexpected_bad:
        problems.append(f"sweep flags an exact gauge: {good}")
    bad = scale_sweep(broken, U, weights, range(-60, 61, 10), known, (OverflowError,))
    # exponents 30..60 raise (4 calls), -60..-40 come back wrong (3 calls);
    # e = 30 and e = -40 are outside the known defect
    if bad.rows_failed != 4 * 8 or bad.rows_attempted != 13 * 8:
        problems.append(f"sweep miscounts raising calls: {bad.rows_failed} of {bad.rows_attempted}")
    if bad.rows_wrong != 3 * 8 or bad.unexpected_bad != 2 * 8:
        problems.append(f"sweep misses scaled rows: {bad.rows_wrong} wrong, {bad.unexpected_bad} unexpected")
    return problems
