"""Homogeneous distances, their gauges and the harnesses that check them.

A homogeneous distance is d(p, q) = N(p^(-1) q), with N the dilation
gauge of a unit ball (see `ball`).  The gauge
N(x) = inf{mu > 0 : mu^(-A) x in B} is the maximum of per-level terms,
since membership along mu is monotone for a dilation-convex ball and a
layered ball is the intersection of its cap and its quotient ball.  A
level on which A acts conformally has a closed form, (|R x| / c)^(1/t),
evaluated in log space; any other level is solved by a safeguarded
Illinois iteration along log mu.  On top of the gauge sit the maximum
over maps and the supremum over dilations that `decompose.realify`
uses, biLipschitz constants, the sampled axiom harness, the planar
sup-norm ball certificate and sphere sampling.  All evaluation paths are
vectorized over batches of points.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ball import (
    Ball,
    NumericFailure,
    PolyBall,
    _by_blocks,
    _independent_rows,
    _ray_radii,
    ball_to_json,
)
from .exact import to_float
from .group import AlgebraView
from .spectral import DilationAction, _dilation_factor

__all__ = [
    "MetricFunction",
    "HomogeneousDistance",
    "GaugeRecord",
    "MaxOverMaps",
    "SupOverDilations",
    "averaged_distance",
    "bilipschitz_constants",
    "verify_axioms",
    "box_ball_certificate",
    "sphere_polyline",
    "AxiomReport",
]


class MetricFunction:
    """Batched distance protocol: pair(P, Q) -> per-row distances.

    `pair` does the work for every distance.  It takes rows of dim
    entries, broadcasts a one-row P or Q against the other, then runs
    blocks of max(1, block // stack_factor) rows through `_pair_block`,
    so a call holds its output and one block's temporaries whatever its
    batch.  `block` is the rows of one block of the group law
    (`GroupOps.block`; a composite reads its base's), and stack_factor
    the internal rows of dim floats that one row of a block costs.
    """

    dim: int
    block: int
    stack_factor: int = 1

    def pair(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        P, Q = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (P, Q))
        if P.shape[1:] != (self.dim,) or Q.shape[1:] != (self.dim,):
            raise ValueError(f"pair takes rows of {self.dim} entries, not {P.shape} and {Q.shape}")
        if P.shape[0] != Q.shape[0]:
            P, Q = np.broadcast_arrays(P, Q)  # the rows only: the widths agree
        return _by_blocks(self._pair_block, max(1, self.block // self.stack_factor), P, Q)

    def pair_chunked(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """`pair`, which runs over blocks itself."""
        return self.pair(P, Q)

    def point(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return self.pair(np.zeros((1, X.shape[1])), X)

    def __call__(self, p, q) -> float:
        return float(self.pair(p, q)[0])


@dataclass(frozen=True)
class GaugeRecord:
    """What one gauge or pair call did.  Rows are answered in closed form
    unless some level of the ball needs the solver; a pass is one batched
    excess evaluation over the rows still open.  A call that runs over
    several blocks reports one record, each count summed over its blocks."""

    closed_rows: int = 0
    solved_rows: int = 0
    bracket_passes: int = 0  # passes spent finding a sign bracket
    solve_passes: int = 0  # Illinois or bisection passes inside the brackets
    row_evals: int = 0  # rows summed over all passes
    bisections: int = 0  # row steps taken as bisection by the safeguard


# relative tolerance of the construction-time checks that a level of the
# ball is invariant and conformal, so that its gauge has a closed form
_CONFORMAL_RTOL = 1e-12
# per row, log N above this overflows to inf
_LOG_MAX = math.log(np.finfo(float).max)


def _near(X, Y, scale) -> bool:
    return float(np.linalg.norm(X - Y)) <= _CONFORMAL_RTOL * float(scale)


def _norm_size(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """|R x| per row of X, the 2-norm scaled by the largest entry so that it
    cannot underflow."""
    Y = X @ R.T
    size = np.abs(Y).max(axis=1)
    return size * np.linalg.norm(Y / np.where(size > 0, size, 1.0)[:, None], axis=1)


def _gauge_terms(ball, A: np.ndarray):
    """Split the gauge of ball for the derivation A into per-level terms
    whose maximum is N.

    The ball is the intersection of the levels of its flat form (see
    `ball.Ball`), {|W_i x| <= c_i} and the base {W_b x in base}, each an
    up-set in mu, so N is the maximum of the levels' gauges when A induces
    a map on every level's coordinates: W_i A = M W_i, read off as
    M = W_i A W_i^+.  A level has a closed form when M acts on it
    conformally: M + M^T = 2t I for a round level (N = (|W_i x| / c_i)^(1/t)),
    M = t I for the base (N = max_j |r_j . W_b x|^(1/t)); any other level
    is solved on its own, for M.  If some level is not invariant under A,
    or the ball is one level that is not closed, the whole ball is solved,
    for A.  Returns (closed, solved): closed terms (size, t) mean
    N = size(x)^(1/t), with size the scaled 2-norm of R x for a round level
    and the support function of the mapped rows for the base; solved terms
    (ball, A, P) go to the Illinois solver on the coordinates P x.
    """
    whole = [], [(ball, A, np.eye(A.shape[0]))]
    W, starts, caps, base = ball.W, ball.starts, ball.caps, ball.base
    levels = [(W[lo:hi], c) for lo, hi, c in zip(starts, starts[1:], caps)]
    if base is not None:
        levels.append((W[starts[-1] :], base))
    scale = np.linalg.norm(A)
    closed, solved = [], []
    for Wi, c in levels:
        M = Wi @ A @ np.linalg.pinv(Wi)
        if not _near(Wi @ A, M @ Wi, scale * np.linalg.norm(Wi)):
            return whole
        k = M.shape[0]
        t = float(np.trace(M)) / k
        if c is base:
            if _near(M, t * np.eye(k), np.linalg.norm(M)):
                closed.append((PolyBall(base.rows @ Wi).support, t))
            else:
                solved.append((base, M, Wi))
        elif _near(M + M.T, 2.0 * t * np.eye(k), np.linalg.norm(M)):
            closed.append((partial(_norm_size, Wi / c), t))
        else:
            solved.append((Ball(np.eye(k), np.array([0, k]), np.array([c])), M, Wi))
    return whole if len(levels) == 1 and solved else (closed, solved)


def _illinois_log_gauge(ball, action: DilationAction, Y: np.ndarray, logm: np.ndarray, width: float):
    """log N(y) for y = e^logm[i] Y[i] (-inf where Y[i] = 0), the root of
    g(s) = log(1 + ball.excess(e^(-s A) y)) along s = log mu.

    Membership is an up-set in mu, so g changes sign once; the log makes
    g nearly linear in s, with slope about -weight.  Each row is first
    scaled, in log space, by its layer quasi-norm
    |y|_A = max_i |xi_i|^(1/a_i) over the eigen-coordinates xi of A, so the
    search runs near s = 0 at every scale.  A sign bracket is found by
    stepping g/a_min (a_min the smallest weight), the step growing while
    the sign holds.  Inside it a regula falsi step with the Illinois
    weight halving runs, kept at least width/4 from both ends, and a
    bisection follows whenever the bracket is not under half as wide as
    three steps before.  It stops when every bracket is at most width
    wide and returns the secant root of the last bracket.

    Returns (log N, counts) with counts a Counter of GaugeRecord fields.
    """
    counts = Counter()
    xi = Y @ action.Prinv.T
    with np.errstate(divide="ignore"):
        parts = [(logm[:, None] + np.log(np.abs(xi[:, action.real_idx]))) / action.real_a]
        if action.pair_idx.size:
            r = np.hypot(xi[:, action.pair_idx], xi[:, action.pair_idx + 1])
            parts.append((logm[:, None] + np.log(r)) / action.pair_a)
    s0 = np.hstack(parts).max(axis=1)
    out = np.full(Y.shape[0], -np.inf)
    live = np.flatnonzero(np.isfinite(s0))
    if live.size == 0:
        return out, counts
    Z = action._dilate(-s0[live], Y[live], logm[live])  # |z|_A = 1
    a_min = action.min_weight

    def g(rows, s):
        counts["row_evals"] += rows.size
        with np.errstate(divide="ignore"):
            return np.log1p(ball.excess(action.apply(np.exp(-s), Z[rows])))

    k = live.size
    s = np.zeros(k)
    gs = g(np.arange(k), s)
    counts["bracket_passes"] += 1
    lo, glo = np.full(k, np.nan), np.full(k, np.nan)  # g > 0: outside B
    hi, ghi = np.full(k, np.nan), np.full(k, np.nan)  # g <= 0: inside B
    grow = np.full(k, 1.25)
    rows = np.arange(k)
    for _ in range(64):
        up = gs[rows] > 0
        lo[rows[up]], glo[rows[up]] = s[rows[up]], gs[rows[up]]
        hi[rows[~up]], ghi[rows[~up]] = s[rows[~up]], gs[rows[~up]]
        rows = np.flatnonzero(np.isnan(lo) | np.isnan(hi))
        if rows.size == 0:
            break
        # outside steps up in s, inside down, by at least width
        step = np.clip(grow[rows] * np.abs(gs[rows]) / a_min, width * grow[rows], 16.0)
        s[rows] += np.where(gs[rows] > 0, step, -step)
        gs[rows] = g(rows, s[rows])
        counts["bracket_passes"] += 1
        grow[rows] *= 2.0
    else:
        raise NumericFailure("gauge bracket search exhausted its budget; is the ball bounded?")

    wlo, whi = glo.copy(), ghi.copy()  # end values with the Illinois halving
    moved = np.zeros(k, dtype=np.int8)  # +1: lo moved last, -1: hi moved last
    bisect = np.zeros(k, dtype=bool)
    # widths of the last three steps: the Illinois halving needs two steps
    # to pull the far end in, so judging each step alone would bisect
    # away its gain
    past = [np.full(k, np.inf), np.full(k, np.inf), hi - lo]
    for _ in range(256):
        rows = np.flatnonzero(hi - lo > width)
        if rows.size == 0:
            break
        a, b = lo[rows], hi[rows]
        c = np.where(
            bisect[rows], 0.5 * (a + b), (a * whi[rows] - b * wlo[rows]) / (whi[rows] - wlo[rows])
        )
        c = np.clip(c, a + width / 4, b - width / 4)
        counts["bisections"] += int(bisect[rows].sum())
        gc = g(rows, c)
        counts["solve_passes"] += 1
        up = gc > 0
        r_up, r_dn = rows[up], rows[~up]
        lo[r_up], glo[r_up], wlo[r_up] = c[up], gc[up], gc[up]
        whi[r_up[moved[r_up] == 1]] *= 0.5
        moved[r_up] = 1
        hi[r_dn], ghi[r_dn], whi[r_dn] = c[~up], gc[~up], gc[~up]
        wlo[r_dn[moved[r_dn] == -1]] *= 0.5
        moved[r_dn] = -1
        bisect = hi - lo > 0.5 * past[0]
        past = past[1:] + [hi - lo]
    else:
        raise NumericFailure("gauge solve exhausted its budget of 256 passes")
    out[live] = s0[live] + (lo * ghi - hi * glo) / (ghi - glo)
    return out, counts


class HomogeneousDistance(MetricFunction):
    """d(p, q) = N(p^(-1) q) with N the dilation gauge of the unit ball.

    The ball is split into per-level gauge terms once, here; after each
    gauge or pair call, `gauge_record` says how its rows were answered.
    A block of `pair` is one product and one gauge call.
    """

    # the solver's final bracket in log mu: as wide as a geometric
    # bisection to a relative tolerance of 1e-10 would leave it
    width = math.log(2.0) * 2.0 ** -(math.ceil(math.log2(math.log(2.0) / 1e-10)) + 2)

    def __init__(self, view: AlgebraView, A, ball):
        self.view = view
        self.A = to_float(A)
        self.ball = ball
        self.ops = view.ops()
        self.action = DilationAction(self.A)
        self.dim = view.dim
        if self.action.min_weight <= 0:
            raise ValueError("a dilation gauge needs every eigenvalue of A in Re > 0")
        base, top = ball.base, ball.starts[-1]
        # an inverse of W proves the ball bounded; otherwise its round rows
        # and the base's rows, read on x, must span R^n
        if ball.F is None or base is not None:
            rows = ball.W[:top] if base is None else np.vstack([ball.W[:top], base.rows @ ball.W[top:]])
            rank = len(_independent_rows(rows))
            if rank < self.dim:
                raise ValueError(f"the ball's rows have rank {rank} < {self.dim}; the ball is unbounded")
        # a plane polytope answers from three hull vertices per row; any
        # other holds R / dim floats per row of input for its R rows
        if base is not None and self.dim != 2:
            self.stack_factor = -(-base.rows.shape[0] // self.dim)
        self._closed, solved = _gauge_terms(ball, self.A)
        self._solved = [
            (b, self.action if A_level is self.A else DilationAction(A_level), P)
            for b, A_level, P in solved
        ]
        self._counts = Counter()  # the last call's GaugeRecord fields, reset per call

    block = property(lambda self: self.ops.block)

    @property
    def gauge_record(self) -> GaugeRecord:
        """What the last gauge or pair call did."""
        return GaugeRecord(**self._counts)

    def gauge(self, X: np.ndarray) -> np.ndarray:
        """N(x) = inf{mu > 0 : mu^(-A) x in B}, as the maximum of its
        per-level terms (see `_gauge_terms`), over the blocks of `pair`.

        Closed-form terms are evaluated in log space, each row scaled by
        its largest entry, so they hold at every representable scale; the
        other levels go to `_illinois_log_gauge`.  Raises OverflowError
        where N itself exceeds the float range.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self._counts.clear()
        return _by_blocks(self._gauge_block, max(1, self.block // self.stack_factor), X)

    def _gauge_block(self, X: np.ndarray) -> np.ndarray:
        # one row is evaluated as two equal rows: a one-row matrix product
        # takes BLAS's matrix-vector path, which rounds differently from a
        # batch's rows; the record counts the one row
        copies = 2 if X.shape[0] == 1 else 1
        if copies == 2:
            X = np.vstack([X, X])
        m = np.abs(X).max(axis=1)
        if not np.all(np.isfinite(m)):
            raise ValueError("gauge input has a non-finite entry")
        live = m > 0
        Xn = X[live] / m[live, None]
        logm = np.log(m[live])
        logN = np.full(Xn.shape[0], -np.inf)
        with np.errstate(divide="ignore"):
            for size, t in self._closed:
                logN = np.maximum(logN, (logm + np.log(size(Xn))) / t)
        counts = self._counts
        solved = np.zeros(Xn.shape[0], dtype=bool)
        for ball, action, P in self._solved:
            term, c = _illinois_log_gauge(ball, action, Xn @ P.T, logm, self.width)
            logN = np.maximum(logN, term)
            solved |= np.isfinite(term)
            for f in ("row_evals", "bisections"):
                c[f] //= copies  # the two equal rows count alike
            counts.update(c)
        nsolved = int(np.count_nonzero(solved))
        counts["closed_rows"] += (X.shape[0] - nsolved) // copies
        counts["solved_rows"] += nsolved // copies
        if np.any(logN > _LOG_MAX):
            raise OverflowError("gauge value exceeds the float range")
        out = np.zeros(X.shape[0])
        out[live] = np.exp(logN)
        return out[:1] if copies == 2 else out

    def pair(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        self._counts.clear()
        return super().pair(P, Q)

    def _pair_block(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return self._gauge_block(self.ops.product(-P, Q))

    def point(self, X: np.ndarray) -> np.ndarray:
        return self.gauge(np.atleast_2d(X))

    def to_json(self) -> dict:
        return {"A": self.A.tolist(), "ball": ball_to_json(self.ball)}


class MaxOverMaps(MetricFunction):
    """d'(x, y) = max_k d(k x, k y) over a finite family of automorphisms."""

    def __init__(self, base: MetricFunction, mats: list[np.ndarray]):
        self.base = base
        self.dim = base.dim
        self.mats = np.asarray(mats, dtype=float).reshape(-1, self.dim, self.dim)
        if not any(np.allclose(M, np.eye(self.dim)) for M in self.mats):
            self.mats = np.concatenate([np.eye(self.dim)[None], self.mats])
        self.stack_factor = base.stack_factor * len(self.mats)

    block = property(lambda self: self.base.block)

    def _pair_block(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        m, n = P.shape
        # every map of P and Q in one stacked product, so that one pair is
        # two rows: a one-row matrix product takes BLAS's matrix-vector
        # path, which rounds differently from a batch's rows
        mapped = np.vstack([P, Q]) @ self.mats.transpose(0, 2, 1)
        stackP, stackQ = mapped[:, :m].reshape(-1, n), mapped[:, m:].reshape(-1, n)
        vals = self.base.pair(stackP, stackQ).reshape(len(self.mats), m)
        return vals.max(axis=0)


class SupOverDilations(MetricFunction):
    """d''(x, y) = max over a geometric mu-grid of d(mu^A x, mu^A y) / mu."""

    def __init__(self, base: MetricFunction, A, lam: float, grid: int = 48):
        lam = _dilation_factor(lam, expanding=True)
        self.base = base
        self.A = to_float(A)
        self.lam = lam
        self.action = DilationAction(self.A)
        # geometric grid on [1, lam); mu = lam wraps to mu = 1 exactly
        self.mus = np.geomspace(1.0, lam, grid, endpoint=False)
        self.dim = base.dim
        self.stack_factor = base.stack_factor * grid

    block = property(lambda self: self.base.block)

    def _pair_block(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        m = P.shape[0]
        g = len(self.mus)
        mus_rep = np.repeat(self.mus, m)
        stackP = self.action.apply(mus_rep, np.tile(P, (g, 1)))
        stackQ = self.action.apply(mus_rep, np.tile(Q, (g, 1)))
        vals = self.base.pair(stackP, stackQ) / mus_rep
        return vals.reshape(g, m).max(axis=0)


def averaged_distance(d: MetricFunction, K_samples: list[np.ndarray]) -> MetricFunction:
    """Left-invariant distance max_k d(kx, ky) over sampled linear
    automorphisms k, always including the identity.

    `realify` passes the products mu_j^(A' - A_d) K_k of its dilation
    grid and closure samples, so that this one maximum is also its
    supremum over dilations.  Maps equal to 12 decimals count once; when
    only the identity is left, the result is d itself.  When d is the
    gauge distance of a polytope ball (a flat form with no round level)
    and every map commutes with its derivation, the maximum collapses
    exactly to the gauge of the intersection of the mapped polytopes: one
    gauge per row instead of one per map.  Zero rows, and rows that repeat up to sign, drop at 12
    decimals of the largest row norm, so the intersection is the same
    at every scale of the ball.
    """
    n = d.dim
    stack = np.concatenate([np.eye(n)[None], np.asarray(K_samples, dtype=float).reshape(-1, n, n)])
    _, keep = np.unique(np.round(stack, 12).reshape(len(stack), -1), axis=0, return_index=True)
    mats = stack[np.sort(keep)]
    if len(mats) == 1:
        return d
    if (
        isinstance(d, HomogeneousDistance)
        and d.ball.caps.size == 0
        and np.all(
            np.linalg.norm(mats @ d.A - d.A @ mats, 2, axis=(1, 2))
            <= 1e-9 * max(1.0, np.linalg.norm(d.A, 2))
        )
    ):
        rows = (d.ball.base.rows @ d.ball.W @ mats).reshape(-1, n)
        # |r.x| <= 1 is sign-symmetric, so antipodal rows are duplicates
        canon = rows / np.linalg.norm(rows, axis=1).max()
        nz = np.abs(canon) > 1e-12
        live = nz.any(axis=1)
        rows, canon, nz = rows[live], canon[live], nz[live]
        canon *= np.sign(canon[np.arange(len(canon)), np.argmax(nz, axis=1)])[:, None]
        _, keep = np.unique(np.round(canon, 12), axis=0, return_index=True)
        return HomogeneousDistance(d.view, d.A, PolyBall(rows[np.sort(keep)]))
    return MaxOverMaps(d, mats)


def _exponent_floor(ratio: float, lam: float, rtol: float = 1e-9) -> int:
    """floor(-log_lam ratio), except that a ratio within rtol of a power
    of lam counts as that power (the slack the validation step allows),
    so an exact ratio lam^j one ulp high does not move the exponent."""
    v = -math.log(ratio, lam)
    j = round(v)
    return j if abs(v - j) <= math.log1p(rtol) / math.log(lam) else math.floor(v)


def bilipschitz_constants(
    d1: MetricFunction,
    d2: MetricFunction,
    delta,
    lam: float,
    *,
    samples: int = 10**4,
    seed: int = 0,
    dilation_tol: float = 1e-6,
):
    """Two-sided comparison constants for distances sharing the dilation
    delta of factor lam > 1.

    Finds the integer k with delta^k B_1 inside B_2 from sampled gauge
    ratios, returns L2 = lam^(1-k) (and symmetrically L1), and validates
    d2 <= L2 d1 pointwise on a fresh sample.  Points are normal with
    standard deviation 2.
    """
    lam = _dilation_factor(lam, expanding=True)
    rng = np.random.default_rng(seed)
    Df = to_float(delta)
    n = Df.shape[0]
    X = rng.normal(size=(samples, n)) * 2.0
    Y = rng.normal(size=(samples, n)) * 2.0
    r1 = d1.pair(X, Y)
    r2 = d2.pair(X, Y)
    s1 = d1.pair(X @ Df.T, Y @ Df.T)
    s2 = d2.pair(X @ Df.T, Y @ Df.T)
    def1 = float(np.max(np.abs(s1 / r1 - lam)) / lam)
    def2 = float(np.max(np.abs(s2 / r2 - lam)) / lam)
    if def1 > dilation_tol or def2 > dilation_tol:
        raise ValueError(
            f"delta is not a common dilation of factor {lam:g}: relative "
            f"defects {def1:.2e}, {def2:.2e} exceed {dilation_tol:g}"
        )
    ratios21 = r2 / r1
    ratios12 = r1 / r2
    k2 = _exponent_floor(float(ratios21.max()), lam)
    k1 = _exponent_floor(float(ratios12.max()), lam)
    L2 = lam ** (1 - k2)
    L1 = lam ** (1 - k1)
    # fresh validation sample
    Xv = rng.normal(size=(samples, n)) * 2.0
    Yv = rng.normal(size=(samples, n)) * 2.0
    v1 = d1.pair(Xv, Yv)
    v2 = d2.pair(Xv, Yv)
    ok = bool(np.all(v2 <= L2 * v1 * (1 + 1e-9)) and np.all(v1 <= L1 * v2 * (1 + 1e-9)))
    info = {
        "L1": float(L1),
        "L2": float(L2),
        "k1": k1,
        "k2": k2,
        "max_ratio_d2_over_d1": float(ratios21.max()),
        "max_ratio_d1_over_d2": float(ratios12.max()),
        "validated": ok,
        "dilation_defects": (def1, def2),
    }
    if not ok:
        raise NumericFailure(f"bilipschitz validation failed: {info}")
    return L1, L2, info


@dataclass
class AxiomReport:
    samples: int
    symmetry: float
    positivity_min: float
    triangle_excess: float
    left_invariance: float
    homogeneity: float | None

    @property
    def ok(self) -> bool:
        checks = [
            self.symmetry <= 1e-8,
            self.positivity_min > 0,
            self.triangle_excess <= 1e-8,
            self.left_invariance <= 1e-8,
        ]
        if self.homogeneity is not None:
            checks.append(self.homogeneity <= 1e-6)
        return all(checks)


def verify_axioms(
    d: MetricFunction,
    view: AlgebraView | None = None,
    A=None,
    samples: int = 10**5,
    seed: int = 0,
) -> AxiomReport:
    """Sampled metric-axiom harness: symmetry, positivity away from the
    diagonal, triangle inequality, left-invariance, and (when A is
    given) dilation homogeneity, on points uniform in [-1.5, 1.5]^n.
    Residuals are worst cases over the sample; triangle excess is
    absolute, the rest relative.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    n = d.dim
    X = rng.uniform(-1.5, 1.5, size=(samples, n))
    Y = rng.uniform(-1.5, 1.5, size=(samples, n))
    Z = rng.uniform(-1.5, 1.5, size=(samples, n))
    dxy = d.pair(X, Y)
    dyx = d.pair(Y, X)
    symmetry = float(np.max(np.abs(dxy - dyx) / np.maximum(dxy, 1e-300)))
    sep = np.abs(X - Y).max(axis=1) >= 1e-3
    positivity = float(dxy[sep].min()) if np.any(sep) else float("inf")
    dxz = d.pair(X, Z)
    dyz = d.pair(Y, Z)
    triangle = float(np.max(dxz - (dxy + dyz)))
    if view is not None:
        ops = view.ops()
        dz = d.pair(ops.product(Z, X), ops.product(Z, Y))
        left = float(np.max(np.abs(dz - dxy) / np.maximum(dxy, 1e-300)))
    else:
        left = 0.0
    homog = None
    if A is not None:
        action = DilationAction(to_float(A))
        lam = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=samples))
        dl = d.pair(action.apply(lam, X), action.apply(lam, Y))
        homog = float(np.max(np.abs(dl - lam * dxy) / np.maximum(lam * dxy, 1e-300)))
    return AxiomReport(samples, symmetry, positivity, triangle, left, homog)


# ---------------------------------------------------------------------------
# The planar sup-norm ball certificate
# ---------------------------------------------------------------------------


def box_ball_certificate(grid: int = 10**5) -> dict:
    """Grid certificate that the sup-norm square is dilation-convex for
    the planar spiral generator with eigenvalues 2 +- i.

    Checks f(t) <= 1 + 1e-12 on a grid of (0,1), the symmetry
    f(t) = f(1-t), and the convexity route h(1/2) <= 1, h(1) <= 1,
    h'' >= 2 on [1/2, 1).
    """
    t = np.linspace(0.0, 1.0, grid + 2)[1:-1]

    def wave(u):
        return np.abs(np.cos(np.log(u))) + np.abs(np.sin(np.log(u)))

    f = t**2 * wave(t) + (1 - t) ** 2 * wave(1 - t)
    max_f = float(f.max())
    sym = float(np.max(np.abs(f - f[::-1])))

    th = t[(t >= 0.5) & (t < 1.0)]
    h = th**2 * wave(th) + 2 * (1 - th) ** 2
    h_half = float(0.25 * wave(np.array([0.5]))[0] + 0.5)
    h_one = 1.0
    h2 = -2 * np.cos(np.log(th)) - 4 * np.sin(np.log(th)) + 4
    report = {
        "grid": grid,
        "max_f": max_f,
        "f_bound_ok": bool(max_f <= 1 + 1e-12),
        "symmetry_defect": sym,
        "h_half": h_half,
        "h_one": h_one,
        "h_max_on_half_one": float(h.max()),
        "h2_min": float(h2.min()),
        "h2_ok": bool(np.all(h2 >= 2.0)),
        "ok": bool(
            max_f <= 1 + 1e-12
            and sym <= 1e-12
            and h_half <= 1
            and h_one <= 1
            and np.all(h2 >= 2.0)
        ),
    }
    return report


# ---------------------------------------------------------------------------
# Sphere rendering support
# ---------------------------------------------------------------------------


def sphere_polyline(
    d: HomogeneousDistance,
    resolution: int = 360,
    plane: tuple[int, int] = (0, 1),
):
    """Polar sweep of the unit sphere {N = 1} in a coordinate plane.

    Returns (angles, points, residuals): per angle, the radius along the
    ray is the closed-form ball extent 1 / (1 + excess(u)) and the
    residual is |N(r u) - 1|.
    """
    i, j = plane
    angles = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    U = np.zeros((resolution, d.dim))
    U[:, i], U[:, j] = np.cos(angles), np.sin(angles)
    pts = _ray_radii(d.ball, U)[:, None] * U
    residuals = np.abs(d.gauge(pts) - 1.0)
    return angles, pts, residuals
