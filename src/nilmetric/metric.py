"""Construction and evaluation of dilation-homogeneous distances.

The unit ball of a homogeneous distance is characterized by three
properties: compact with the identity interior, symmetric, and closed
under the two-point dilation average (lam^A x) * ((1-lam)^A y).  The
construction here builds such a ball by induction on the number of
grading layers:

  * Abelian algebras get a norm ball for a tuned inner product in which
    the layers are orthogonal and every dilation lam^A with lam <= 1 is
    a contraction by at least lam (an epsilon-scaled eigen-filtration
    basis damps the nilpotent part of A as much as needed);
  * otherwise the top layer is capped, or only its diagonalizable core
    (which contains [g, g]) when the top weight is at most 2, and the
    construction recurses on the quotient by the capped span.  The
    quotient ball is scaled so that the layer norms of its lifted points
    sum to below 1, and the cap is estimated from sampled top-layer parts
    of the group product.

Every built ball is validated by randomized dilation-convexity checks;
the cap is doubled from its sampled estimate until validation passes.
The gauge N(x) = inf{mu > 0 : mu^(-A) x in B} is the maximum of
per-level terms, since membership along mu is monotone for a
dilation-convex ball and a layered ball is the intersection of its cap
and its quotient ball.  A level on which A acts conformally has a closed
form, (|R x| / c)^(1/t), evaluated in log space; any other level is
solved by a safeguarded Illinois iteration along log mu.  All evaluation
paths are vectorized over batches of points.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .exact import to_float
from .group import GroupOps, _block_rows, central_series_basis
from .spectral import DilationAction, lambda_pow

if TYPE_CHECKING:  # the builders import grading when they run
    from .grading import Grading

__all__ = [
    "NumericFailure",
    "BuildRejected",
    "NormBall",
    "PolyBall",
    "LayeredBall",
    "box_ball",
    "dilate_ball",
    "ball_to_json",
    "ball_from_json",
    "AlgebraView",
    "DilationAction",
    "tuned_norm",
    "build_ball",
    "build_distance",
    "HomogeneousDistance",
    "GaugeRecord",
    "MaxOverMaps",
    "SupOverDilations",
    "averaged_distance",
    "bilipschitz_constants",
    "verify_A_convexity",
    "verify_axioms",
    "box_ball_certificate",
    "sphere_polyline",
    "ConvexityReport",
    "AxiomReport",
]


class NumericFailure(RuntimeError):
    """A numerical verification loop exhausted its budget."""


class BuildRejected(ValueError):
    """Ball construction refused because no homogeneous distance exists."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(
            "no homogeneous distance exists for this derivation: "
            + "; ".join(verdict.reasons)
        )


# ---------------------------------------------------------------------------
# Ball variants
#
# Each ball's excess(x) + 1 is its Minkowski functional, positively
# 1-homogeneous in x (excess(r x) + 1 = r (excess(x) + 1) for r >= 0);
# `_ray_radii` reads the ball's extents off it for `sphere_polyline`.
# A ball is a set only: the derivation that dilates it belongs to the
# distance (`HomogeneousDistance.A`) or is passed to `dilate_ball`, so
# one ball can serve more than one derivation.  `sample_in_ball` draws
# uniform points from each variant's own structure: every ball is a
# linear image of a product of round balls (one per cap level and one for
# a NormBall base) and at most one polytope, drawn from the
# parallelepiped of n independent rows.  A LayeredBall keeps that flat
# form (`_sampling_form`: the level dims and caps, the base and one
# composed map), made on its first draw, so a draw is one product.  It
# keeps a flat form for membership too (`_membership_form`: each level's
# map composed down the chain of projections), made on its first test,
# so a test is one product and a norm per level.  Its tests and a
# PolyBall's support run over blocks of rows (`_by_blocks`).
# ---------------------------------------------------------------------------


def _by_blocks(fn, rows: int, *arrays) -> np.ndarray:
    """fn(*blocks) over blocks of `rows` rows of the equally long arrays,
    joined into one 1-d output: a call holds its output and one block's
    temporaries.  A last block of one row joins the block before it, as a
    one-row matrix product takes BLAS's matrix-vector path, which rounds
    differently, and the output would depend on where blocks end."""
    m = arrays[0].shape[0]
    if m <= rows:
        return fn(*arrays)
    starts = list(range(0, m - 1, rows))
    out = None
    for lo, hi in zip(starts, starts[1:] + [m]):
        part = fn(*(a[lo:hi] for a in arrays))
        if out is None:
            out = np.empty(m, dtype=part.dtype)
        out[lo:hi] = part
    return out


class NormBall:
    """{x : x^T gram x <= 1} for a symmetric positive definite gram;
    excess(x) + 1 = sqrt(x^T gram x)."""

    kind = "norm"

    def __init__(self, gram: np.ndarray):
        self.gram = np.asarray(gram, dtype=float)
        self.dim = self.gram.shape[0]

    def contains(self, X: np.ndarray, slack: float = 0.0) -> np.ndarray:
        X = np.atleast_2d(X)
        q = np.einsum("mi,ij,mj->m", X, self.gram, X)
        return q <= (1.0 + slack) ** 2

    def excess(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        q = np.einsum("mi,ij,mj->m", X, self.gram, X)
        return np.sqrt(np.maximum(q, 0.0)) - 1.0


class PolyBall:
    """{x : |row . x| <= 1 for every row}; covers sup-norm boxes;
    excess(x) + 1 = max_i |row_i . x|.

    That maximum, `support`, is the support function of conv(+-rows).
    When the rows span R^2 the ball reads it off the vertices of that
    polygon (see `_polar_polygon`), built on the first evaluation; any
    other ball takes the maximum over all rows."""

    kind = "poly"

    def __init__(self, rows: np.ndarray):
        self.rows = np.atleast_2d(np.asarray(rows, dtype=float))
        self.dim = self.rows.shape[1]
        self._polygon = None  # False once known to take the row maximum

    def contains(self, X: np.ndarray, slack: float = 0.0) -> np.ndarray:
        return self.excess(X) <= slack

    def excess(self, X: np.ndarray) -> np.ndarray:
        return self.support(X) - 1.0

    def support(self, X: np.ndarray) -> np.ndarray:
        """max_i |row_i . x| per row of X, over blocks of rows."""
        if self._polygon is None:
            spans_plane = self.dim == 2 and len(_independent_rows(self.rows)) == 2
            self._polygon = _polar_polygon(self.rows) if spans_plane else False
        width = self.dim if self._polygon else len(self.rows)
        return _by_blocks(self._support, _block_rows(width), np.atleast_2d(X))

    def _support(self, X: np.ndarray) -> np.ndarray:
        if not self._polygon:
            return np.abs(X @ self.rows.T).max(axis=1)
        T, theta, a, b = self._polygon
        Y = X @ T.T
        # hull vertex j is extreme for theta[j - 1] < angle(y) <= theta[j];
        # (a, b)[j + 1] is its row, (a, b)[j] and (a, b)[j + 2] its neighbours'
        j = np.searchsorted(theta, np.arctan2(Y[:, 1], Y[:, 0]))
        x0, x1 = X[:, 0], X[:, 1]
        top = np.abs(x0 * a[j] + x1 * b[j])
        for k in (j + 1, j + 2):
            np.maximum(top, np.abs(x0 * a[k] + x1 * b[k]), out=top)
        return top


def _independent_rows(rows: np.ndarray) -> list[int]:
    """Indices of a maximal independent subset of an (m, n) row set, each
    the row with the largest component orthogonal to those already taken
    (a large |det|), judged after scaling each column by its largest
    |entry| (an all-zero column by 1), which leaves the rank as it is.  A
    row whose component is within max(m, n) machine epsilons of its own
    norm counts as dependent, so the count is the rank of the unit scaled
    rows: a thin but bounded polytope such as {|x| <= 1, |1e-30 y| <= 1},
    or rows all within 1e-20 of one axis, has full rank."""
    m, n = rows.shape
    scale = np.abs(rows).max(axis=0, initial=0.0)
    R = rows / np.where(scale > 0, scale, 1.0)
    tol = max(m, n) * np.finfo(float).eps * np.linalg.norm(R, axis=1)
    picked = []
    for _ in range(n):
        norms = np.linalg.norm(R, axis=1)
        free = norms > tol
        if not free.any():
            break
        i = int(np.argmax(np.where(free, norms, -1.0)))
        picked.append(i)
        q = R[i] / norms[i]
        R -= np.outer(R @ q, q)
    return picked


def _polar_polygon(rows: np.ndarray):
    """The polygon conv(+-rows) of rows spanning R^2, for extreme-point
    queries by binary search on edge-normal angles (Preparata and Shamos,
    Computational Geometry, 1985): returns (T, theta, a, b).

    The hull is Andrew's monotone chain (Inf. Proc. Letters 9, 1979), in
    a frame where the polygon is round: with rows = U diag(s) V^T,
    r . x = (r V diag(1/s)) . (diag(s) V^T x), and the frame points
    rows V diag(1/s) = U have orthonormal columns however thin the rows
    are, so their edge normals have distinct angles.  A query x maps to
    y = T x, T = diag(s / s_0) V^T.  theta holds the angles of the outward
    edge normals of the counterclockwise hull, ascending, and (a, b) the
    rows at its vertices, padded by one vertex before and two after.
    """
    m = rows.shape[0]
    _, s, Vt = np.linalg.svd(rows, full_matrices=False)
    P = rows @ (Vt.T / s)
    pts = np.vstack([P, -P])
    x, y = pts[:, 0].tolist(), pts[:, 1].tolist()
    # the lower chain, keeping strict left turns only (repeated, zero and
    # collinear rows drop); the upper chain is its mirror image -lower
    lower = []
    for i in np.lexsort((pts[:, 1], pts[:, 0])).tolist():
        while len(lower) >= 2:
            o, p = lower[-2], lower[-1]
            if (x[p] - x[o]) * (y[i] - y[o]) - (y[p] - y[o]) * (x[i] - x[o]) > 0:
                break
            lower.pop()
        lower.append(i)
    half = np.array(lower[:-1])
    ring = np.concatenate([half, (half + m) % (2 * m)])
    edges = pts[np.roll(ring, -1)] - pts[ring]
    theta = np.arctan2(-edges[:, 0], edges[:, 1])
    start = int(np.argmin(theta))
    # vertex j starts edge j, so it is extreme between theta[j - 1] and theta[j]
    theta, ring = np.roll(theta, -start), np.roll(ring, -start)
    padded = rows[np.concatenate([ring[-1:], ring, ring[:2]]) % m]
    return (s / s[0])[:, None] * Vt, theta, padded[:, 0].copy(), padded[:, 1].copy()


class LayeredBall:
    """Cap on a top subspace plus a recursive ball on the quotient.

    Membership: ||top_map @ x||_2 <= cap  and  inner.contains(proj @ x);
    excess(x) + 1 = max(||top_map @ x||_2 / cap, inner.excess(proj @ x) + 1),
    evaluated in one pass over every level (`_membership_form`).
    A built ball's top_map rows are the capped subspace's coordinates in
    the tuned inner product and proj maps to tuned-orthonormal quotient
    coordinates; [top_map; proj] is square and invertible.  The ball
    holds no derivation: a derivation A acting on it induces
    proj A proj^+ on the quotient (see `_gauge_terms`).
    """

    kind = "layered"

    def __init__(self, top_map, cap: float, proj, inner):
        self.top_map = np.atleast_2d(np.asarray(top_map, dtype=float))
        self.cap = float(cap)
        self.proj = np.atleast_2d(np.asarray(proj, dtype=float))
        self.inner = inner
        self.dim = self.top_map.shape[1]
        self._flat = None  # its `_sampling_form`, made on the first draw
        self._form = None  # its `_membership_form`, made on the first test

    def contains(self, X: np.ndarray, slack: float = 0.0) -> np.ndarray:
        return self._over_blocks(self._contains, X, slack)

    def excess(self, X: np.ndarray) -> np.ndarray:
        return self._over_blocks(self._excess, X)

    def _over_blocks(self, fn, X: np.ndarray, *args) -> np.ndarray:
        """fn(rows, *args) over blocks of X sized for the membership form."""
        rows = _block_rows(_membership_form(self)[0].shape[0])
        return _by_blocks(lambda Y: fn(Y, *args), rows, np.atleast_2d(X))

    def _contains(self, X: np.ndarray, slack: float) -> np.ndarray:
        norms, caps, base, Yb = self._levels(X)
        ok = (norms <= (caps * (1.0 + slack))[:, None]).all(axis=0)
        return ok if base is None else ok & base.contains(Yb, slack)

    def _excess(self, X: np.ndarray) -> np.ndarray:
        norms, caps, base, Yb = self._levels(X)
        top = np.max(norms / caps[:, None], axis=0) - 1.0
        return top if base is None else np.maximum(top, base.excess(Yb))

    def _levels(self, X: np.ndarray):
        """(norms, caps, base, Yb): the norm of each level's coordinates of
        every row of X, shape (levels, rows), the levels' caps, and the
        PolyBall base with its coordinates of X (None, None: no base)."""
        W, starts, caps, base = _membership_form(self)
        YT = W @ X.T
        sq = YT[: starts[-1]] * YT[: starts[-1]]
        norms = np.empty((caps.size, YT.shape[1]))
        for i in range(caps.size):  # a loop over the levels beats one reduceat
            np.add.reduce(sq[starts[i] : starts[i + 1]], axis=0, out=norms[i])
        np.sqrt(norms, out=norms)
        return norms, caps, base, None if base is None else YT[starts[-1] :].T

    def with_cap(self, cap: float) -> "LayeredBall":
        return LayeredBall(self.top_map, cap, self.proj, self.inner)


def _membership_form(ball: LayeredBall):
    """(W, starts, caps, base) with ball = {x : |W_i x|_2 <= caps[i] for
    every level i, and W_b x in base}, W_i the rows starts[i]:starts[i + 1]
    of W and W_b its rows from starts[-1] (none when base is None).

    The rows are top_map, then each inner level's rows times proj, down
    the levels: the recursion's maps composed once, kept on the ball from
    its first test.  A NormBall base {y^T L L^T y <= 1} is one more level,
    L^T of cap 1; a PolyBall base keeps its own test on the composed
    projection.  Nothing is inverted, so [top_map; proj] may be any
    shape."""
    if ball._form is None:
        inner = ball.inner
        if isinstance(inner, LayeredBall):
            W, starts, caps, base = _membership_form(inner)
        elif isinstance(inner, NormBall):
            L = np.linalg.cholesky((inner.gram + inner.gram.T) / 2.0)
            W, starts, caps, base = L.T, np.array([0, inner.dim]), np.ones(1), None
        elif isinstance(inner, PolyBall):
            W, starts, caps, base = np.eye(inner.dim), np.zeros(1, dtype=int), np.empty(0), inner
        else:
            raise TypeError(f"cannot test membership in a ball of type {type(inner).__name__}")
        W = np.vstack([ball.top_map, W @ ball.proj])
        starts = np.concatenate([[0], ball.top_map.shape[0] + starts])
        ball._form = W, starts, np.concatenate([[ball.cap], caps]), base
    return ball._form


def box_ball(n: int = 2) -> PolyBall:
    """The sup-norm unit ball {max_i |x_i| <= 1}."""
    return PolyBall(np.eye(n))


def dilate_ball(ball, A, mu: float):
    """The image mu^A B of a ball under a dilation (mu > 0), for any A or its
    DilationAction: x is in mu^A B when mu^-A x is in B, so every map reading
    x is composed with Minv = mu^-A and a layered ball keeps its inner ball."""
    Minv = A.powers([1.0 / mu])[0] if isinstance(A, DilationAction) else lambda_pow(A, 1.0 / mu)
    if isinstance(ball, NormBall):
        return NormBall(Minv.T @ ball.gram @ Minv)
    if isinstance(ball, PolyBall):
        return PolyBall(ball.rows @ Minv)
    if isinstance(ball, LayeredBall):
        return LayeredBall(ball.top_map @ Minv, ball.cap, ball.proj @ Minv, ball.inner)
    raise TypeError(f"cannot dilate ball of type {type(ball).__name__}")


def ball_to_json(ball) -> dict:
    if isinstance(ball, NormBall):
        return {"type": "norm", "gram": ball.gram.tolist()}
    if isinstance(ball, PolyBall):
        return {"type": "poly", "rows": ball.rows.tolist()}
    if isinstance(ball, LayeredBall):
        return {
            "type": "layered",
            "top_map": ball.top_map.tolist(),
            "cap": ball.cap,
            "proj": ball.proj.tolist(),
            "inner": ball_to_json(ball.inner),
        }
    raise TypeError(f"cannot serialize ball of type {type(ball).__name__}")


def ball_from_json(obj: dict):
    # layered balls written by earlier versions also carry their quotient's
    # derivation as "quotient_A"; it is ignored
    kind = obj.get("type")
    if kind == "norm":
        return NormBall(np.array(obj["gram"], dtype=float))
    if kind == "poly":
        return PolyBall(np.array(obj["rows"], dtype=float))
    if kind == "layered":
        return LayeredBall(
            np.array(obj["top_map"], dtype=float),
            float(obj["cap"]),
            np.array(obj["proj"], dtype=float),
            ball_from_json(obj["inner"]),
        )
    raise ValueError(f"unknown ball type {kind!r}")


# ---------------------------------------------------------------------------
# Algebra views and fast dilation action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraView:
    """Float-backend view of a nilpotent algebra: enough for group ops.
    series is the tensor's `central_series_basis`, if already walked."""

    dim: int
    tensor: np.ndarray
    step: int
    series: tuple | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, g) -> "AlgebraView":
        """g's view, one per algebra; its group law is the algebra's
        `GroupOps.for_algebra(g)`, so an algebra compiles one float law."""
        if g._view is None:
            step = g.nilpotency_step()
            if step is None:
                raise ValueError(f"{g.name} is not nilpotent")
            view = cls(g.dim, g.tensor, step)
            view.__dict__["_ops"] = GroupOps.for_algebra(g)
            g._view = view
        return g._view

    @property
    def is_abelian(self) -> bool:
        return self.step <= 1 or not np.abs(self.tensor).any()

    def ops(self) -> GroupOps:
        """The view's group law: one GroupOps, shared by every caller."""
        if "_ops" not in self.__dict__:
            self.__dict__["_ops"] = GroupOps(self.tensor, self.step, self.series)
        return self.__dict__["_ops"]


# ---------------------------------------------------------------------------
# Tuned inner product
# ---------------------------------------------------------------------------


def _filtration_basis(R: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Orthonormal basis of C^m adapted to ker R in ker R^2 in ...

    Returns (Q, levels): columns of Q ordered by filtration level, where
    R maps level j into the span of levels < j (R nilpotent).
    """
    m = R.shape[0]
    if m == 0:
        return np.zeros((0, 0), dtype=complex), []
    blocks = []
    levels: list[int] = []
    prev = np.zeros((m, 0), dtype=complex)
    P = np.eye(m, dtype=complex)
    level = 1
    while prev.shape[1] < m:
        P = P @ R if level > 1 else R.copy()
        U, s, Vh = np.linalg.svd(P)
        smax = max(s[0], 1.0) if s.size else 1.0
        k = int(np.sum(s <= tol * smax))
        ker = Vh.conj().T[:, m - k:] if k else np.zeros((m, 0), dtype=complex)
        # new directions: component of ker orthogonal to prev
        if prev.shape[1]:
            ker = ker - prev @ (prev.conj().T @ ker)
        if ker.shape[1]:
            U2, s2, _ = np.linalg.svd(ker, full_matrices=False)
            new = U2[:, s2 > 1e-9]
        else:
            new = np.zeros((m, 0), dtype=complex)
        if new.shape[1] == 0 and prev.shape[1] < m:
            raise NumericFailure(
                "eigen-filtration stalled; nilpotent part is numerically ambiguous"
            )
        blocks.append(new)
        levels.extend([level] * new.shape[1])
        prev = np.hstack([prev, new])
        level += 1
        if level > m + 1:
            raise NumericFailure("eigen-filtration exceeded the dimension bound")
    return np.hstack(blocks), levels


def _gram_orthonormalize(basis: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Columns spanning the same space, orthonormal for the gram product."""
    G = basis.T @ gram @ basis
    L = np.linalg.cholesky((G + G.T) / 2.0)
    return basis @ np.linalg.inv(L).T


def _gram_restriction(T: np.ndarray, basis: np.ndarray, gram: np.ndarray):
    """T on the invariant span of the orthonormal columns of basis, in
    coordinates orthonormal for the gram product (B^T gram T B for the
    gram-orthonormalized basis B)."""
    S = basis.T @ T @ basis  # valid for orthonormal (euclidean) basis columns
    G = basis.T @ gram @ basis
    L = np.linalg.cholesky((G + G.T) / 2.0)
    return L.T @ S @ np.linalg.inv(L).T


@dataclass
class TunedNorm:
    gram: np.ndarray
    theta: float
    epsilon: float
    grading: Grading  # the layers the bounds were verified on


def default_theta(weights, *, general_top: bool = False) -> float:
    """theta = min(1/2, gap/2) where gap = min{t - 1 : t > 1 a weight}.

    With general_top (a non-Abelian level of the layered construction),
    theta is also capped by t_max - 2 when the top weight t_max exceeds 2,
    so the capped top layer still contracts faster than mu^2; at
    t_max = 2 (within WEIGHT_TOL) only the diagonalizable core is capped,
    which contracts by exactly mu^2, and theta is left alone.
    """
    from .grading import WEIGHT_TOL

    gaps = [t - 1 for t in weights if t > 1 + 1e-12]
    theta = min(0.5, min(gaps) / 2) if gaps else 0.5
    if general_top and weights and max(weights) > 2 + WEIGHT_TOL:
        theta = min(theta, max(weights) - 2)
    return theta


# epsilon halvings before tuned_norm gives up
_EPS_HALVINGS = 60


def tuned_norm(dim: int, A, theta: float, *, grading: Grading | None = None) -> TunedNorm:
    """Inner product with orthogonal layers in which every dilation
    mu^A, mu <= 1, contracts the weight-t layer by at least mu^(t-theta),
    and by exactly mu^t where A is diagonalizable.

    The nilpotent part of A is damped by scaling an eigen-filtration
    basis with powers of epsilon; epsilon starts at 1 and is halved until
    the log-norm certificate of both bounds holds: with C the restriction
    of A to the layer (or to its diagonalizable core) in gram-orthonormal
    coordinates, lambda_min((C + C^T) / 2) >= t - theta (>= t on the
    core), up to an absolute slack of 1e-9 max(1, |A|).  Then
    |mu^A v| <= mu^lambda_min |v| for mu <= 1 (the logarithmic-norm
    bound), and the condition is also necessary as mu -> 1.  Without a
    grading, the grading of A is computed.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    Af = to_float(A)
    if grading is None:
        from .grading import grading_from_derivation

        grading = grading_from_derivation(None, Af)
    spec = grading.spec
    n = dim
    scale = max(1.0, float(np.linalg.norm(Af, 2)))

    # Per-cluster filtration bases (conjugate clusters get conjugates).
    cluster_cols: dict[int, tuple[np.ndarray, list[int]]] = {}
    for i, c in enumerate(spec.clusters):
        if i in cluster_cols:
            continue
        R = c.basis.conj().T @ (Af - c.value * np.eye(n)) @ c.basis
        Q, levels = _filtration_basis(R, tol=max(spec.tolerance, 1e-10) / scale * 10)
        cluster_cols[i] = (c.basis @ Q, levels)
        if abs(c.value.imag) > 0:
            for j, c2 in enumerate(spec.clusters):
                if j != i and abs(c2.value - c.value.conjugate()) <= 2 * spec.tolerance:
                    cluster_cols[j] = ((c.basis @ Q).conj(), list(levels))
                    break

    # (lower bound on the log-norm rate, weight, basis): every layer, then
    # every diagonalizable core
    checks = [(l.weight - theta, l.weight, l.basis) for l in grading.layers]
    checks += [(l.weight, l.weight, l.core) for l in grading.layers if l.core.shape[1]]

    eps = 1.0
    last_fail = ""
    for _ in range(_EPS_HALVINGS + 1):
        cols = []
        for i in range(len(spec.clusters)):
            Q, levels = cluster_cols[i]
            scaling = np.array([eps**lv for lv in levels])
            cols.append(Q * scaling[None, :])
        P = np.hstack(cols)
        H = np.linalg.inv(P @ P.conj().T)
        if np.linalg.norm(H.imag, 2) > 1e-8 * np.linalg.norm(H.real, 2):
            raise NumericFailure("tuned inner product failed to be real")
        gram = (H.real + H.real.T) / 2.0

        for rate, weight, basis in checks:
            C = _gram_restriction(Af, basis, gram)
            low = float(np.linalg.eigvalsh((C + C.T) / 2.0)[0])
            if low < rate - 1e-9 * scale:
                last_fail = f"t={weight:g}: log-norm rate {low:.6g} < {rate:g}"
                break
        else:
            return TunedNorm(gram, theta, eps, grading)
        eps *= 0.5
    raise NumericFailure(
        f"tuned norm verification failed after {_EPS_HALVINGS} halvings: {last_fail}"
    )


# ---------------------------------------------------------------------------
# Ball construction
# ---------------------------------------------------------------------------


@dataclass
class BuildParams:
    convexity_samples: int = 20000
    cap_samples: int = 10**4
    seed: int = 12345


# cap doublings before a layered build gives up
_CAP_DOUBLINGS = 20


def _ray_radii(ball, U: np.ndarray) -> np.ndarray:
    """Per-row extent sup{r : r u in B} along the rays u = rows of U:
    1 / (1 + excess(u)), since excess + 1 is the ball's 1-homogeneous
    Minkowski functional.  Past an extent of about 1e16, 1 + excess(u)
    rounds to 0; such rows are read at the rescaled rays s u, s = 1e16,
    1e32, ... up to 1e128, as s / (1 + excess(s u)).  A row still at 0
    then is an unbounded ray.  Where the extent is large, 1 + excess
    cancels to few digits; by homogeneity r / (1 + excess(r u)) is the
    same extent, evaluated near the boundary where nothing cancels."""
    U = np.atleast_2d(U)
    r = np.full(U.shape[0], np.inf)
    for scale in 10.0 ** (16 * np.arange(9)):
        live = ~(np.isfinite(r) & (r > 0))
        if not live.any():
            break
        with np.errstate(divide="ignore"):
            r[live] = scale / (1.0 + ball.excess(scale * U[live]))
    if not np.all(np.isfinite(r) & (r > 0)):
        raise NumericFailure("ball is unbounded along a ray")
    return r / (1.0 + ball.excess(r[:, None] * U))


# rounds of draws before a rejection sampler gives up, and the rows drawn
# in one round at most
_REJECT_ROUNDS = 64
_REJECT_ROUND_ROWS = 1 << 18


def _kept_draws(draw, keep, count: int, first: int, what: str) -> np.ndarray:
    """count rows of the draws draw(m) (m rows each) kept where keep(X)
    holds, in rounds: `first` rows, then as many as the acceptance so far
    says are missing, plus 64; NumericFailure after `_REJECT_ROUNDS`."""
    parts, got, drawn = [], 0, 0
    for _ in range(_REJECT_ROUNDS):
        m = first if drawn == 0 else (count - got) * drawn // max(got, 1) + 64
        m = min(m, _REJECT_ROUND_ROWS)
        X = draw(m)
        parts.append(np.compress(keep(X), X, axis=0))
        got += parts[-1].shape[0]
        drawn += m
        if got >= count:
            return (parts[0] if len(parts) == 1 else np.concatenate(parts))[:count]
    raise NumericFailure(f"{what} kept {got} of {drawn} draws in {_REJECT_ROUNDS} rounds")


def _unit_ball_draws(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points uniform in the euclidean unit k-ball, shape (count, k).

    k = 1: one uniform draw on [-1, 1) per row.  k = 2: uniform draws from
    the square [-1, 1)^2 kept where inside the disc (Devroye,
    Non-Uniform Random Variate Generation, 1986, II.3); the first round
    is sized by the acceptance pi/4 plus about five standard deviations
    of the count it keeps, so it nearly always suffices.  k >= 3: a
    Gaussian direction scaled by U^(1/k) (Muller, Comm. ACM 2(4), 1959)."""
    if k == 1:
        return rng.uniform(-1.0, 1.0, size=(count, 1))
    if k == 2:
        return _kept_draws(
            lambda m: rng.uniform(-1.0, 1.0, size=(m, 2)),
            lambda S: S[:, 0] * S[:, 0] + S[:, 1] * S[:, 1] <= 1.0,
            count,
            int(count * 4 / math.pi + 3 * math.sqrt(count)) + 16,
            "disc",
        )
    G = rng.standard_normal((count, k))
    r = rng.random(count) ** (1.0 / max(k, 1))
    # |g|^2 summed over the coordinates in order, a column at a time (a
    # reduction along the short rows costs several times as much)
    sq = np.zeros(count)
    for j in range(k):
        sq += G[:, j] * G[:, j]
    norms = np.sqrt(sq)
    return G * (r / np.where(norms > 0, norms, 1.0))[:, None]


def _spanning_rows(rows: np.ndarray) -> np.ndarray:
    """n independent rows of an (m, n) row set (`_independent_rows`): a
    small parallelepiped {|B x|_inf <= 1} around the polytope."""
    n = rows.shape[1]
    picked = _independent_rows(rows)
    if len(picked) < n:
        raise NumericFailure(
            f"polytope rows have rank {len(picked)} < {n}; the ball is unbounded"
        )
    return rows[picked]


def _sampling_form(ball):
    """(levels, base, F) with ball = {[c_1 u_1, ..., c_L u_L, p] F}: levels
    [(k_i, c_i)] top-down with u_i in the unit k_i-ball, p in the PolyBall
    base (None: no base), F square.  A NormBall is one level, F = L^-1; a
    PolyBall its own base, F = I; a LayeredBall its cap level on top of its
    inner ball's form, F = blockdiag(I, F_inner) M^-T, kept on the ball
    from its first draw."""
    if isinstance(ball, NormBall):
        L = np.linalg.cholesky((ball.gram + ball.gram.T) / 2.0)
        return [(ball.dim, 1.0)], None, np.linalg.inv(L)
    if isinstance(ball, PolyBall):
        return [], ball, np.eye(ball.dim)
    if not isinstance(ball, LayeredBall):
        raise TypeError(f"cannot sample ball of type {type(ball).__name__}")
    if ball._flat is None:
        levels, base, F = _sampling_form(ball.inner)
        k = ball.top_map.shape[0]
        try:
            Minv = np.linalg.inv(np.vstack([ball.top_map, ball.proj]))
        except np.linalg.LinAlgError as err:
            raise NumericFailure(
                f"[top_map; proj] of a layered ball is not invertible: {err}"
            ) from err
        G = np.eye(ball.dim)
        G[k:, k:] = F
        ball._flat = [(k, ball.cap)] + levels, base, G @ Minv.T
    return ball._flat


def _sample_polytope(ball: PolyBall, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the parallelepiped of n independent rows, which
    contains the polytope, kept where inside (a box keeps every draw)."""
    Binv = np.linalg.inv(_spanning_rows(ball.rows))
    return _kept_draws(
        lambda m: rng.uniform(-1.0, 1.0, size=(m, ball.dim)) @ Binv.T,
        ball.contains,
        count,
        count,
        "polytope",
    )


def sample_in_ball(ball, dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points drawn uniformly from the ball, read off its structure.

    Every ball is a linear image of a product of round balls and at most
    one polytope (`_sampling_form`): a NormBall {x^T L L^T x <= 1} is
    L^-T times the unit n-ball; a LayeredBall, in the coordinates M x,
    M = [top_map; proj] (square and invertible: proj vanishes exactly on
    the capped span, where top_map is injective), is the product of its
    cap-radius ball and its inner ball, for dilated and deserialized balls
    alike.  So each level's round ball is drawn, top-down, then the
    polytope, and one product maps them all.  A polytope is drawn
    uniformly from the parallelepiped of n independent rows, which
    contains it, and kept where inside (a box keeps every draw).
    """
    if ball.dim != dim:
        raise ValueError(f"ball has dimension {ball.dim}, not {dim}")
    levels, base, F = _sampling_form(ball)
    if ball is base:
        return _sample_polytope(ball, count, rng)
    # a row per coordinate, so that each level fills a contiguous block
    XT, lo = np.empty((dim, count)), 0
    for k, cap in levels:
        np.multiply(_unit_ball_draws(k, count, rng).T, cap, out=XT[lo : lo + k])
        lo += k
    if base is not None:
        XT[lo:] = _sample_polytope(base, count, rng).T
    return XT.T @ F


def _block_sizes(samples: int, block: int) -> list[int]:
    """The sizes of the blocks of at most `block` rows of a sample, in order."""
    return [min(block, samples - lo) for lo in range(0, samples, block)]


@dataclass
class ConvexityReport:
    samples: int
    violations: int
    worst_excess: float
    witnesses: np.ndarray

    @property
    def ok(self) -> bool:
        return self.violations == 0


def verify_A_convexity(
    ball,
    view: AlgebraView,
    A,
    samples: int = 10**5,
    seed: int = 0,
    margin: float = 1e-9,
) -> ConvexityReport:
    """Sampled check of closure under (lam^A x) * ((1-lam)^A y).  A is
    the derivation or a DilationAction of it (a build passes its own).

    The sample runs in blocks of the group law's block size
    (`GroupOps.block`): each block's x, y and lam are drawn, in that
    order, then dilated, multiplied and tested, so no temporary spans the
    whole sample.  The worst excess and the witnesses (the first five
    failing x, y, lam) come from the failing rows."""
    rng = np.random.default_rng(seed)
    action = A if isinstance(A, DilationAction) else DilationAction(to_float(A))
    ops = view.ops()
    bad, worst, witnesses = 0, -np.inf, [np.empty((0, 2 * view.dim + 1))]
    for m in _block_sizes(samples, ops.block):
        X = sample_in_ball(ball, view.dim, m, rng)
        Y = sample_in_ball(ball, view.dim, m, rng)
        lam = np.clip(rng.uniform(0.0, 1.0, size=m), 1e-12, 1 - 1e-12)
        Z = ops.product(action.apply(lam, X), action.apply(1.0 - lam, Y))
        out = np.flatnonzero(~ball.contains(Z, slack=margin))
        if out.size:
            worst = max(worst, float(ball.excess(Z[out]).max()))
            bad += out.size
            out = out[:5]
            witnesses.append(np.hstack([X[out], Y[out], lam[out, None]]))
    return ConvexityReport(samples, bad, worst if bad else 0.0, np.vstack(witnesses)[:5])


def _gram_complement(gram: np.ndarray, sub_onb: np.ndarray) -> np.ndarray:
    """Euclidean-orthonormal basis of the gram-orthogonal complement."""
    n = gram.shape[0]
    M = sub_onb.T @ gram  # (k, n); complement = null space
    if M.shape[0] == 0:
        return np.eye(n)
    U, s, Vh = np.linalg.svd(M)
    k = M.shape[0]
    return Vh[k:].T


def _build_layered(
    view: AlgebraView,
    action: DilationAction,
    gram: np.ndarray,
    top_basis: np.ndarray,
    inner_ball,
    proj: np.ndarray,
    comp_onb: np.ndarray,
    params: BuildParams,
    rng: np.random.Generator,
):
    """Assemble a LayeredBall, estimate its cap by sampling, then validate
    dilation-convexity and double the cap until it passes; action is the
    level's DilationAction, shared by every check.  The estimate draws and
    multiplies its sample a block of the group law at a time."""
    top_gonb = _gram_orthonormalize(top_basis, gram)
    top_map = top_gonb.T @ gram
    ops = view.ops()

    ratio_lam = ratio_pair = 0.0
    for m in _block_sizes(params.cap_samples, ops.block):
        XI = sample_in_ball(inner_ball, inner_ball.dim, m, rng)
        ETA = sample_in_ball(inner_ball, inner_ball.dim, m, rng)
        lb = np.clip(rng.uniform(0, 1, m), 1e-6, 1 - 1e-6)
        Xbar, Ybar = XI @ comp_onb.T, ETA @ comp_onb.T
        # top-layer part of the product of dilated complement representatives
        Z = ops.product(action.apply(lb, Xbar), action.apply(1 - lb, Ybar))
        top_vals = np.linalg.norm(Z @ top_map.T, axis=1)
        ratio_lam = max(ratio_lam, float(np.max(top_vals / (lb * (1 - lb)))))
        # plain bilinear ratio over pairs, for the non-dilated estimate
        Z0 = ops.product(Xbar, Ybar) - Xbar - Ybar
        nx = np.linalg.norm(XI, axis=1)
        ny = np.linalg.norm(ETA, axis=1)
        good = (nx > 1e-9) & (ny > 1e-9)
        top0 = np.linalg.norm(Z0 @ top_map.T, axis=1)
        if np.any(good):
            ratio_pair = max(ratio_pair, float(np.max(top0[good] / (nx[good] * ny[good]))))

    C = max(1.5 * ratio_lam / 2.0, 1.5 * ratio_pair / 2.0, 1e-12)
    ball = LayeredBall(top_map, C, proj, inner_ball)
    for _ in range(_CAP_DOUBLINGS + 1):
        report = verify_A_convexity(
            ball, view, action, samples=params.convexity_samples, seed=int(rng.integers(2**31))
        )
        if report.ok:
            return ball
        ball = ball.with_cap(ball.cap * 2.0)
    raise NumericFailure(
        f"cap search exhausted its budget of {_CAP_DOUBLINGS} doublings "
        f"(last violation excess {report.worst_excess:.3e})"
    )


def _build_recursive(
    view: AlgebraView,
    A: np.ndarray,
    params: BuildParams,
    rng,
    grading: Grading,
    action: DilationAction,
):
    """One level's ball; grading and action are A's grading and
    DilationAction, made from one eigen-decomposition of A.

    An Abelian level gets the tuned norm ball.  Any other level caps its
    top layer, or only the layer's diagonalizable core (which contains
    [g, g]) when the top weight is at most 2, and recurses on the
    quotient by the capped span, graded once here.
    """
    from .grading import WEIGHT_TOL, grading_from_derivation

    if view.is_abelian:
        return NormBall(tuned_norm(view.dim, A, default_theta(grading.weights), grading=grading).gram)
    theta = default_theta(grading.weights, general_top=True)
    gram = tuned_norm(view.dim, A, theta, grading=grading).gram
    top = grading.layers[-1]
    capped = top.core if top.weight <= 2 + WEIGHT_TOL else top.basis
    if capped.shape[1] == 0:
        raise NumericFailure(
            "non-Abelian algebra with top weight <= 2 has no diagonalizable "
            "weight-2 core; grading data is inconsistent"
        )

    comp_gonb, proj, A_hat, qview = _quotient(view, A, gram, capped)
    qgrading = grading_from_derivation(None, A_hat)
    qaction = DilationAction(A_hat, spec=qgrading.spec)
    inner = _build_recursive(qview, A_hat, params, rng, qgrading, qaction)

    # scale the quotient ball so the sum of layer norms of lifted points
    # stays below 1 (the contraction estimate needs it); a weight-2 part
    # outside the capped core lies in the quotient and is counted.  The
    # sample is drawn and measured a block at a time
    layer_maps = [(_gram_orthonormalize(l.basis, gram).T @ gram).T for l in grading.layers]
    S = 0.0
    for m in _block_sizes(params.cap_samples, view.ops().block):
        Xbar = sample_in_ball(inner, qview.dim, m, rng) @ comp_gonb.T
        S = max(S, float(sum(np.linalg.norm(Xbar @ M, axis=1) for M in layer_maps).max()))
    S *= 1.05
    if S > 1.0:
        inner = dilate_ball(inner, qaction, 1.0 / S)

    return _build_layered(view, action, gram, capped, inner, proj, comp_gonb, params, rng)


def _quotient(view: AlgebraView, A: np.ndarray, gram: np.ndarray, capped: np.ndarray):
    """The quotient by the A-invariant column span `capped`: returns
    (comp_gonb, proj, A_hat, qview), a gram-orthonormal basis of the
    gram-orthogonal complement, the map onto its coordinates, the induced
    derivation there and the quotient algebra."""
    comp_gonb = _gram_orthonormalize(_gram_complement(gram, capped), gram)
    proj = comp_gonb.T @ gram
    A_hat = proj @ A @ comp_gonb
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    if np.linalg.norm(proj @ A - A_hat @ proj, 2) > 1e-8 * scale:
        raise NumericFailure("capped subspace is not invariant; projection failed")
    qtensor = np.einsum("ia,jb,ijk,lk->abl", comp_gonb, comp_gonb, view.tensor, proj)
    try:  # one walk gives the quotient's step and its law's basis
        series = central_series_basis(qtensor)
    except ValueError:
        raise NumericFailure("quotient by the capped subspace is not nilpotent") from None
    return comp_gonb, proj, A_hat, AlgebraView(comp_gonb.shape[1], qtensor, series[0], series)


def build_ball(g, A, *, params: BuildParams | None = None):
    """Unit ball of a homogeneous distance for the derivation A.

    Rejects (BuildRejected) when the existence classifier says no.
    """
    # imported here so the classifier is looked up on its module at call time
    from .grading import classify_derivation

    params = params or BuildParams()
    verdict = classify_derivation(g, A)
    if not verdict.answer:
        raise BuildRejected(verdict)
    view = AlgebraView.of(g)
    rng = np.random.default_rng(params.seed)
    Af, spec = to_float(A), verdict.grading.spec
    return _build_recursive(view, Af, params, rng, verdict.grading, DilationAction(Af, spec=spec))


def build_distance(g, A, *, params: BuildParams | None = None) -> "HomogeneousDistance":
    ball = build_ball(g, A, params=params)
    return HomogeneousDistance(AlgebraView.of(g), to_float(A), ball)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


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


def _gauge_terms(ball, A: np.ndarray, P: np.ndarray):
    """Split the gauge of ball, for the derivation A on the coordinates
    P x, into per-level terms whose maximum is N.

    Membership in a LayeredBall is (top cap) and (inner ball at proj x),
    each an up-set in mu, so N = max(N_top, N_inner(proj x)) when A
    induces maps on both coordinate sets: top_map A = M top_map and
    proj A = A_hat proj, read off as M = top_map A top_map^+ and
    A_hat = proj A proj^+.  The cap is then the norm ball of radius cap
    for M on the top coordinates, and the inner ball is split the same
    way for A_hat, so the ball needs no derivation of its own.  A leaf has
    a closed form when A acts on it conformally: A^T G + G A = 2t G for a
    NormBall (N = (x^T G x)^(1/2t)), A = t I for a PolyBall
    (N = max_i |r_i . x|^(1/t)).  Returns (closed, solved): closed terms
    (R, t) mean N = |R x|^(1/t), in the 2-norm for a matrix R and the
    support function for a PolyBall R; solved terms (ball, A, P) go to the
    Illinois solver.
    """
    if isinstance(ball, LayeredBall):
        T, Q = ball.top_map, ball.proj
        M = T @ A @ np.linalg.pinv(T)
        A_hat = Q @ A @ np.linalg.pinv(Q)
        scale = np.linalg.norm(A)
        if _near(T @ A, M @ T, scale * np.linalg.norm(T)) and _near(
            Q @ A, A_hat @ Q, scale * np.linalg.norm(Q)
        ):
            cap = NormBall(np.eye(T.shape[0]) / ball.cap**2)
            c1, s1 = _gauge_terms(cap, M, T @ P)
            c2, s2 = _gauge_terms(ball.inner, A_hat, Q @ P)
            return c1 + c2, s1 + s2
    t = float(np.trace(A)) / A.shape[0]
    if isinstance(ball, NormBall) and _near(
        A.T @ ball.gram + ball.gram @ A,
        2.0 * t * ball.gram,
        np.linalg.norm(A) * np.linalg.norm(ball.gram),
    ):
        L = np.linalg.cholesky((ball.gram + ball.gram.T) / 2.0)
        return [(L.T @ P, t)], []
    if isinstance(ball, PolyBall) and _near(A, t * np.eye(A.shape[0]), np.linalg.norm(A)):
        return [(PolyBall(ball.rows @ P), t)], []
    return [], [(ball, A, P)]


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
        if isinstance(ball, PolyBall):
            rank = len(_independent_rows(ball.rows))
            if rank < self.dim:
                raise ValueError(
                    f"polytope rows have rank {rank} < {self.dim}; the ball is unbounded"
                )
            # a plane polytope answers from three hull vertices per row; any
            # other holds R / dim floats per row of input for its R rows
            if self.dim != 2:
                self.stack_factor = -(-ball.rows.shape[0] // self.dim)
        self._closed, solved = _gauge_terms(ball, self.A, np.eye(self.dim))
        self._solved = [
            (b, self.action if A_level is self.A else DilationAction(A_level), P)
            for b, A_level, P in solved
        ]
        self._counts = Counter()  # the last call's GaugeRecord fields

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
        self._counts = Counter()
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
            for R, t in self._closed:
                if isinstance(R, PolyBall):
                    size = R.support(Xn)
                else:  # the 2-norm scaled by the largest entry cannot underflow
                    Y = Xn @ R.T
                    size = np.abs(Y).max(axis=1)
                    size = size * np.linalg.norm(Y / np.where(size > 0, size, 1.0)[:, None], axis=1)
                logN = np.maximum(logN, (logm + np.log(size)) / t)
        counts = Counter()
        solved = np.zeros(Xn.shape[0], dtype=bool)
        for ball, action, P in self._solved:
            term, c = _illinois_log_gauge(ball, action, Xn @ P.T, logm, self.width)
            logN = np.maximum(logN, term)
            solved |= np.isfinite(term)
            counts += c
        nsolved = int(solved.sum())
        for f in ("row_evals", "bisections"):
            counts[f] //= copies
        counts.update(closed_rows=(X.shape[0] - nsolved) // copies, solved_rows=nsolved // copies)
        self._counts.update(counts)
        if np.any(logN > _LOG_MAX):
            raise OverflowError("gauge value exceeds the float range")
        out = np.zeros(X.shape[0])
        out[live] = np.exp(logN)
        return out[:1] if copies == 2 else out

    def pair(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        self._counts = Counter()
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
        if lam <= 1:
            raise ValueError("sup-dilation rebalancing needs lambda > 1")
        self.base = base
        self.A = to_float(A)
        self.lam = float(lam)
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
    gauge distance of a polytope ball and every map commutes with its
    derivation, the maximum collapses exactly to the gauge of the
    intersection of the mapped polytopes: one gauge per row instead of
    one per map.  Zero rows, and rows that repeat up to sign, drop at 12
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
        and isinstance(d.ball, PolyBall)
        and np.all(
            np.linalg.norm(mats @ d.A - d.A @ mats, 2, axis=(1, 2))
            <= 1e-9 * max(1.0, np.linalg.norm(d.A, 2))
        )
    ):
        rows = (d.ball.rows @ mats).reshape(-1, n)
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
    if lam <= 1:
        raise ValueError("common dilation factor must be > 1")
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
