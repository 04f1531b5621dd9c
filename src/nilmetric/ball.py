"""Unit balls of dilation-homogeneous distances.

The unit ball of a homogeneous distance is characterized by three
properties: compact with the identity interior, symmetric, and closed
under the two-point dilation average (lam^A x) * ((1-lam)^A y).  A ball
here is a set only, stored in one flat form (`Ball`): round levels
{|W_i x|_2 <= c_i} and at most one polytope base.  There are three
kinds of it: a norm ball, a polytope, and a layered ball (a cap on a top
subspace plus a recursive ball on the quotient), which is what
`metric.build_ball` constructs.  Membership and the excess over the
boundary are vectorized over batches of points.
"""

from __future__ import annotations

import numpy as np

from .group import _block_rows
from .spectral import DilationAction, _dilation_factors, lambda_pow

__all__ = [
    "NumericFailure",
    "BuildRejected",
    "Ball",
    "NormBall",
    "PolyBall",
    "LayeredBall",
    "box_ball",
    "dilate_ball",
    "ball_to_json",
    "ball_from_json",
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
# Balls
#
# Each ball's excess(x) + 1 is its Minkowski functional, positively
# 1-homogeneous in x (excess(r x) + 1 = r (excess(x) + 1) for r >= 0);
# `_ray_radii` reads the ball's extents off it for
# `distance.sphere_polyline`.  A ball is a set only: the derivation that
# dilates it belongs to the distance (`HomogeneousDistance.A`) or is
# passed to `dilate_ball`, so one ball can serve more than one
# derivation.  Every ball is a `Ball` and stores its flat form when it is
# made: levels {|W_i x|_2 <= c_i}, at most one polytope base on W_b x,
# and F = W^-T where W is square and invertible.  A NormBall is one
# level, a PolyBall its own base on W = I, and a LayeredBall composes its
# chain of projections into W once.  Membership tests each level against
# its cap, `metric.sample_in_ball` draws each level's round ball (and the
# base from the parallelepiped of n independent rows) and maps the draws
# by F in one product, and `distance._gauge_terms` splits the gauge by
# level, all from these attributes.  A test is one product and a norm per
# level; it and a PolyBall's support run over blocks of rows
# (`_by_blocks`).
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


class Ball:
    """{x : |W_i x|_2 <= caps[i] for every level i, and W_b x in base}, with
    W_i the rows starts[i]:starts[i + 1] of W and W_b its rows from
    starts[-1] (none when base is None); base is a PolyBall and F = W^-T
    (None when W is not square or is singular, which membership does not
    need and sampling does).

    excess(x) + 1 = max(max_i |W_i x| / caps[i], base.excess(W_b x) + 1),
    evaluated in one product with W and a norm per level.
    """

    def __init__(self, W, starts, caps, base=None, F=None):
        self.W, self.starts, self.caps, self.base, self.F = W, starts, caps, base, F
        self.dim = W.shape[1]
        self._block = _block_rows(W.shape[0])  # rows of X per product with W

    def contains(self, X: np.ndarray, slack: float = 0.0) -> np.ndarray:
        return _by_blocks(lambda Y: self._contains(Y, slack), self._block, np.atleast_2d(X))

    def excess(self, X: np.ndarray) -> np.ndarray:
        return _by_blocks(self._excess, self._block, np.atleast_2d(X))

    def _contains(self, X: np.ndarray, slack: float) -> np.ndarray:
        norms, Yb = self._levels(X)
        ok = (norms <= (self.caps * (1.0 + slack))[:, None]).all(axis=0)
        return ok if Yb is None else ok & self.base.contains(Yb, slack)

    def _excess(self, X: np.ndarray) -> np.ndarray:
        norms, Yb = self._levels(X)
        top = np.max(norms / self.caps[:, None], axis=0) - 1.0
        return top if Yb is None else np.maximum(top, self.base.excess(Yb))

    def _levels(self, X: np.ndarray):
        """(norms, Yb): the norm of each level's coordinates of every row of
        X, shape (levels, rows), and the base's coordinates of X (None: no
        base)."""
        starts, caps = self.starts, self.caps
        YT = self.W @ X.T
        sq = YT[: starts[-1]] * YT[: starts[-1]]
        norms = np.empty((caps.size, YT.shape[1]))
        for i in range(caps.size):  # a loop over the levels beats one reduceat
            np.add.reduce(sq[starts[i] : starts[i + 1]], axis=0, out=norms[i])
        np.sqrt(norms, out=norms)
        return norms, None if self.base is None else YT[starts[-1] :].T


class NormBall(Ball):
    """{x : x^T gram x <= 1} for a symmetric positive definite gram: the one
    level L^T of cap 1, with gram = L L^T, so excess(x) + 1 = |L^T x|.  A
    gram that is not positive definite bounds no ball and is refused."""

    kind = "norm"

    def __init__(self, gram: np.ndarray):
        self.gram = np.asarray(gram, dtype=float)
        try:
            L = np.linalg.cholesky((self.gram + self.gram.T) / 2.0)
        except np.linalg.LinAlgError:
            raise ValueError("the gram is not positive definite; the ball is unbounded") from None
        super().__init__(L.T, np.array([0, L.shape[0]]), np.ones(1), None, np.linalg.inv(L))

    contains = Ball.contains  # each kind's own attribute, so a tracer can wrap one kind's test


class PolyBall(Ball):
    """{x : |row . x| <= 1 for every row}; covers sup-norm boxes;
    excess(x) + 1 = max_i |row_i . x|, the ball being its own base on W = I.

    That maximum, `support`, is the support function of conv(+-rows).
    When the rows span R^2 the ball reads it off the vertices of that
    polygon (see `_polar_polygon`), built on the first evaluation; any
    other ball takes the maximum over all rows."""

    kind = "poly"

    def __init__(self, rows: np.ndarray):
        self.rows = np.atleast_2d(np.asarray(rows, dtype=float))
        I = np.eye(self.rows.shape[1])
        super().__init__(I, np.zeros(1, dtype=int), np.empty(0), self, I)
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


class LayeredBall(Ball):
    """Cap on a top subspace plus a recursive ball on the quotient.

    Membership: ||top_map @ x||_2 <= cap  and  inner.contains(proj @ x);
    excess(x) + 1 = max(||top_map @ x||_2 / cap, inner.excess(proj @ x) + 1).
    Its flat form stacks top_map on the inner ball's rows times proj, the
    recursion's maps composed once, when it is made.  A built ball's
    top_map rows are the capped subspace's coordinates in the tuned inner
    product and proj maps to tuned-orthonormal quotient coordinates;
    [top_map; proj] is square and invertible, which sampling needs and
    membership does not.  The ball holds no derivation.
    """

    kind = "layered"

    def __init__(self, top_map, cap: float, proj, inner):
        self.top_map = np.atleast_2d(np.asarray(top_map, dtype=float))
        self.cap = float(cap)
        self.proj = np.atleast_2d(np.asarray(proj, dtype=float))
        self.inner = inner
        W = np.vstack([self.top_map, inner.W @ self.proj])
        try:  # raises for a W that is not square, too
            F = np.linalg.inv(W).T
        except np.linalg.LinAlgError:
            F = None
        starts = np.concatenate([[0], self.top_map.shape[0] + inner.starts])
        super().__init__(W, starts, np.concatenate([[self.cap], inner.caps]), inner.base, F)

    contains = Ball.contains  # each kind's own attribute, as on NormBall

    def with_cap(self, cap: float) -> "LayeredBall":
        return LayeredBall(self.top_map, cap, self.proj, self.inner)


def box_ball(n: int = 2) -> PolyBall:
    """The sup-norm unit ball {max_i |x_i| <= 1}."""
    return PolyBall(np.eye(n))


def dilate_ball(ball, A, mu: float):
    """The image mu^A B of a ball under a dilation (mu > 0), for any A or its
    DilationAction: x is in mu^A B when mu^-A x is in B, so every map reading
    x is composed with Minv = mu^-A and a layered ball keeps its inner ball."""
    _dilation_factors(mu)
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
