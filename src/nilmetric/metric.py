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
  * when the top layer weight is at most 2, the diagonalizable core W of
    the weight-2 layer (which contains [g, g]) is capped by a constant C
    and the complement carries the Abelian norm ball of the quotient;
  * otherwise the top layer is capped and the construction recurses on
    the quotient by it, with the cap calibrated from sampled bounds on
    the top-layer part of the group product.

Every built ball is validated by randomized dilation-convexity checks;
caps are doubled until validation passes.  The gauge
N(x) = inf{mu > 0 : mu^(-A) x in B} is the maximum of per-level terms,
since membership along mu is monotone for a dilation-convex ball and a
layered ball is the intersection of its cap and its quotient ball.  A
level on which A acts conformally has a closed form, (|R x| / c)^(1/t),
evaluated in log space; any other level is solved by a safeguarded
Illinois iteration along log mu.  All evaluation paths are vectorized
over batches of points.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exact import to_float
from .grading import WEIGHT_TOL, Grading, grading_from_derivation
from .group import GroupOps, float_nilpotency_step
from .spectral import (
    DilationAction,
    SpectralData,
    generalized_eigenspaces,
    lambda_pow,
)

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
    "find_chi_constant",
    "build_ball",
    "build_distance",
    "HomogeneousDistance",
    "GaugeRecord",
    "MaxOverMaps",
    "SupOverDilations",
    "averaged_distance",
    "compact_closure_samples",
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
# `sample_in_ball` draws uniform points from each variant's own
# structure: a linear image of a euclidean ball for NormBall, a product
# of the cap ball and the inner ball for LayeredBall, and the
# parallelepiped of n independent rows for PolyBall.
# ---------------------------------------------------------------------------


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
    excess(x) + 1 = max_i |row_i . x|."""

    kind = "poly"

    def __init__(self, rows: np.ndarray):
        self.rows = np.atleast_2d(np.asarray(rows, dtype=float))
        self.dim = self.rows.shape[1]

    def contains(self, X: np.ndarray, slack: float = 0.0) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.abs(X @ self.rows.T).max(axis=1) <= 1.0 + slack

    def excess(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.abs(X @ self.rows.T).max(axis=1) - 1.0


class LayeredBall:
    """Cap on a top subspace plus a recursive ball on the quotient.

    Membership: ||top_map @ x||_2 <= cap  and  inner.contains(proj @ x);
    excess(x) + 1 = max(||top_map @ x||_2 / cap, inner.excess(proj @ x) + 1).
    top_map rows are the capped subspace's coordinates in the tuned inner
    product; proj maps to tuned-orthonormal quotient coordinates and
    quotient_A is the induced derivation there (needed to dilate the
    ball and to serialize enough context to re-evaluate it).
    """

    kind = "layered"

    def __init__(self, top_map, cap: float, proj, quotient_A, inner):
        self.top_map = np.atleast_2d(np.asarray(top_map, dtype=float))
        self.cap = float(cap)
        self.proj = np.atleast_2d(np.asarray(proj, dtype=float))
        self.quotient_A = np.asarray(quotient_A, dtype=float)
        self.inner = inner
        self.dim = self.top_map.shape[1]

    def contains(self, X: np.ndarray, slack: float = 0.0) -> np.ndarray:
        X = np.atleast_2d(X)
        top_ok = (
            np.linalg.norm(X @ self.top_map.T, axis=1) <= self.cap * (1.0 + slack)
        )
        return top_ok & self.inner.contains(X @ self.proj.T, slack)

    def excess(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        top = np.linalg.norm(X @ self.top_map.T, axis=1) / self.cap - 1.0
        return np.maximum(top, self.inner.excess(X @ self.proj.T))

    def with_cap(self, cap: float) -> "LayeredBall":
        return LayeredBall(self.top_map, cap, self.proj, self.quotient_A, self.inner)


def box_ball(n: int = 2) -> PolyBall:
    """The sup-norm unit ball {max_i |x_i| <= 1}."""
    return PolyBall(np.eye(n))


def dilate_ball(ball, A, mu: float):
    """The image mu^A B of a ball under a dilation (mu > 0)."""
    Minv = lambda_pow(A, 1.0 / mu)
    if isinstance(ball, NormBall):
        return NormBall(Minv.T @ ball.gram @ Minv)
    if isinstance(ball, PolyBall):
        return PolyBall(ball.rows @ Minv)
    if isinstance(ball, LayeredBall):
        inner = dilate_ball(ball.inner, ball.quotient_A, mu)
        return LayeredBall(
            ball.top_map @ Minv, ball.cap, ball.proj, ball.quotient_A, inner
        )
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
            "quotient_A": ball.quotient_A.tolist(),
            "inner": ball_to_json(ball.inner),
        }
    raise TypeError(f"cannot serialize ball of type {type(ball).__name__}")


def ball_from_json(obj: dict):
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
            np.array(obj["quotient_A"], dtype=float),
            ball_from_json(obj["inner"]),
        )
    raise ValueError(f"unknown ball type {kind!r}")


# ---------------------------------------------------------------------------
# Algebra views and fast dilation action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraView:
    """Float-backend view of a nilpotent algebra: enough for group ops."""

    dim: int
    tensor: np.ndarray
    step: int

    @classmethod
    def of(cls, g) -> "AlgebraView":
        step = g.nilpotency_step()
        if step is None:
            raise ValueError(f"{g.name} is not nilpotent")
        return cls(g.dim, g.tensor, step)

    @property
    def is_abelian(self) -> bool:
        return self.step <= 1 or not np.abs(self.tensor).any()

    def ops(self) -> GroupOps:
        return GroupOps(self.tensor, self.step)


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
    gram-orthonormalized basis B); T is one (n, n) matrix or a (k, n, n)
    stack, which shares one Cholesky factor."""
    S = basis.T @ T @ basis  # valid for orthonormal (euclidean) basis columns
    G = basis.T @ gram @ basis
    L = np.linalg.cholesky((G + G.T) / 2.0)
    return L.T @ S @ np.linalg.inv(L).T


def _restricted_opnorm(T: np.ndarray, basis: np.ndarray, gram: np.ndarray):
    """Operator norm of T restricted to an invariant column span, in the
    gram inner product; a float, or a length-k array for a stack."""
    return np.linalg.norm(_gram_restriction(T, basis, gram), 2, axis=(-2, -1))


@dataclass
class TunedNorm:
    gram: np.ndarray
    theta: float
    epsilon: float
    grading: Grading  # the layers the bounds were verified on


def default_theta(weights, *, general_top: bool = False) -> float:
    """theta = min(1/2, gap/2) where gap = min{t - 1 : t > 1 a weight};
    capped by t_max - 2 in the general layered construction."""
    gaps = [t - 1 for t in weights if t > 1 + 1e-12]
    theta = min(0.5, min(gaps) / 2) if gaps else 0.5
    if general_top and weights:
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
# The chi constant of the capped-layer estimate
# ---------------------------------------------------------------------------


def chi(C: float, t: np.ndarray, n: int) -> np.ndarray:
    """t^2 max(|log t|, |log t|^n) + (1-t)^2 max(|log(1-t)|, |log(1-t)|^n)
    - C t (1-t), with the limit value 0 at the endpoints."""
    t = np.asarray(t, dtype=float)

    def part(u):
        out = np.zeros_like(u)
        pos = (u > 0) & (u < 1)
        lu = np.abs(np.log(u[pos]))
        out[pos] = u[pos] ** 2 * np.maximum(lu, lu**n)
        return out

    return part(t) + part(1.0 - t) - C * t * (1.0 - t)


def find_chi_constant(
    n: int, *, grid: int = 10**4, margin: float = 1e-9, max_doublings: int = 60
) -> float:
    """Smallest power-of-two C (from 1) with chi_C <= 0 on a [0,1] grid.

    The margin is enforced in units of t(1-t), which vanishes at the
    endpoints exactly as chi itself does.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = np.linspace(0.0, 1.0, grid)
    C = 1.0
    for _ in range(max_doublings + 1):
        if np.all(chi(C, t, n) <= -margin * t * (1.0 - t)):
            return C
        C *= 2.0
    raise NumericFailure(f"no chi constant found below 2^{max_doublings}")


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


def _bilinear_norm_bound(tensor: np.ndarray, gram: np.ndarray) -> float:
    """C with ||[x, y]|| <= C ||x|| ||y|| in the gram norm (safe over-bound)."""
    L = np.linalg.cholesky((gram + gram.T) / 2.0)
    Linv = np.linalg.inv(L)
    # coordinates u = L^T x make the gram norm euclidean
    Ct = np.einsum("ai,bj,ijk,kl->abl", Linv, Linv, tensor, L)
    n = Ct.shape[2]
    total = 0.0
    for k in range(n):
        total += np.linalg.norm(Ct[:, :, k], 2) ** 2
    return float(np.sqrt(total))


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


def _unit_ball_draws(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points uniform in the euclidean unit k-ball: a Gaussian
    direction scaled by U^(1/k) (Muller, Comm. ACM 2(4), 1959)."""
    G = rng.standard_normal((count, k))
    r = rng.random(count) ** (1.0 / max(k, 1))
    norms = np.linalg.norm(G, axis=1)
    return G * (r / np.where(norms > 0, norms, 1.0))[:, None]


def _spanning_rows(rows: np.ndarray) -> np.ndarray:
    """n independent rows of an (m, n) row set, each the one with the
    largest component orthogonal to those already taken (a large |det|,
    so a small parallelepiped {|B x|_inf <= 1} around the polytope)."""
    n = rows.shape[1]
    R = rows.copy()
    tol = 1e-12 * max(1.0, float(np.abs(rows).max(initial=0.0)))
    picked = []
    for _ in range(n):
        norms = np.linalg.norm(R, axis=1)
        i = int(np.argmax(norms))
        if norms[i] <= tol:
            raise NumericFailure(
                f"polytope rows have rank {len(picked)} < {n}; the ball is unbounded"
            )
        picked.append(i)
        q = R[i] / norms[i]
        R -= np.outer(R @ q, q)
    return rows[picked]


# rounds of parallelepiped draws before a PolyBall draw gives up, and the
# rows drawn in one round at most
_POLY_ROUNDS = 64
_POLY_ROUND_ROWS = 1 << 18


def sample_in_ball(ball, dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points drawn uniformly from the ball, read off its structure.

    * NormBall: x = L^-T u with u uniform in the unit n-ball and
      gram = L L^T, so x^T gram x = |u|^2.
    * LayeredBall: in the coordinates M x, M = [top_map; proj] (square
      and invertible: proj vanishes exactly on the capped span, where
      top_map is injective) the ball is the product of the cap-radius
      ball and the inner ball; so x = M^-1 [a; b] with a uniform in the
      cap ball and b drawn from the inner ball.  This holds for dilated
      and deserialized balls alike.
    * PolyBall: uniform draws from the parallelepiped of n independent
      rows, which contains the polytope, kept where inside (a box keeps
      every draw).
    """
    if ball.dim != dim:
        raise ValueError(f"ball has dimension {ball.dim}, not {dim}")
    if isinstance(ball, NormBall):
        # rows u^T L^-1 are the points L^-T u
        L = np.linalg.cholesky((ball.gram + ball.gram.T) / 2.0)
        return _unit_ball_draws(dim, count, rng) @ np.linalg.inv(L)
    if isinstance(ball, LayeredBall):
        a = ball.cap * _unit_ball_draws(ball.top_map.shape[0], count, rng)
        b = sample_in_ball(ball.inner, ball.inner.dim, count, rng)
        M = np.vstack([ball.top_map, ball.proj])
        try:
            return np.hstack([a, b]) @ np.linalg.inv(M).T
        except np.linalg.LinAlgError as err:
            raise NumericFailure(
                f"[top_map; proj] of a layered ball is not invertible: {err}"
            ) from err
    if isinstance(ball, PolyBall):
        Binv = np.linalg.inv(_spanning_rows(ball.rows))
        parts, got, drawn = [np.empty((0, dim))], 0, 0
        for _ in range(_POLY_ROUNDS):
            if got >= count:
                break
            # the acceptance so far sizes the next round
            m = count if drawn == 0 else (count - got) * drawn // max(got, 1) + 64
            m = min(m, _POLY_ROUND_ROWS)
            X = rng.uniform(-1.0, 1.0, size=(m, dim)) @ Binv.T
            parts.append(X[ball.contains(X)])
            got += parts[-1].shape[0]
            drawn += m
        if got < count:
            raise NumericFailure(
                f"polytope kept {got} of {drawn} parallelepiped draws in {_POLY_ROUNDS} rounds"
            )
        return np.vstack(parts)[:count]
    raise TypeError(f"cannot sample ball of type {type(ball).__name__}")


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
    the derivation or a DilationAction of it (a build passes its own)."""
    rng = np.random.default_rng(seed)
    action = A if isinstance(A, DilationAction) else DilationAction(to_float(A))
    ops = view.ops()
    X = sample_in_ball(ball, view.dim, samples, rng)
    Y = sample_in_ball(ball, view.dim, samples, rng)
    lam = rng.uniform(0.0, 1.0, size=samples)
    lam = np.clip(lam, 1e-12, 1 - 1e-12)
    Z = ops.product(action.apply(lam, X), action.apply(1.0 - lam, Y))
    inside = ball.contains(Z, slack=margin)
    bad = ~inside
    excess = ball.excess(Z[bad]) if np.any(bad) else np.array([])
    worst = float(excess.max()) if excess.size else 0.0
    witnesses = np.hstack([X[bad][:5], Y[bad][:5], lam[bad][:5, None]]) if np.any(bad) else np.empty((0, 2 * view.dim + 1))
    return ConvexityReport(samples, int(bad.sum()), worst, witnesses)


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
    quotient_A: np.ndarray,
    proj: np.ndarray,
    comp_onb: np.ndarray,
    cap_floor: float,
    params: BuildParams,
    rng: np.random.Generator,
):
    """Assemble a LayeredBall, estimate its cap by sampling, then validate
    dilation-convexity and double the cap until it passes; action is the
    level's DilationAction, shared by every check."""
    top_gonb = _gram_orthonormalize(top_basis, gram)
    top_map = top_gonb.T @ gram
    ops = view.ops()

    m = params.cap_samples
    XI = sample_in_ball(inner_ball, inner_ball.dim, m, rng)
    ETA = sample_in_ball(inner_ball, inner_ball.dim, m, rng)
    Xbar = XI @ comp_onb.T
    Ybar = ETA @ comp_onb.T
    lam = np.clip(rng.uniform(0, 1, m), 1e-6, 1 - 1e-6)
    # top-layer part of the product of dilated complement representatives
    Z = ops.product(action.apply(lam, Xbar), action.apply(1 - lam, Ybar))
    top_vals = np.linalg.norm(Z @ top_map.T, axis=1)
    ratio_lam = float(np.max(top_vals / (lam * (1 - lam))))
    # plain bilinear ratio over pairs, for the non-dilated estimate
    Z0 = ops.product(Xbar, Ybar) - Xbar - Ybar
    nx = np.linalg.norm(XI, axis=1)
    ny = np.linalg.norm(ETA, axis=1)
    good = (nx > 1e-9) & (ny > 1e-9)
    top0 = np.linalg.norm(Z0 @ top_map.T, axis=1)
    ratio_pair = float(np.max(top0[good] / (nx[good] * ny[good]))) if np.any(good) else 0.0

    C = max(cap_floor, 1.5 * ratio_lam / 2.0, 1.5 * ratio_pair / 2.0, 1e-12)
    ball = LayeredBall(top_map, C, proj, quotient_A, inner_ball)
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
    view: AlgebraView, A: np.ndarray, grading: Grading, params: BuildParams, rng
):
    weights = grading.weights
    if view.is_abelian:
        return NormBall(tuned_norm(view.dim, A, default_theta(weights), grading=grading).gram)
    if max(weights) <= 2 + WEIGHT_TOL:
        return _build_two_layer(view, A, grading, params, rng)
    return _build_general(view, A, grading, params, rng)


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
    qstep = float_nilpotency_step(qtensor)
    if qstep is None:
        raise NumericFailure("quotient by the capped subspace is not nilpotent")
    return comp_gonb, proj, A_hat, AlgebraView(comp_gonb.shape[1], qtensor, qstep)


def _build_quotient(qview: AlgebraView, A_hat: np.ndarray, params: BuildParams, rng):
    """Ball on a quotient, graded afresh by the induced derivation."""
    grading = grading_from_derivation(None, A_hat)
    return _build_recursive(qview, A_hat, grading, params, rng)


def _build_two_layer(view, A, grading: Grading, params, rng):
    """Top weight <= 2: cap the diagonalizable weight-2 core W (it contains
    [g, g]) and put the Abelian tuned norm ball on the quotient."""
    n = view.dim
    gram = tuned_norm(n, A, default_theta(grading.weights), grading=grading).gram

    # W = real form of the eigenvector (not just generalized) spaces at Re a = 2
    v2 = grading.layer_at(2.0)
    if v2 is None or v2.core.shape[1] == 0:
        raise NumericFailure(
            "non-Abelian algebra with top weight <= 2 has no diagonalizable "
            "weight-2 core; grading data is inconsistent"
        )
    W = v2.core

    # [g, g] must land in W
    bracket_cols = view.tensor.reshape(n * n, n).T
    Pw = W @ W.T
    resid = np.linalg.norm(bracket_cols - Pw @ bracket_cols, 2)
    if resid > 1e-7 * max(1.0, np.linalg.norm(bracket_cols, 2)):
        raise NumericFailure(
            f"derived algebra is not contained in the weight-2 core "
            f"(residual {resid:.2e})"
        )

    # the quotient by W is Abelian; its norm ball is scaled so the lifted
    # ball sits inside the tuned unit ball of the complement
    comp_gonb, proj, A_hat, qview = _quotient(view, A, gram, W)
    inner = _build_quotient(qview, A_hat, params, rng)
    evals = np.linalg.eigvalsh((inner.gram + inner.gram.T) / 2.0)
    if evals[0] < 1.0:
        inner = NormBall(inner.gram / evals[0] * (1.0 + 1e-12))

    # analytic cap floor from the chi function and the bracket bound
    action = DilationAction(A)
    nu = _restricted_opnorm(action.N, v2.basis, gram)
    m2 = _nilpotent_index_on(action.N, v2.basis)
    kappa = sum(nu**j / math.factorial(j) for j in range(1, max(m2, 1)))
    Cb = _bilinear_norm_bound(view.tensor, gram)
    if kappa > 0:
        floor = (kappa * find_chi_constant(max(m2 - 1, 1)) + Cb / 2.0) / 2.0
    else:
        floor = Cb / 4.0
    return _build_layered(
        view, action, gram, W, inner, A_hat, proj, comp_gonb, floor, params, rng
    )


def _nilpotent_index_on(N, basis) -> int:
    R = basis.T @ N @ basis
    P = np.eye(R.shape[0])
    for k in range(1, R.shape[0] + 2):
        P = P @ R
        if np.linalg.norm(P, 2) <= 1e-10 * max(1.0, np.linalg.norm(R, 2)) ** k:
            return k
    return R.shape[0] + 1


def _build_general(view, A, grading: Grading, params, rng):
    """Top weight > 2: cap the top layer and recurse on the quotient."""
    n = view.dim
    theta = default_theta(grading.weights, general_top=True)
    gram = tuned_norm(n, A, theta, grading=grading).gram
    *lower, top_layer = grading.layers
    top = top_layer.basis

    comp_gonb, proj, A_hat, qview = _quotient(view, A, gram, top)
    inner = _build_quotient(qview, A_hat, params, rng)

    # scale the quotient ball so the sum of layer norms of lifted points
    # stays below 1 (the contraction estimate needs it)
    XI = sample_in_ball(inner, qview.dim, params.cap_samples, rng)
    Xbar = XI @ comp_gonb.T
    total = np.zeros(XI.shape[0])
    for layer in lower:
        Lb = _gram_orthonormalize(layer.basis, gram)
        total += np.linalg.norm(Xbar @ (Lb.T @ gram).T, axis=1)
    S = float(total.max()) * 1.05
    if S > 1.0:
        inner = dilate_ball(inner, A_hat, 1.0 / S)

    return _build_layered(
        view, DilationAction(A), gram, top, inner, A_hat, proj, comp_gonb, 0.0, params, rng
    )


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
    return _build_recursive(view, to_float(A), verdict.grading, params, rng)


def build_distance(g, A, *, params: BuildParams | None = None) -> "HomogeneousDistance":
    ball = build_ball(g, A, params=params)
    return HomogeneousDistance(AlgebraView.of(g), to_float(A), ball)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


class MetricFunction:
    """Batched distance protocol: pair(P, Q) -> per-row distances."""

    dim: int
    stack_factor: int = 1  # internal row blow-up of one pair() call

    def pair(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def pair_chunked(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """pair() split into chunks sized so that composite distances
        (max over maps, sup over dilations) stay within a memory budget
        of 3 million internal rows per call."""
        P = np.atleast_2d(P)
        Q = np.atleast_2d(Q)
        chunk = max(1, 3_000_000 // max(self.stack_factor, 1))
        if P.shape[0] <= chunk:
            return self.pair(P, Q)
        out = np.empty(P.shape[0])
        for lo in range(0, P.shape[0], chunk):
            hi = lo + chunk
            out[lo:hi] = self.pair(P[lo:hi], Q[lo:hi])
        return out

    def point(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return self.pair(np.zeros_like(X), X)

    def __call__(self, p, q) -> float:
        return float(self.pair(np.atleast_2d(p), np.atleast_2d(q))[0])


@dataclass(frozen=True)
class GaugeRecord:
    """What one gauge call did.  Rows are answered in closed form unless
    some level of the ball needs the solver; a pass is one batched excess
    evaluation over the rows still open."""

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
    each an up-set in mu, so N = max(N_top, N_inner(proj x)) when
    proj A = quotient_A proj and top_map A = M top_map; the cap is then
    the norm ball of radius cap for M on the top coordinates.  A leaf has
    a closed form when A acts on it conformally: A^T G + G A = 2t G for a
    NormBall (N = (x^T G x)^(1/2t)), A = t I for a PolyBall
    (N = max_i |r_i . x|^(1/t)).  Returns (closed, solved): closed terms
    (R, t, sup) mean N = |R x|^(1/t) in the 2-norm or, with sup, the
    max-norm; solved terms (ball, A, P) go to the Illinois solver.
    """
    if isinstance(ball, LayeredBall):
        T, Q = ball.top_map, ball.proj
        M = T @ A @ np.linalg.pinv(T)
        scale = np.linalg.norm(A)
        if _near(T @ A, M @ T, scale * np.linalg.norm(T)) and _near(
            Q @ A, ball.quotient_A @ Q, scale * np.linalg.norm(Q)
        ):
            cap = NormBall(np.eye(T.shape[0]) / ball.cap**2)
            c1, s1 = _gauge_terms(cap, M, T @ P)
            c2, s2 = _gauge_terms(ball.inner, ball.quotient_A, Q @ P)
            return c1 + c2, s1 + s2
    t = float(np.trace(A)) / A.shape[0]
    if isinstance(ball, NormBall) and _near(
        A.T @ ball.gram + ball.gram @ A,
        2.0 * t * ball.gram,
        np.linalg.norm(A) * np.linalg.norm(ball.gram),
    ):
        L = np.linalg.cholesky((ball.gram + ball.gram.T) / 2.0)
        return [(L.T @ P, t, False)], []
    if isinstance(ball, PolyBall) and _near(A, t * np.eye(A.shape[0]), np.linalg.norm(A)):
        return [(ball.rows @ P, t, True)], []
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
    gauge call, `gauge_record` says how its rows were answered.
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
        self._closed, solved = _gauge_terms(ball, self.A, np.eye(self.dim))
        self._solved = [
            (b, self.action if A_level is self.A else DilationAction(A_level), P)
            for b, A_level, P in solved
        ]
        self._record = GaugeRecord()

    @property
    def gauge_record(self) -> GaugeRecord:
        """What the last gauge call did."""
        return self._record

    def gauge(self, X: np.ndarray) -> np.ndarray:
        """N(x) = inf{mu > 0 : mu^(-A) x in B}, as the maximum of its
        per-level terms (see `_gauge_terms`).

        Closed-form terms are evaluated in log space, each row scaled by
        its largest entry, so they hold at every representable scale; the
        other levels go to `_illinois_log_gauge`.  Raises OverflowError
        where N itself exceeds the float range.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m = np.abs(X).max(axis=1)
        if not np.all(np.isfinite(m)):
            raise ValueError("gauge input has a non-finite entry")
        live = m > 0
        Xn = X[live] / m[live, None]
        logm = np.log(m[live])
        logN = np.full(Xn.shape[0], -np.inf)
        with np.errstate(divide="ignore"):
            for R, t, sup in self._closed:
                Y = Xn @ R.T
                size = np.abs(Y).max(axis=1)
                if not sup:  # the 2-norm scaled by the largest entry cannot underflow
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
        self._record = GaugeRecord(X.shape[0] - nsolved, nsolved, **counts)
        if np.any(logN > _LOG_MAX):
            raise OverflowError("gauge value exceeds the float range")
        out = np.zeros(X.shape[0])
        out[live] = np.exp(logN)
        return out

    def pair(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        return self.gauge(self.ops.product(-P, Q))

    def point(self, X: np.ndarray) -> np.ndarray:
        return self.gauge(np.atleast_2d(X))

    def to_json(self) -> dict:
        return {"A": self.A.tolist(), "ball": ball_to_json(self.ball)}


class MaxOverMaps(MetricFunction):
    """d'(x, y) = max_k d(k x, k y) over a finite family of automorphisms."""

    def __init__(self, base: MetricFunction, mats: list[np.ndarray]):
        self.base = base
        self.dim = base.dim
        self.mats = [np.asarray(M, dtype=float) for M in mats]
        if not any(np.allclose(M, np.eye(self.dim)) for M in self.mats):
            self.mats.insert(0, np.eye(self.dim))
        self.stack_factor = base.stack_factor * len(self.mats)

    def pair(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(P)
        Q = np.atleast_2d(Q)
        stackP = np.vstack([P @ M.T for M in self.mats])
        stackQ = np.vstack([Q @ M.T for M in self.mats])
        vals = self.base.pair(stackP, stackQ).reshape(len(self.mats), P.shape[0])
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

    def pair(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(P)
        Q = np.atleast_2d(Q)
        m = P.shape[0]
        g = len(self.mus)
        mus_rep = np.repeat(self.mus, m)
        stackP = self.action.apply(mus_rep, np.tile(P, (g, 1)))
        stackQ = self.action.apply(mus_rep, np.tile(Q, (g, 1)))
        vals = self.base.pair(stackP, stackQ) / mus_rep
        return vals.reshape(g, m).max(axis=0)


def averaged_distance(d: MetricFunction, K_samples: list[np.ndarray]) -> MetricFunction:
    """Left-invariant distance max_k d(kx, ky) over sampled isometry
    candidates (always includes the identity).

    When d is the gauge distance of a polytope ball and every map
    commutes with the dilation generator, the maximum collapses exactly
    to the gauge of the intersection of the mapped polytopes, which is
    evaluated as a single ball test instead of one gauge per map.
    """
    mats = [np.asarray(M, dtype=float) for M in K_samples]
    if (
        isinstance(d, HomogeneousDistance)
        and isinstance(d.ball, PolyBall)
        and all(
            np.linalg.norm(M @ d.A - d.A @ M, 2)
            <= 1e-9 * max(1.0, np.linalg.norm(d.A, 2))
            for M in mats
        )
    ):
        rows = np.vstack([d.ball.rows] + [d.ball.rows @ M for M in mats])
        # |r.x| <= 1 is sign-symmetric, so antipodal and duplicate rows drop
        nz = np.abs(rows) > 1e-12
        rows = rows[nz.any(axis=1)]
        first = np.argmax(np.abs(rows) > 1e-12, axis=1)
        signs = np.sign(rows[np.arange(rows.shape[0]), first])
        canon = rows * signs[:, None]
        _, keep = np.unique(np.round(canon, 12), axis=0, return_index=True)
        return HomogeneousDistance(d.view, d.A, PolyBall(rows[np.sort(keep)]))
    return MaxOverMaps(d, mats)


def common_period(ratios, max_q: int, tol: float) -> int | None:
    """Smallest q in 1..max_q with q * r within tol of an integer for every
    r in ratios, or None when there is none."""
    qr = np.arange(1, max_q + 1)[:, None] * np.asarray(ratios, dtype=float)[None, :]
    hits = np.flatnonzero(np.all(np.abs(qr - np.round(qr)) <= tol, axis=1))
    return int(hits[0]) + 1 if hits.size else None


def compact_closure_samples(
    K,
    *,
    max_orbit: int = 10**4,
    return_tol: float = 1e-6,
    grid_per_angle: int = 64,
    view: AlgebraView | None = None,
    unit_modulus_tol: float = 1e-9,
):
    """Finite sample of the closure of the group generated by K.

    The regime is read off the eigenvalue phases: when some q <= max_orbit
    turns every phase into a multiple of 2 pi (within return_tol), and
    ||K^q - I|| <= return_tol confirms it, the closure is the finite orbit
    I, K, ..., K^(q-1); otherwise it is approximated by a product grid over
    the torus directions of the phases.  For a non-Abelian algebra the grid
    elements are kept only if they are automorphisms (warned otherwise).

    Returns (mats, info) with info describing which regime was used.
    """
    Kf = to_float(K)
    n = Kf.shape[0]
    spec = generalized_eigenspaces(Kf)
    for c in spec.clusters:
        if abs(abs(c.value) - 1.0) > unit_modulus_tol:
            raise ValueError(
                f"eigenvalue {c.value:g} has modulus != 1; no compact closure"
            )
    turns = [np.angle(c.value) / (2 * np.pi) for c in spec.clusters]
    q = common_period(turns, max_orbit, return_tol / (2 * np.pi))
    if q is not None:
        mats = [np.eye(n)]
        for _ in range(q):
            mats.append(mats[-1] @ Kf)
        if np.linalg.norm(mats.pop() - np.eye(n), 2) <= return_tol:
            return mats, {"mode": "orbit", "order": q}
    mats, pos_angles = torus_grid_mats(spec, grid_per_angle, view)
    return mats, {"mode": "torus", "angles": pos_angles, "count": len(mats)}


def torus_grid_mats(spec: SpectralData, grid_per_angle: int, view: AlgebraView | None):
    """Product-grid sample of the torus spanned by the eigenvalue phases
    of a diagonalizable unit-modulus matrix.  Grid elements that fail the
    automorphism identity on a non-Abelian algebra are dropped with a
    warning (the remainder still averages to a distance)."""
    P = spec.basis_matrix()
    Pinv = np.linalg.inv(P)
    col_angles = np.angle(spec.column_values())
    pos_angles = sorted({round(a, 12) for a in col_angles if a > 1e-12})
    grids = []
    for a in pos_angles:
        if abs(a - np.pi) <= 1e-9:
            grids.append(np.array([0.0, np.pi]))
        else:
            grids.append(np.linspace(0.0, 2 * np.pi, grid_per_angle, endpoint=False))
    total = int(np.prod([len(gv) for gv in grids])) if grids else 1
    if total > 10**5:
        raise NumericFailure(
            f"torus grid would need {total} elements; reduce grid_per_angle"
        )
    mats = []
    dropped = 0
    mesh = np.meshgrid(*grids, indexing="ij") if grids else []
    combos = (
        np.stack([mg.reshape(-1) for mg in mesh], axis=1)
        if grids
        else np.zeros((1, 0))
    )
    for phis in combos:
        diag = np.ones(len(col_angles), dtype=complex)
        for ai, a in enumerate(pos_angles):
            sel_pos = np.abs(col_angles - a) <= 1e-9
            sel_neg = np.abs(col_angles + a) <= 1e-9
            diag[sel_pos] = np.exp(1j * phis[ai])
            diag[sel_neg] = np.exp(-1j * phis[ai])
        M = ((P * diag[None, :]) @ Pinv).real
        if view is not None and not view.is_abelian:
            lhs = np.einsum("ijk,ia,jb->abk", view.tensor, M, M)
            rhs = np.einsum("abl,kl->abk", view.tensor, M)
            if np.abs(lhs - rhs).max() > 1e-7:
                dropped += 1
                continue
        mats.append(M)
    if dropped:
        warnings.warn(
            f"{dropped} torus grid elements were not automorphisms and were dropped",
            stacklevel=2,
        )
    return mats, pos_angles


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
    spread: float = 2.0,
    dilation_tol: float = 1e-6,
):
    """Two-sided comparison constants for distances sharing the dilation
    delta of factor lam > 1.

    Finds the integer k with delta^k B_1 inside B_2 from sampled gauge
    ratios, returns L2 = lam^(1-k) (and symmetrically L1), and validates
    d2 <= L2 d1 pointwise on a fresh sample.
    """
    if lam <= 1:
        raise ValueError("common dilation factor must be > 1")
    rng = np.random.default_rng(seed)
    Df = to_float(delta)
    n = Df.shape[0]
    X = rng.normal(size=(samples, n)) * spread
    Y = rng.normal(size=(samples, n)) * spread
    r1 = d1.pair_chunked(X, Y)
    r2 = d2.pair_chunked(X, Y)
    s1 = d1.pair_chunked(X @ Df.T, Y @ Df.T)
    s2 = d2.pair_chunked(X @ Df.T, Y @ Df.T)
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
    Xv = rng.normal(size=(samples, n)) * spread
    Yv = rng.normal(size=(samples, n)) * spread
    v1 = d1.pair_chunked(Xv, Yv)
    v2 = d2.pair_chunked(Xv, Yv)
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
    spread: float = 1.5,
) -> AxiomReport:
    """Sampled metric-axiom harness: symmetry, positivity away from the
    diagonal, triangle inequality, left-invariance, and (when A is
    given) dilation homogeneity.  Residuals are worst cases over the
    sample; triangle excess is absolute, the rest relative.
    """
    rng = np.random.default_rng(seed)
    n = d.dim
    X = rng.uniform(-spread, spread, size=(samples, n))
    Y = rng.uniform(-spread, spread, size=(samples, n))
    Z = rng.uniform(-spread, spread, size=(samples, n))
    dxy = d.pair_chunked(X, Y)
    dyx = d.pair_chunked(Y, X)
    symmetry = float(np.max(np.abs(dxy - dyx) / np.maximum(dxy, 1e-300)))
    sep = np.abs(X - Y).max(axis=1) >= 1e-3
    positivity = float(dxy[sep].min()) if np.any(sep) else float("inf")
    dxz = d.pair_chunked(X, Z)
    dyz = d.pair_chunked(Y, Z)
    triangle = float(np.max(dxz - (dxy + dyz)))
    if view is not None:
        ops = view.ops()
        dz = d.pair_chunked(ops.product(Z, X), ops.product(Z, Y))
        left = float(np.max(np.abs(dz - dxy) / np.maximum(dxy, 1e-300)))
    else:
        left = 0.0
    homog = None
    if A is not None:
        action = DilationAction(to_float(A))
        lam = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=samples))
        dl = d.pair_chunked(action.apply(lam, X), action.apply(lam, Y))
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
