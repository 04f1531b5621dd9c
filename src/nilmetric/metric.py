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
N(x) = inf{mu > 0 : mu^(-A) x in B} is evaluated by geometric bisection,
which is justified because membership along mu is monotone for a
dilation-convex ball.  All evaluation paths are vectorized over batches
of points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exact import to_float
from .grading import Grading, grading_from_derivation
from .group import GroupOps, float_nilpotency_step
from .spectral import SpectralData, generalized_eigenspaces, lambda_pow, spectral_map

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
    "MaxOverMaps",
    "SupOverDilations",
    "averaged_distance",
    "sup_distance",
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
# ---------------------------------------------------------------------------


class NormBall:
    """{x : x^T gram x <= 1} for a symmetric positive definite gram."""

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
    """{x : |row . x| <= 1 for every row}; covers sup-norm boxes."""

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

    Membership: ||top_map @ x||_2 <= cap  and  inner.contains(proj @ x).
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


class DilationAction:
    """Fast evaluation of mu^A x for per-sample scale factors mu.

    Splits A into its commuting semisimple and nilpotent parts once, so a
    batched application costs a few matrix products instead of one matrix
    exponential per sample.
    """

    def __init__(self, A, spec: SpectralData | None = None):
        self.A = to_float(A)
        n = self.A.shape[0]
        if spec is None:
            spec = generalized_eigenspaces(self.A)
        self.spec = spec
        S = spectral_map(self.A, lambda a: a, spec)
        N = self.A - S
        scale = max(1.0, float(np.linalg.norm(self.A, 2)))
        pows = [np.eye(n)]
        if np.linalg.norm(N, 2) > 1e-12 * scale:
            for j in range(1, n):
                nxt = pows[-1] @ N
                if np.linalg.norm(nxt, 2) <= 1e-12 * scale**j:
                    break
                pows.append(nxt)
        self.npows = pows
        # real block basis of the semisimple part: 1x1 blocks for real
        # eigenvalues, 2x2 rotation-scaling blocks for conjugate pairs
        cols: list[np.ndarray] = []
        real_idx: list[int] = []
        real_a: list[float] = []
        pair_idx: list[int] = []
        pair_a: list[float] = []
        pair_b: list[float] = []
        for c in spec.clusters:
            if abs(c.value.imag) <= 0:
                real_idx.extend(range(len(cols), len(cols) + c.multiplicity))
                real_a.extend([c.value.real] * c.multiplicity)
                for k in range(c.multiplicity):
                    cols.append(c.basis[:, k].real)
            elif c.value.imag > 0:
                for k in range(c.multiplicity):
                    pair_idx.append(len(cols))
                    pair_a.append(c.value.real)
                    pair_b.append(c.value.imag)
                    cols.append(c.basis[:, k].real)
                    cols.append(c.basis[:, k].imag)
        self.Pr = np.stack(cols, axis=1)
        self.Prinv = np.linalg.inv(self.Pr)
        self.real_idx = np.array(real_idx, dtype=int)
        self.real_a = np.array(real_a)
        self.pair_idx = np.array(pair_idx, dtype=int)
        self.pair_a = np.array(pair_a)
        self.pair_b = np.array(pair_b)

    def apply(self, mus, X: np.ndarray) -> np.ndarray:
        """Rows of X scaled by mus[i]^A (mus scalar or per-row array)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        mus = np.asarray(mus, dtype=float)
        if mus.ndim == 0:
            mus = np.full(X.shape[0], float(mus))
        if np.any(mus <= 0):
            raise ValueError("dilation parameters must be positive")
        logm = np.log(mus)
        Y = X
        if len(self.npows) > 1:
            Y = np.zeros_like(X)
            fac = np.ones_like(logm)
            for j, Nj in enumerate(self.npows):
                if j > 0:
                    fac = fac * logm / j
                Y += fac[:, None] * (X @ Nj.T)
        xi = Y @ self.Prinv.T
        out = np.empty_like(xi)
        if self.real_idx.size:
            scale = np.exp(np.outer(logm, self.real_a))
            out[:, self.real_idx] = xi[:, self.real_idx] * scale
        if self.pair_idx.size:
            r = np.exp(np.outer(logm, self.pair_a))
            ang = np.outer(logm, self.pair_b)
            c, s = r * np.cos(ang), r * np.sin(ang)
            u = xi[:, self.pair_idx]
            v = xi[:, self.pair_idx + 1]
            # the block of the semisimple part in the (Re b, Im b) basis is
            # [[a, b], [-b, a]]; row vectors multiply by its exp transposed
            out[:, self.pair_idx] = c * u + s * v
            out[:, self.pair_idx + 1] = -s * u + c * v
        return out @ self.Pr.T


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


def _restricted_opnorm(T: np.ndarray, basis: np.ndarray, gram: np.ndarray) -> float:
    """Operator norm of T restricted to an invariant column span, in the
    gram inner product."""
    S = basis.T @ T @ basis  # valid for orthonormal (euclidean) basis columns
    G = basis.T @ gram @ basis
    L = np.linalg.cholesky((G + G.T) / 2.0)
    M = L.T @ S @ np.linalg.inv(L).T
    return float(np.linalg.norm(M, 2))


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


def tuned_norm(
    dim: int,
    A,
    theta: float,
    *,
    grading: Grading | None = None,
    weight_tol: float = 1e-7,
    grid: int = 1000,
    max_halvings: int = 60,
    slack: float = 1e-9,
) -> TunedNorm:
    """Inner product with orthogonal layers in which every dilation
    mu^A, mu <= 1, contracts the weight-t layer by at least mu^(t-theta),
    and by exactly mu^t where A is diagonalizable.

    The nilpotent part of A is damped by scaling an eigen-filtration
    basis with powers of epsilon; epsilon starts at 1 and is halved until
    a mu-grid verification of both bounds passes.  Without a grading,
    the grading of A is computed with weight_tol.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    Af = to_float(A)
    if grading is None:
        grading = grading_from_derivation(None, Af, weight_tol=weight_tol)
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

    layers = [(l.weight, l.basis) for l in grading.layers]
    # diagonalizable cores, for the exact mu^t bound
    cores = [(l.weight, l.core) for l in grading.layers if l.core.shape[1]]

    action = DilationAction(Af, spec)
    mus = np.geomspace(1e-6, 1.0, grid)
    Tmats = [action.apply(np.full(n, mu), np.eye(n)).T for mu in mus]

    eps = 1.0
    last_fail = ""
    for _ in range(max_halvings + 1):
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

        ok = True
        for bound_shift, family in ((theta, layers), (0.0, cores)):
            if not ok:
                break
            for weight, basis in family:
                bound = mus ** (weight - bound_shift)
                norms = np.array(
                    [_restricted_opnorm(T, basis, gram) for T in Tmats]
                )
                bad = norms > bound * (1.0 + slack)
                if np.any(bad):
                    i = int(np.argmax(norms / bound))
                    last_fail = (
                        f"t={weight:g} (shift {bound_shift:g}): |mu^A| = "
                        f"{norms[i]:.6g} > mu^{weight - bound_shift:g} = "
                        f"{bound[i]:.6g} at mu = {mus[i]:.3g}"
                    )
                    ok = False
                    break
        if ok:
            return TunedNorm(gram, theta, eps, grading)
        eps *= 0.5
    raise NumericFailure(
        f"tuned norm verification failed after {max_halvings} halvings: {last_fail}"
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
    weight_tol: float = 1e-7
    theta: float | None = None
    eps_grid: int = 1000
    convexity_samples: int = 20000
    cap_samples: int = 10**4
    cap_budget: int = 20
    margin: float = 1e-9
    seed: int = 12345


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
    doubling from r = 1, then bisection until no bracket shrinks."""
    U = np.atleast_2d(U)
    hi = np.ones(U.shape[0])
    out = ball.contains(U)
    for _ in range(200):
        if not out.any():
            break
        hi[out] *= 2.0
        out[out] = ball.contains(hi[out, None] * U[out])
    else:
        raise NumericFailure("ball is unbounded along a ray")
    lo = np.where(hi > 1.0, hi / 2.0, 0.0)
    # in floating point the midpoint reaches an end after at most ~1100
    # halvings (down to the subnormals), so this loop terminates
    while True:
        mid = 0.5 * (lo + hi)
        rows = np.flatnonzero((lo < mid) & (mid < hi))
        if rows.size == 0:
            return hi
        inside = ball.contains(mid[rows, None] * U[rows])
        lo[rows[inside]] = mid[rows[inside]]
        hi[rows[~inside]] = mid[rows[~inside]]


def sample_in_ball(
    ball, dim: int, count: int, rng: np.random.Generator, *, box_factor: float = 1.5
) -> np.ndarray:
    """Rejection sampling from the bounding box (approximately uniform;
    only membership matters for the convexity checks)."""
    radii = _ray_radii(ball, np.eye(dim)) * box_factor
    out = np.empty((0, dim))
    attempts = 0
    while out.shape[0] < count:
        attempts += 1
        m = max(4 * count, 1024)
        X = rng.uniform(-1.0, 1.0, size=(m, dim)) * radii[None, :]
        X = X[ball.contains(X)]
        out = np.vstack([out, X])
        if attempts > 200:
            raise NumericFailure("rejection sampling acceptance rate too low")
    return out[:count]


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
    """Sampled check of closure under (lam^A x) * ((1-lam)^A y)."""
    rng = np.random.default_rng(seed)
    action = DilationAction(to_float(A))
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
    A: np.ndarray,
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
    dilation-convexity and double the cap until it passes."""
    top_gonb = _gram_orthonormalize(top_basis, gram)
    top_map = top_gonb.T @ gram
    ops = view.ops()
    action = DilationAction(A)

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
    for _ in range(params.cap_budget + 1):
        report = verify_A_convexity(
            ball, view, A, samples=params.convexity_samples,
            seed=int(rng.integers(2**31)), margin=params.margin,
        )
        if report.ok:
            return ball
        ball = ball.with_cap(ball.cap * 2.0)
    raise NumericFailure(
        f"cap search exhausted its budget of {params.cap_budget} doublings "
        f"(last violation excess {report.worst_excess:.3e})"
    )


def _build_recursive(
    view: AlgebraView, A: np.ndarray, grading: Grading, params: BuildParams, rng
):
    weights = grading.weights
    if view.is_abelian:
        theta = params.theta if params.theta is not None else default_theta(weights)
        tuned = tuned_norm(view.dim, A, theta, grading=grading, grid=params.eps_grid)
        return NormBall(tuned.gram)
    if max(weights) <= 2 + params.weight_tol:
        return _build_two_layer(view, A, grading, params, rng)
    return _build_general(view, A, grading, params, rng)


def _build_quotient(qview: AlgebraView, A_hat: np.ndarray, params: BuildParams, rng):
    """Ball on a quotient, graded afresh by the induced derivation."""
    grading = grading_from_derivation(None, A_hat, weight_tol=params.weight_tol)
    return _build_recursive(qview, A_hat, grading, params, rng)


def _build_two_layer(view, A, grading: Grading, params, rng):
    """Top weight <= 2: cap the diagonalizable weight-2 core W (it contains
    [g, g]) and put the Abelian tuned norm ball on the quotient."""
    n = view.dim
    theta = params.theta if params.theta is not None else default_theta(grading.weights)
    tuned = tuned_norm(n, A, theta, grading=grading, grid=params.eps_grid)
    gram = tuned.gram
    scale = max(1.0, float(np.linalg.norm(A, 2)))

    # W = real form of the eigenvector (not just generalized) spaces at Re a = 2
    v2 = grading.layer_at(2.0, params.weight_tol)
    if v2 is None or v2.core.shape[1] == 0:
        raise NumericFailure(
            "non-Abelian algebra with top weight <= 2 has no diagonalizable "
            "weight-2 core; grading data is inconsistent"
        )
    W = v2.core
    total = W.shape[1]

    # [g, g] must land in W
    bracket_cols = view.tensor.reshape(n * n, n).T
    Pw = W @ W.T
    resid = np.linalg.norm(bracket_cols - Pw @ bracket_cols, 2)
    if resid > 1e-7 * max(1.0, np.linalg.norm(bracket_cols, 2)):
        raise NumericFailure(
            f"derived algebra is not contained in the weight-2 core "
            f"(residual {resid:.2e})"
        )

    comp_onb = _gram_complement(gram, W)
    comp_gonb = _gram_orthonormalize(comp_onb, gram)
    proj = comp_gonb.T @ gram
    A_hat = proj @ A @ comp_gonb
    if np.linalg.norm(proj @ A - A_hat @ proj, 2) > 1e-8 * scale:
        raise NumericFailure("capped subspace is not invariant; projection failed")

    # Abelian quotient ball, scaled so the lifted ball sits inside the
    # tuned unit ball of the complement.
    qview = AlgebraView(n - total, np.zeros((n - total,) * 3), 1)
    inner = _build_quotient(qview, A_hat, params, rng)
    evals = np.linalg.eigvalsh((inner.gram + inner.gram.T) / 2.0)
    if evals[0] < 1.0:
        inner = NormBall(inner.gram / evals[0] * (1.0 + 1e-12))

    # analytic cap floor from the chi function and the bracket bound
    N = A - spectral_map(A, lambda a: a, grading.spec)
    nu = _restricted_opnorm(N, v2.basis, gram)
    m2 = _nilpotent_index_on(N, v2.basis)
    kappa = sum(nu**j / math.factorial(j) for j in range(1, max(m2, 1)))
    Cb = _bilinear_norm_bound(view.tensor, gram)
    if kappa > 0:
        floor = (kappa * find_chi_constant(max(m2 - 1, 1)) + Cb / 2.0) / 2.0
    else:
        floor = Cb / 4.0
    return _build_layered(
        view, A, gram, W, inner, A_hat, proj, comp_gonb, floor, params, rng
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
    theta = params.theta if params.theta is not None else default_theta(
        grading.weights, general_top=True
    )
    tuned = tuned_norm(n, A, theta, grading=grading, grid=params.eps_grid)
    gram = tuned.gram
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    *lower, top_layer = grading.layers
    top = top_layer.basis

    comp_onb = _gram_complement(gram, top)
    comp_gonb = _gram_orthonormalize(comp_onb, gram)
    proj = comp_gonb.T @ gram
    A_hat = proj @ A @ comp_gonb
    if np.linalg.norm(proj @ A - A_hat @ proj, 2) > 1e-8 * scale:
        raise NumericFailure("top layer is not invariant; projection failed")

    m = n - top.shape[1]
    qtensor = np.einsum(
        "ia,jb,ijk,lk->abl",
        comp_gonb,
        comp_gonb,
        view.tensor,
        proj,
    )
    qstep = float_nilpotency_step(qtensor)
    if qstep is None:
        raise NumericFailure("quotient by the top layer is not nilpotent")
    qview = AlgebraView(m, qtensor, qstep)
    inner = _build_quotient(qview, A_hat, params, rng)

    # scale the quotient ball so the sum of layer norms of lifted points
    # stays below 1 (the contraction estimate needs it)
    XI = sample_in_ball(inner, m, params.cap_samples, rng)
    Xbar = XI @ comp_gonb.T
    total = np.zeros(XI.shape[0])
    for layer in lower:
        Lb = _gram_orthonormalize(layer.basis, gram)
        total += np.linalg.norm(Xbar @ (Lb.T @ gram).T, axis=1)
    S = float(total.max()) * 1.05
    if S > 1.0:
        inner = dilate_ball(inner, A_hat, 1.0 / S)

    return _build_layered(
        view, A, gram, top, inner, A_hat, proj, comp_gonb, 0.0, params, rng
    )


def build_ball(g, A, *, params: BuildParams | None = None):
    """Unit ball of a homogeneous distance for the derivation A.

    Rejects (BuildRejected) when the existence classifier says no.
    """
    # imported here so the classifier is looked up on its module at call time
    from .grading import classify_derivation

    params = params or BuildParams()
    verdict = classify_derivation(g, A, weight_tol=params.weight_tol)
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

    def pair_chunked(
        self, P: np.ndarray, Q: np.ndarray, target_rows: int = 3_000_000
    ) -> np.ndarray:
        """pair() split into chunks sized so that composite distances
        (max over maps, sup over dilations) stay within a memory budget."""
        P = np.atleast_2d(P)
        Q = np.atleast_2d(Q)
        chunk = max(1, target_rows // max(self.stack_factor, 1))
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


class HomogeneousDistance(MetricFunction):
    """d(p, q) = N(p^(-1) q) with N the dilation gauge of the unit ball."""

    def __init__(self, view: AlgebraView, A, ball, *, bisection_rtol: float = 1e-10):
        self.view = view
        self.A = to_float(A)
        self.ball = ball
        self.rtol = bisection_rtol
        self.ops = view.ops()
        self.action = DilationAction(self.A)
        self.dim = view.dim

    def gauge(self, X: np.ndarray) -> np.ndarray:
        """N(x) = inf{mu > 0 : mu^(-A) x in B} by geometric bisection.

        Valid because membership in mu is monotone for a dilation-convex
        ball (the set of admissible mu is an up-set).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        mrows = X.shape[0]
        out = np.zeros(mrows)
        active = np.abs(X).max(axis=1) > 0
        if not np.any(active):
            return out
        Xa = X[active]
        k = Xa.shape[0]

        def member(mu_vec, rows):
            return self.ball.contains(
                self.action.apply(1.0 / mu_vec, rows), slack=1e-13
            )

        hi = np.ones(k)
        inside = member(hi, Xa)
        for _ in range(700):
            if np.all(inside):
                break
            hi[~inside] *= 2.0
            if np.any(hi > 1e90):
                raise OverflowError(
                    "gauge bracket search overflowed; coordinates too large"
                )
            inside[~inside] = member(hi[~inside], Xa[~inside])
        else:
            raise OverflowError("gauge bracket search did not terminate")
        lo = hi / 2.0
        shrink = member(lo, Xa)
        for _ in range(700):
            if not np.any(shrink):
                break
            hi[shrink] = lo[shrink]
            lo[shrink] /= 2.0
            if np.any(lo < 1e-90):
                lo[lo < 1e-90] = 1e-90
                break
            shrink[shrink] = member(lo[shrink], Xa[shrink])
        iters = int(np.ceil(np.log2(np.log(2.0) / self.rtol))) + 2
        for _ in range(iters):
            mid = np.sqrt(lo * hi)
            ok = member(mid, Xa)
            hi[ok] = mid[ok]
            lo[~ok] = mid[~ok]
        out[active] = hi
        return out

    def pair(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        return self.gauge(self.ops.product(-P, Q))

    def point(self, X: np.ndarray) -> np.ndarray:
        return self.gauge(np.atleast_2d(X))

    def to_json(self) -> dict:
        return {
            "A": self.A.tolist(),
            "ball": ball_to_json(self.ball),
            "bisection_rtol": self.rtol,
        }


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
        return HomogeneousDistance(
            d.view, d.A, PolyBall(rows[np.sort(keep)]), bisection_rtol=d.rtol
        )
    return MaxOverMaps(d, mats)


def sup_distance(d: MetricFunction, A, lam: float, grid: int = 48) -> SupOverDilations:
    return SupOverDilations(d, A, lam, grid)


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
    k2 = math.floor(-math.log(float(ratios21.max()), lam))
    k1 = math.floor(-math.log(float(ratios12.max()), lam))
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
    ray is solved by bisection on ball membership and the residual is
    |N(r u) - 1|.
    """
    i, j = plane
    angles = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    U = np.zeros((resolution, d.dim))
    U[:, i], U[:, j] = np.cos(angles), np.sin(angles)
    pts = _ray_radii(d.ball, U)[:, None] * U
    residuals = np.abs(d.gauge(pts) - 1.0)
    return angles, pts, residuals
