"""Construction of the unit balls of dilation-homogeneous distances.

The construction builds a ball (see `ball`) closed under the two-point
dilation average (lam^A x) * ((1-lam)^A y) by induction on the number
of grading layers:

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
What no sample touches (the verdict, each level's quotient, grading,
tuned gram and compiled group law) is the build plan, made once per
algebra and derivation and kept on the algebra; every build runs the
sampled stages (quotient scaling, cap estimate, validation) afresh.
`build_distance` pairs the ball with its derivation as a
`distance.HomogeneousDistance`.  The public names of `ball` and
`distance` are imported here too, so each still resolves as
`nilmetric.metric.<name>`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .ball import (
    BuildRejected,
    LayeredBall,
    NormBall,
    NumericFailure,
    PolyBall,
    _flat_form,
    _independent_rows,
    ball_from_json,
    ball_to_json,
    box_ball,
    dilate_ball,
)
from .distance import (
    AxiomReport,
    GaugeRecord,
    HomogeneousDistance,
    MaxOverMaps,
    MetricFunction,
    SupOverDilations,
    averaged_distance,
    bilipschitz_constants,
    box_ball_certificate,
    sphere_polyline,
    verify_axioms,
)
from .exact import to_float
from .group import AlgebraView, central_series_basis
from .spectral import DilationAction

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

    def __post_init__(self):
        for name in ("convexity_samples", "cap_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


# cap doublings before a layered build gives up
_CAP_DOUBLINGS = 20


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
    """count points drawn uniformly from the ball, read off its flat form.

    In the coordinates W x of its flat form (`ball._flat_form`) every ball
    is a product of round balls, one per level of radius its cap, and at
    most one polytope base, for built, dilated and deserialized balls
    alike.  So each level's round ball is drawn, top-down, then the base,
    and one product with F = W^-T maps them all; a ball whose W is not
    square and invertible cannot be sampled.  A polytope is drawn
    uniformly from the parallelepiped of n independent rows, which
    contains it, and kept where inside (a box keeps every draw).
    """
    if ball.dim != dim:
        raise ValueError(f"ball has dimension {ball.dim}, not {dim}")
    if isinstance(ball, PolyBall):
        return _sample_polytope(ball, count, rng)
    W, starts, caps, base, F = _flat_form(ball)
    if F is None:
        raise NumericFailure(f"the {W.shape[0]} x {dim} map of the ball's levels is not invertible")
    # a row per coordinate, so that each level fills a contiguous block
    XT = np.empty((dim, count))
    for lo, hi, cap in zip(starts, starts[1:], caps):
        np.multiply(_unit_ball_draws(hi - lo, count, rng).T, cap, out=XT[lo:hi])
    if base is not None:
        XT[starts[-1] :] = _sample_polytope(base, count, rng).T
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
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
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


@dataclass(frozen=True, eq=False)
class _Level:
    """One level of a build plan: its view, whose compiled group law every
    build reuses, the DilationAction of its derivation (action.A) and its
    tuned gram; a non-Abelian level also holds the capped top layer's map
    top_map, the gram-orthonormal quotient basis comp_gonb with its
    coordinate map proj, and the maps of its layers (layer_maps)."""

    view: AlgebraView
    action: DilationAction
    gram: np.ndarray
    top_map: np.ndarray | None = None
    comp_gonb: np.ndarray | None = None
    proj: np.ndarray | None = None
    layer_maps: tuple = ()


def _make_plan(g, A):
    """(verdict, levels): the classifier's verdict and, when it says yes,
    the levels of the construction top-down, down to the Abelian base;
    every array in them is read-only.

    An Abelian level gets the tuned norm.  Any other level caps its top
    layer, or only the layer's diagonalizable core (which contains
    [g, g]) when the top weight is at most 2, and the next level is the
    quotient by the capped span, graded once here.
    """
    # imported here so the classifier is looked up on its module at call time
    from .grading import WEIGHT_TOL, classify_derivation, grading_from_derivation

    verdict = classify_derivation(g, A)
    if not verdict.answer:
        return verdict, ()
    view, Af, grading, levels = AlgebraView.of(g), np.array(A, dtype=float), verdict.grading, []
    while not view.is_abelian:
        theta = default_theta(grading.weights, general_top=True)
        gram = tuned_norm(view.dim, Af, theta, grading=grading).gram
        top = grading.layers[-1]
        capped = top.core if top.weight <= 2 + WEIGHT_TOL else top.basis
        if capped.shape[1] == 0:
            raise NumericFailure(
                "non-Abelian algebra with top weight <= 2 has no diagonalizable "
                "weight-2 core; grading data is inconsistent"
            )
        comp_gonb, proj, A_hat, qview = _quotient(view, Af, gram, capped)
        top_map = _gram_orthonormalize(capped, gram).T @ gram
        layer_maps = tuple((_gram_orthonormalize(l.basis, gram).T @ gram).T for l in grading.layers)
        action = DilationAction(Af, spec=grading.spec)
        view.ops().block  # compiles the level's group law
        levels.append(_Level(view, action, gram, top_map, comp_gonb, proj, layer_maps))
        view, Af, grading = qview, A_hat, grading_from_derivation(None, A_hat)
    gram = tuned_norm(view.dim, Af, default_theta(grading.weights), grading=grading).gram
    levels.append(_Level(view, DilationAction(Af, spec=grading.spec), gram))
    for level in levels:
        action = level.action
        for v in [*vars(level).values(), *level.layer_maps, *vars(action).values(), *action.npows]:
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
    return verdict, tuple(levels)


def _plan(g, A):
    """The build plan of (g, A), made once and kept on the algebra, keyed by
    A's content as given: an exact A and a float A never share a plan."""
    a = np.asarray(A)
    key = a.dtype.str, a.shape, tuple(a.flat) if a.dtype == object else a.tobytes()
    if key not in g._plans:
        g._plans[key] = _make_plan(g, A)
    return g._plans[key]


def _build_layered(level: _Level, qaction: DilationAction, inner, params: BuildParams, rng):
    """A level's LayeredBall over the quotient ball `inner`, from its
    sampled stages: the quotient scaling, the cap estimate, then
    dilation-convexity validation, doubling the cap until it passes;
    qaction is the quotient's DilationAction.  Each sample is drawn and
    measured a block of the group law at a time."""
    ops = level.view.ops()
    # scale the quotient ball so the sum of layer norms of lifted points
    # stays below 1 (the contraction estimate needs it); a weight-2 part
    # outside the capped core lies in the quotient and is counted
    S = 0.0
    for m in _block_sizes(params.cap_samples, ops.block):
        Xbar = sample_in_ball(inner, inner.dim, m, rng) @ level.comp_gonb.T
        S = max(S, float(sum(np.linalg.norm(Xbar @ M, axis=1) for M in level.layer_maps).max()))
    S *= 1.05
    if S > 1.0:
        inner = dilate_ball(inner, qaction, 1.0 / S)

    action, top_map, comp_onb = level.action, level.top_map, level.comp_gonb
    ratio_lam = ratio_pair = 0.0
    for m in _block_sizes(params.cap_samples, ops.block):
        XI = sample_in_ball(inner, inner.dim, m, rng)
        ETA = sample_in_ball(inner, inner.dim, m, rng)
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
    ball = LayeredBall(top_map, C, level.proj, inner)
    for _ in range(_CAP_DOUBLINGS + 1):
        seed = int(rng.integers(2**31))
        report = verify_A_convexity(ball, level.view, action, params.convexity_samples, seed)
        if report.ok:
            return ball
        ball = ball.with_cap(ball.cap * 2.0)
    raise NumericFailure(
        f"cap search exhausted its budget of {_CAP_DOUBLINGS} doublings "
        f"(last violation excess {report.worst_excess:.3e})"
    )


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

    Rejects (BuildRejected) when the existence classifier says no.  The
    plan of (g, A) (`_make_plan`) is made on the first build and kept on
    g; each build walks its levels bottom-up and runs only the sampled
    stages (`_build_layered`), drawing every sample from one generator
    seeded by params.seed, so a repeat build gives the same ball.
    """
    params = params or BuildParams()
    verdict, levels = _plan(g, A)
    if not verdict.answer:
        raise BuildRejected(verdict)
    rng = np.random.default_rng(params.seed)
    ball = NormBall(levels[-1].gram)
    for level, below in zip(levels[-2::-1], levels[:0:-1]):
        ball = _build_layered(level, below.action, ball, params, rng)
    return ball


def build_distance(g, A, *, params: BuildParams | None = None) -> "HomogeneousDistance":
    ball = build_ball(g, A, params=params)
    return HomogeneousDistance(AlgebraView.of(g), to_float(A), ball)

