"""Splitting dilating automorphisms into compact and real-spectrum parts.

Any automorphism phi factors as phi = K * lam^A where K is
C-diagonalizable with unit-modulus spectrum, A is a derivation with real
spectrum, and [K, A] = 0: on each generalized eigenspace of phi write
the eigenvalue a as (a/|a|) * |a| and peel off the unipotent remainder,
whose logarithm is the nilpotent summand of A.  The factor lam is the
caller's dilation factor; it only rescales A by 1/log(lam).

On top of the factorization, `realify` carries a self-similar distance
(one dilating automorphism) to a distance homogeneous under the whole
one-parameter group of A: the maximum over the compact closure of K and
the rebalanced supremum over one dilation period.  For a gauge distance
whose derivation commutes with A both are one maximum over maps, which
`averaged_distance` evaluates as a single gauge.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra, check_automorphism, check_derivation
from .ball import NumericFailure
from .distance import (
    HomogeneousDistance,
    MetricFunction,
    SupOverDilations,
    averaged_distance,
    bilipschitz_constants,
)
from .exact import to_float
from .grading import classify_automorphism
from .group import AlgebraView
from .spectral import DilationAction, generalized_eigenspaces, lambda_pow, log_unipotent, spectral_map

__all__ = [
    "DilationDecomposition",
    "decompose_automorphism",
    "realify",
    "RealifyResult",
    "add_compact_part",
    "compact_closure_samples",
]


@dataclass(frozen=True, eq=False)
class DilationDecomposition:
    """phi = K * lam^A with unit-modulus diagonalizable K, real-spectrum
    derivation A, and [K, A] = 0; residuals record how well the float
    computation achieved each constraint."""

    K: np.ndarray
    A: np.ndarray
    lam: float
    residuals: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "K": self.K.tolist(),
            "A": self.A.tolist(),
            "lambda": self.lam,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


# relative defect up to which realify takes delta for a dilation of d
_DILATION_TOL = 1e-6


def decompose_automorphism(g: LieAlgebra, phi, lam: float) -> DilationDecomposition:
    """Factor a verified automorphism as K * lam^A.

    K collects the eigenvalue phases, exp of the log-modulus map collects
    the sizes, and the unipotent remainder's logarithm the nilpotency;
    A is their sum divided by log(lam).
    """
    if lam <= 0 or lam == 1.0:
        raise ValueError("dilation factor must be positive and != 1")
    Pf = to_float(phi)
    chk = check_automorphism(g, Pf)
    if not chk:
        raise ValueError(f"not an automorphism: {chk.message}")
    spec = generalized_eigenspaces(Pf)
    if any(abs(c.value) < 1e-12 for c in spec.clusters):
        raise ValueError("automorphism has a numerically singular eigenvalue")

    K = spectral_map(Pf, lambda a: a / abs(a), spec)
    A_tilde = spectral_map(Pf, lambda a: math.log(abs(a)), spec)
    N = spectral_map(Pf, lambda a: 1.0 / a, spec) @ Pf
    try:
        D = log_unipotent(N)
    except ValueError as err:
        raise NumericFailure(
            f"unipotent remainder failed its nilpotency check ({err}); "
            "the eigenvalue clusters of phi are not numerically separated"
        ) from err
    A = (A_tilde + D) / math.log(lam)

    scale = max(1.0, float(np.linalg.norm(Pf, 2)))
    residuals = {}
    residuals["product"] = float(
        np.linalg.norm(K @ lambda_pow(A, lam) - Pf, 2) / scale
    )
    eigs_A = np.linalg.eigvals(A)
    residuals["imag_spectrum"] = float(np.abs(eigs_A.imag).max())
    spec_K = generalized_eigenspaces(K)
    residuals["K_modulus"] = float(
        max(abs(abs(c.value) - 1.0) for c in spec_K.clusters)
    )
    residuals["K_diagonalizable"] = 0.0 if all(
        c.diagonalizable for c in spec_K.clusters
    ) else 1.0
    residuals["commutator"] = float(np.linalg.norm(K @ A - A @ K, 2))
    ak = check_automorphism(g, K, tol=1e-7)
    ad = check_derivation(g, A, tol=1e-7)
    residuals["K_automorphism"] = ak.residual if ak else float("inf")
    residuals["A_derivation"] = ad.residual if ad else float("inf")

    checks = {
        "product": 1e-9,
        "imag_spectrum": 1e-8,
        "K_modulus": 1e-9,
        "K_diagonalizable": 0.5,
        "commutator": 1e-9 * scale,
    }
    for key, bound in checks.items():
        if residuals[key] > bound:
            raise NumericFailure(
                f"decomposition constraint {key} has residual "
                f"{residuals[key]:.2e} > {bound:.2e}"
            )
    if not ak or not ad:
        raise NumericFailure(
            "decomposition factors fail their algebra checks: "
            + "; ".join(m for m in (ak.message, ad.message) if m)
        )
    return DilationDecomposition(K, A, float(lam), residuals)


# A period q of the phases closes the powers of K into an orbit of q maps
# when q <= _MAX_ORBIT and every q * phase is within _ORBIT_TOL turns of a
# whole turn; it closes the flow exp(tK) into a circle, sampled at
# grid_per_angle * q <= _MAX_CIRCLE points, when q <= _MAX_CIRCLE and every
# q * rate / (slowest rate) is within _CIRCLE_TOL of an integer.  Otherwise
# the closure is a torus, sampled by a product grid of at most _MAX_TORUS
# maps, with _TORUS_GRID points per phase for the powers.
_MAX_ORBIT, _ORBIT_TOL = 10**4, 1e-6 / (2 * math.pi)
_MAX_CIRCLE, _CIRCLE_TOL = 4096, 1e-9
_MAX_TORUS = 10**5
_TORUS_GRID = 64


def _closure_samples(K, view: AlgebraView | None, *, flow: bool, grid: int = _TORUS_GRID):
    """Samples P diag(e^(i phi)) P^-1 of the compact closure of the powers
    K^k (flow False: K's eigenvalues have modulus 1) or of the flow exp(tK)
    (flow True: K's spectrum is imaginary), for P the spectral basis of a K
    that must be diagonalizable over C, and (mats, info) naming the regime.

    phi is a column's phase times t: t = 0..q-1 on an orbit of the powers,
    t on a grid of one period of a circle of the flow.  On a torus, phi runs
    over a product grid with one direction per phase modulus, where a phase
    pi of the powers takes {0, pi} only.  On a non-Abelian view, samples
    that fail the automorphism identity are dropped with a warning.
    """
    Kf = to_float(K)
    n = Kf.shape[0]
    spec = generalized_eigenspaces(Kf)
    values = spec.column_values()
    rates = values.imag if flow else np.angle(values)
    off = np.abs(values.real if flow else np.abs(values) - 1.0).max()
    if off > 1e-9:
        where = "imaginary axis" if flow else "unit circle"
        raise ValueError(f"K has an eigenvalue {off:.2e} off the {where}; no compact closure")
    if not all(c.diagonalizable for c in spec.clusters):
        raise ValueError("K is not diagonalizable over C; it has no compact closure")
    pos = sorted({round(abs(w), 12) for w in rates if abs(w) > 1e-12})
    if not pos:
        return [np.eye(n)], {"mode": "orbit", "order": 1}

    if flow:
        base, max_q, tol = pos[0], _MAX_CIRCLE, _CIRCLE_TOL
    else:
        base, max_q, tol = 2 * np.pi, _MAX_ORBIT, _ORBIT_TOL
    qr = np.arange(1, max_q + 1)[:, None] * (rates / base)[None, :]
    hits = np.flatnonzero(np.all(np.abs(qr - np.round(qr)) <= tol, axis=1))
    if hits.size:
        # one direction, t, that each column turns at its own rate
        q = int(hits[0]) + 1
        if flow:
            period = 2 * math.pi * q / base
            grids = [period * np.linspace(0.0, 1.0, min(grid * q, _MAX_CIRCLE), endpoint=False)]
            info = {"mode": "circle", "period": period}
        else:
            grids, info = [np.arange(q, dtype=float)], {"mode": "orbit", "order": q}
        dirs, mult = np.zeros(n, dtype=int), rates
    else:
        # one direction per phase modulus a, which columns of phase +-a turn by
        grids = [
            np.array([0.0, np.pi]) if not flow and abs(a - np.pi) <= 1e-9
            else np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
            for a in pos
        ]
        total = math.prod(len(gv) for gv in grids)
        if total > _MAX_TORUS:
            raise NumericFailure(f"torus grid would need {total} elements; reduce grid_per_angle")
        near = np.abs(rates[:, None] - np.array(pos)[None, :]) <= 1e-9
        far = np.abs(rates[:, None] + np.array(pos)[None, :]) <= 1e-9
        dirs, mult = np.argmax(near | far, axis=1), near.any(axis=1) * 1.0 - far.any(axis=1)
        info = {"mode": "torus", "angles": pos}
    combos = np.stack([mg.reshape(-1) for mg in np.meshgrid(*grids, indexing="ij")], axis=1)

    P = spec.basis_matrix()
    Pinv = np.linalg.inv(P)
    check = view is not None and not view.is_abelian
    mats, dropped = [], 0
    # the maps of a chunk of samples as one stack, checked against the
    # automorphism identity [M x, M y] = M [x, y] together; a chunk holds
    # about 2^20 floats per (sample, n, n, n) array
    chunk = max(1, (1 << 20) // n**3)
    for lo in range(0, combos.shape[0], chunk):
        phases = np.exp(1j * (combos[lo : lo + chunk, dirs] * mult))
        M = ((P[None, :, :] * phases[:, None, :]) @ Pinv).real
        if check:
            lhs = np.einsum("ijk,sia,sjb->sabk", view.tensor, M, M, optimize=True)
            rhs = (view.tensor.reshape(n * n, n) @ M.transpose(0, 2, 1)).reshape(lhs.shape)
            bad = np.abs(lhs - rhs).max(axis=(1, 2, 3)) > 1e-7
            dropped += int(bad.sum())
            M = np.compress(~bad, M, axis=0)
        mats.extend(M)
    if dropped:
        warnings.warn(
            f"{dropped} closure samples were not automorphisms and were dropped", stacklevel=3
        )
    if info["mode"] == "torus":
        info["count"] = len(mats)
    return mats, info


def compact_closure_samples(K, *, view: AlgebraView | None = None):
    """Finite sample of the closure of the group generated by K, whose
    eigenvalues must have modulus 1 (within 1e-9) and which must be
    diagonalizable over C (ValueError otherwise: its powers are unbounded).

    The regime is read off the eigenvalue phases: when some q <= 10^4
    turns every phase into a multiple of 2 pi (within 1e-6), the closure
    is the finite orbit I, K, ..., K^(q-1); otherwise it is approximated
    by a product grid of 64 points per torus direction of the phases.
    For a non-Abelian algebra the samples are kept only if they are
    automorphisms (warned otherwise).

    Returns (mats, info) with info describing which regime was used.
    """
    return _closure_samples(K, view, flow=False)


@dataclass(eq=False)
class RealifyResult:
    A: np.ndarray
    distance: MetricFunction
    decomposition: DilationDecomposition
    closure_info: dict
    dilation_residual: float
    invariance_defect: float
    bilipschitz: tuple[float, float]
    bilipschitz_info: dict


def _sampled_dilation_defect(
    d: MetricFunction, delta: np.ndarray, lam: float, samples: int, seed: int
) -> float:
    rng = np.random.default_rng(seed)
    n = delta.shape[0]
    X = rng.normal(size=(samples, n)) * 2.0
    Y = rng.normal(size=(samples, n)) * 2.0
    base = d.pair(X, Y)
    scaled = d.pair(X @ delta.T, Y @ delta.T)
    return float(np.max(np.abs(scaled - lam * base) / np.maximum(lam * base, 1e-300)))


def _rebalanced(d: MetricFunction, mats, A: np.ndarray, lam: float, grid: int) -> MetricFunction:
    """max over mu_j in a geometric grid on [1, lam) and over the closure
    samples K_k of d(K_k mu_j^A x, K_k mu_j^A y) / mu_j.

    Each K_k commutes with A.  When d is homogeneous for a derivation A_d
    that commutes with A too, d(mu^A x, mu^A y) / mu = d(M x, M y) with
    M = mu^(A - A_d), so the supremum is one average over the products
    mu_j^(A - A_d) K_k: a single gauge per row, or d itself when every
    product is the identity.
    """
    if isinstance(d, HomogeneousDistance):
        scale = max(1.0, np.linalg.norm(A, 2)) * max(1.0, np.linalg.norm(d.A, 2))
        if np.linalg.norm(A @ d.A - d.A @ A, 2) <= 1e-9 * scale:
            # the geometric grid of SupOverDilations
            shifts = DilationAction(A - d.A).powers(np.geomspace(1.0, lam, grid, endpoint=False))
            products = shifts[:, None] @ np.asarray(mats)[None]
            return averaged_distance(d, products.reshape(-1, d.dim, d.dim))
    return SupOverDilations(averaged_distance(d, mats), A, lam, grid)


def realify(
    g: LieAlgebra,
    d: MetricFunction,
    delta,
    lam: float,
    *,
    mu_grid: int = 48,
    check_samples: int = 2000,
    seed: int = 0,
) -> RealifyResult:
    """Replace a distance with one dilating automorphism by a biLipschitz
    equivalent distance homogeneous under a real-spectrum derivation.

    delta must be a sampled dilation of factor lam for d; the returned
    distance d'' is homogeneous for the derivation A of the K * lam^A
    factorization (its spectrum lies in [1, inf) after orienting lam > 1),
    delta remains a dilation of factor lam for d'' up to the sampled
    invariance defect of the compact averaging, and the identity map is
    biLipschitz between d and d''.

    d'' is the maximum of d(K_k mu_j^A x, K_k mu_j^A y) / mu_j over the
    closure samples K_k and mu_grid points mu_j in [1, lam) (see
    `_rebalanced`): one gauge per row when d is a `HomogeneousDistance`
    whose derivation commutes with A, `SupOverDilations` otherwise.
    """
    Df = to_float(delta)
    if lam <= 0 or lam == 1.0:
        raise ValueError("dilation factor must be positive and != 1")
    if lam < 1:
        # orient so the rebalancing interval [1, lam] makes sense
        Df = np.linalg.inv(Df)
        lam = 1.0 / lam
    defect = _sampled_dilation_defect(d, Df, lam, check_samples, seed)
    if defect > _DILATION_TOL:
        raise ValueError(
            f"delta is not a sampled dilation of factor {lam:g} for d "
            f"(relative defect {defect:.2e})"
        )
    verdict = classify_automorphism(g, Df, lam)
    if not verdict.answer:
        raise ValueError(
            "no admissible distance admits this dilation: " + "; ".join(verdict.reasons)
        )
    dec = decompose_automorphism(g, Df, lam)
    view = AlgebraView.of(g)
    mats, info = compact_closure_samples(dec.K, view=view)
    d_out = _rebalanced(d, mats, dec.A, lam, mu_grid)

    # the K-invariance defect of the sampled closure (its dilation defect
    # at factor 1) drives the residual below
    invariance_defect = _sampled_dilation_defect(d_out, dec.K, 1.0, check_samples, seed + 1)
    residual = _sampled_dilation_defect(
        d_out, Df, lam, check_samples, seed + 2
    )
    eigs = np.linalg.eigvals(dec.A)
    if eigs.real.min() < 1 - 1e-8:
        raise NumericFailure(
            f"derivation spectrum dips below 1: min real part {eigs.real.min():.12g}"
        )
    L1, L2, bl_info = bilipschitz_constants(
        d, d_out, Df, lam,
        samples=check_samples, seed=seed + 3,
        dilation_tol=max(_DILATION_TOL, 2 * invariance_defect + 1e-9),
    )
    return RealifyResult(
        dec.A, d_out, dec, info, residual, invariance_defect, (L1, L2), bl_info
    )


def add_compact_part(
    d: MetricFunction,
    g: LieAlgebra,
    A,
    K,
    *,
    grid_per_angle: int = 64,
) -> MetricFunction:
    """From an A-homogeneous distance, build one that is in addition
    (A+K)-homogeneous and invariant under the one-parameter group of K.

    K must be a derivation with purely imaginary diagonalizable spectrum
    commuting with A; the result is the maximum of d over a sampled
    closure of {lam^K}.
    """
    Af, Kf = to_float(A), to_float(K)
    chk = check_derivation(g, Kf, tol=1e-8)
    if not chk:
        raise ValueError(f"K is not a derivation: {chk.message}")
    mats, _ = _closure_samples(Kf, AlgebraView.of(g), flow=True, grid=grid_per_angle)
    comm = float(np.linalg.norm(Af @ Kf - Kf @ Af, 2))
    if comm > 1e-9 * max(1.0, np.linalg.norm(Af, 2)) * max(1.0, np.linalg.norm(Kf, 2)):
        raise ValueError(f"[A, K] residual {comm:.2e}; the parts must commute")
    return averaged_distance(d, mats)
