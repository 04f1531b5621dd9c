"""Splitting dilating automorphisms into compact and real-spectrum parts.

Any automorphism phi factors as phi = K * lam^A where K is
C-diagonalizable with unit-modulus spectrum, A is a derivation with real
spectrum, and [K, A] = 0: on each generalized eigenspace of phi write
the eigenvalue a as (a/|a|) * |a| and peel off the unipotent remainder,
whose logarithm is the nilpotent summand of A.  The factor lam is the
caller's dilation factor; it only rescales A by 1/log(lam).

On top of the factorization, `realify` carries a self-similar distance
(one dilating automorphism) to a distance homogeneous under the whole
one-parameter group of A: average over the compact closure of K, then
take the rebalanced supremum over one dilation period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .algebra import LieAlgebra, check_automorphism, check_derivation
from .exact import to_float
from .grading import classify_automorphism
from .metric import (
    AlgebraView,
    MetricFunction,
    NumericFailure,
    averaged_distance,
    bilipschitz_constants,
    common_period,
    compact_closure_samples,
    sup_distance,
    torus_grid_mats,
)
from .spectral import generalized_eigenspaces, lambda_pow, log_unipotent, spectral_map

__all__ = [
    "DilationDecomposition",
    "decompose_automorphism",
    "realify",
    "RealifyResult",
    "add_compact_part",
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


def decompose_automorphism(
    g: LieAlgebra,
    phi,
    lam: float,
    *,
    tol: float = 1e-9,
    spectral_tol: float | None = None,
) -> DilationDecomposition:
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
    spec = generalized_eigenspaces(Pf, spectral_tol)
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
            "eigenvalue clustering may need a coarser tolerance"
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
        "product": tol,
        "imag_spectrum": 1e-8,
        "K_modulus": tol,
        "K_diagonalizable": 0.5,
        "commutator": tol * scale,
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
    d: MetricFunction, delta: np.ndarray, lam: float, samples: int, seed: int, spread: float = 2.0
) -> float:
    rng = np.random.default_rng(seed)
    n = delta.shape[0]
    X = rng.normal(size=(samples, n)) * spread
    Y = rng.normal(size=(samples, n)) * spread
    base = d.pair_chunked(X, Y)
    scaled = d.pair_chunked(X @ delta.T, Y @ delta.T)
    return float(np.max(np.abs(scaled - lam * base) / np.maximum(lam * base, 1e-300)))


def realify(
    g: LieAlgebra,
    d: MetricFunction,
    delta,
    lam: float,
    *,
    mu_grid: int = 48,
    grid_per_angle: int = 64,
    check_samples: int = 2000,
    seed: int = 0,
    dilation_tol: float = 1e-6,
) -> RealifyResult:
    """Replace a distance with one dilating automorphism by a biLipschitz
    equivalent distance homogeneous under a real-spectrum derivation.

    delta must be a sampled dilation of factor lam for d; the returned
    distance d'' is homogeneous for the derivation A of the K * lam^A
    factorization (its spectrum lies in [1, inf) after orienting lam > 1),
    delta remains a dilation of factor lam for d'' up to the sampled
    invariance defect of the compact averaging, and the identity map is
    biLipschitz between d and d''.
    """
    Df = to_float(delta)
    if lam <= 0 or lam == 1.0:
        raise ValueError("dilation factor must be positive and != 1")
    if lam < 1:
        # orient so the rebalancing interval [1, lam] makes sense
        Df = np.linalg.inv(Df)
        lam = 1.0 / lam
    defect = _sampled_dilation_defect(d, Df, lam, check_samples, seed)
    if defect > dilation_tol:
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
    mats, info = compact_closure_samples(
        dec.K, grid_per_angle=grid_per_angle, view=view
    )
    d_avg = averaged_distance(d, mats)
    d_out = sup_distance(d_avg, dec.A, lam, grid=mu_grid)

    # invariance defect of the sampled closure drives the residual below
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(check_samples, g.dim)) * 2.0
    Y = rng.normal(size=(check_samples, g.dim)) * 2.0
    base = d_out.pair_chunked(X, Y)
    rotated = d_out.pair_chunked(X @ dec.K.T, Y @ dec.K.T)
    invariance_defect = float(
        np.max(np.abs(rotated - base) / np.maximum(base, 1e-300))
    )
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
        dilation_tol=max(dilation_tol, 2 * invariance_defect + 1e-9),
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
    check_samples: int = 2000,
    seed: int = 0,
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
    spec = generalized_eigenspaces(Kf)
    worst_re = max(abs(c.value.real) for c in spec.clusters)
    if worst_re > 1e-9:
        raise ValueError(
            f"K has eigenvalue real part {worst_re:.2e}; spectrum must be imaginary"
        )
    if not all(c.diagonalizable for c in spec.clusters):
        raise ValueError("K is not diagonalizable over C")
    comm = float(np.linalg.norm(Af @ Kf - Kf @ Af, 2))
    if comm > 1e-9 * max(1.0, np.linalg.norm(Af, 2)) * max(1.0, np.linalg.norm(Kf, 2)):
        raise ValueError(f"[A, K] residual {comm:.2e}; the parts must commute")
    angles = sorted(
        {round(c.value.imag, 12) for c in spec.clusters if c.value.imag > 1e-12}
    )
    if not angles:
        return averaged_distance(d, [np.eye(g.dim)])
    # The closure of {exp(t K)} is a circle when one period T makes every
    # T * angle an integer multiple of 2 pi; sample it exactly then.
    q = common_period(np.array(angles) / angles[0], 4096, 1e-9)
    if q is not None:
        T = 2 * math.pi * q / angles[0]
        ts = np.linspace(0.0, T, min(grid_per_angle * q, 4096), endpoint=False)
        return averaged_distance(d, [scipy.linalg.expm(t * Kf) for t in ts])
    # rationally independent angles: product torus grid over the spectral basis
    generic = scipy.linalg.expm(Kf)  # same eigenvectors, angles = Im spectrum
    mats, _ = torus_grid_mats(
        generalized_eigenspaces(generic), grid_per_angle, AlgebraView.of(g)
    )
    return averaged_distance(d, mats)
