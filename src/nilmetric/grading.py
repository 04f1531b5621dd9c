"""Gradings induced by derivations and automorphisms, and the existence
classifiers for dilation-homogeneous distances.

A derivation A splits the algebra into layers V_t indexed by the real
parts of its eigenvalue clusters; an automorphism phi together with a
factor lambda != 1 does the same with weights log|a| / log(lambda).
Both are real gradings: [V_t, V_s] lies in V_{t+s}.  A left-invariant
distance homogeneous under the dilations lam^A exists precisely when
the group is nilpotent (we only model the simply connected group, so
connectedness and simple connectedness are built into the model), every
layer weight is >= 1, and A restricted to the weight-1 layer is
diagonalizable over C.  The automorphism classifier is the same test
phrased through eigenvalue moduli.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, check_automorphism, check_derivation
from .exact import to_float
from .spectral import (
    SpectralData,
    generalized_eigenspaces,
    spectral_map,
)

__all__ = [
    "Layer",
    "Grading",
    "ExistenceVerdict",
    "grading_from_derivation",
    "grading_from_automorphism",
    "hausdorff_dimension",
    "classify_derivation",
    "classify_automorphism",
    "split_derivation",
    "WEIGHT_TOL",
]

# eigenvalue weights within this of each other form one layer
WEIGHT_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class Layer:
    weight: float
    basis: np.ndarray  # (n, k) real, orthonormal columns
    core: np.ndarray  # (n, j) real orthonormal basis of the eigenvectors in V_t

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class Grading:
    layers: tuple[Layer, ...]  # ascending weights
    source: tuple  # ("derivation", A) or ("automorphism", phi, lam)
    spec: SpectralData  # the clusters of the source matrix the layers group
    det_residual: float | None = None  # |det phi| vs lam^Q check, automorphism case

    @property
    def weights(self) -> list[float]:
        return [l.weight for l in self.layers]

    def layer_at(self, t: float, tol: float = WEIGHT_TOL) -> Layer | None:
        for l in self.layers:
            if abs(l.weight - t) <= tol:
                return l
        return None

    def bracket_closure_residual(self, g: LieAlgebra) -> float:
        """Worst projection residual of [V_t, V_s] outside V_{t+s}."""
        n = g.dim
        worst = 0.0
        for lt in self.layers:
            for ls in self.layers:
                target = self.layer_at(lt.weight + ls.weight)
                P = (
                    target.basis @ target.basis.T
                    if target is not None
                    else np.zeros((n, n))
                )
                for a in range(lt.dim):
                    for b in range(ls.dim):
                        w = g.bracket(lt.basis[:, a], ls.basis[:, b])
                        resid = np.linalg.norm(w - P @ w)
                        worst = max(worst, float(resid))
        return worst


@dataclass(frozen=True, eq=False)
class ExistenceVerdict:
    answer: bool
    reasons: tuple[str, ...]
    grading: Grading | None
    hausdorff_dim: float | None = None

    def __post_init__(self):
        if self.answer != (len(self.reasons) == 0):
            raise ValueError("verdict answer must match emptiness of reasons")

    def to_json(self) -> dict:
        layers = []
        if self.grading is not None:
            layers = [{"t": l.weight, "dim": l.dim} for l in self.grading.layers]
        return {
            "answer": "yes" if self.answer else "no",
            "reasons": list(self.reasons),
            "layers": layers,
            "Q": self.hausdorff_dim,
        }


def _real_basis(blocks: list[np.ndarray]) -> np.ndarray:
    """Orthonormal real basis of the real form of the span of a
    conjugation-closed family of complex column blocks."""
    cols = np.hstack(blocks)
    dim_real = cols.shape[1]
    U, s, _ = np.linalg.svd(np.hstack([cols.real, cols.imag]), full_matrices=False)
    if s.size < dim_real or (dim_real > 0 and s[dim_real - 1] < 1e-9):
        raise RuntimeError(
            "real form of an eigenspace family has deficient dimension; "
            "spectral data is inconsistent"
        )
    return U[:, :dim_real]


def _layers(M: np.ndarray, spec: SpectralData, weight_of):
    """Clusters of M grouped by weight_of(cluster) (transitive closure
    within WEIGHT_TOL), each group's real generalized eigenspace and the
    real span of its eigenvectors, the diagonalizable core."""
    n = M.shape[0]
    scale = max(1.0, float(np.linalg.norm(M, 2)))
    groups: list[list] = []
    for w, c in sorted(((weight_of(c), c) for c in spec.clusters), key=lambda p: p[0]):
        if groups and abs(w - groups[-1][-1][0]) <= WEIGHT_TOL:
            groups[-1].append((w, c))
        else:
            groups.append([(w, c)])
    layers = []
    for grp in groups:
        clusters = [c for _, c in grp]
        weight = sum(w * c.multiplicity for w, c in grp) / sum(
            c.multiplicity for c in clusters
        )
        core = []
        for c in clusters:
            _, s, Vh = np.linalg.svd((M - c.value * np.eye(n)) @ c.basis)
            k = int(np.sum(s <= 1e-8 * scale))
            if k:
                core.append(c.basis @ Vh.conj().T[:, -k:])
        layers.append(
            Layer(
                float(weight),
                _real_basis([c.basis for c in clusters]),
                _real_basis(core) if core else np.zeros((n, 0)),
            )
        )
    return tuple(layers)


def grading_from_derivation(g: LieAlgebra, A, *, spec: SpectralData | None = None) -> Grading:
    """Layers V_t spanned by the real forms of the generalized eigenspaces
    with eigenvalue real part t.  The layers depend on A alone; g is not
    read."""
    Af = to_float(A)
    if spec is None:
        spec = generalized_eigenspaces(Af)
    layers = _layers(Af, spec, lambda c: c.value.real)
    return Grading(layers, ("derivation", Af), spec)


def grading_from_automorphism(
    g: LieAlgebra,
    phi,
    lam: float,
    *,
    spec: SpectralData | None = None,
) -> Grading:
    """Layers at t = log|a| / log(lambda) over eigenvalue clusters a of phi,
    with the determinant identity |det phi| = lambda^(sum t dim V_t)
    verified and its relative residual recorded.  g is not read."""
    if lam <= 0 or lam == 1.0:
        raise ValueError("automorphism gradings need lambda > 0, lambda != 1")
    Pf = to_float(phi)
    if spec is None:
        spec = generalized_eigenspaces(Pf)
    if any(abs(c.value) < 1e-14 for c in spec.clusters):
        raise ValueError("automorphism has a numerically zero eigenvalue")
    loglam = np.log(lam)
    layers = _layers(Pf, spec, lambda c: np.log(abs(c.value)) / loglam)
    Q = sum(l.weight * l.dim for l in layers)
    det = abs(float(np.linalg.det(Pf)))
    resid = abs(det - lam**Q) / max(det, 1e-300)
    return Grading(
        layers, ("automorphism", Pf, float(lam)), spec, det_residual=resid
    )


def hausdorff_dimension(grading: Grading) -> float:
    """Q = sum over layers of t * dim V_t; the Ahlfors regularity exponent
    when all weights are >= 1 (warns and returns the formal sum otherwise)."""
    Q = float(sum(l.weight * l.dim for l in grading.layers))
    if any(l.weight < 1 - WEIGHT_TOL for l in grading.layers):
        warnings.warn(
            "grading has layers of weight < 1; the value is the formal sum, "
            "not a Hausdorff dimension",
            stacklevel=2,
        )
    return Q


def _verdict(g: LieAlgebra, failed_check, grading: Grading, weight_of, low_reason, v1_reason):
    """The classifiers' one verdict: failed_check is the reason the map
    failed its derivation or automorphism check (None when it passed);
    then nilpotency, one low_reason(t) per layer of weight t < 1, and
    v1_reason unless the map is diagonalizable on the weight-1 layer,
    decided per cluster (weight_of(cluster) within WEIGHT_TOL of 1) from
    the rank of (M - a I) on its generalized eigenspace."""
    reasons = [] if failed_check is None else [failed_check]
    if not g.is_nilpotent:
        reasons.append("algebra not nilpotent")
    reasons += [low_reason(l.weight) for l in grading.layers if l.weight < 1 - WEIGHT_TOL]
    if any(
        abs(weight_of(c) - 1.0) <= WEIGHT_TOL and not c.diagonalizable
        for c in grading.spec.clusters
    ):
        reasons.append(v1_reason)
    Q = float(sum(l.weight * l.dim for l in grading.layers))
    return ExistenceVerdict(not reasons, tuple(reasons), grading, Q)


def classify_derivation(g: LieAlgebra, A) -> ExistenceVerdict:
    """Decide whether a left-invariant distance homogeneous under the
    dilations lam^A exists on the simply connected group of g.

    Yes iff g is nilpotent, all layer weights are >= 1, and A restricted
    to the weight-1 layer is diagonalizable over C.  Failed conditions
    are returned as structured reasons.
    """
    Af = to_float(A)
    dres = check_derivation(g, Af)
    return _verdict(
        g,
        None if dres else f"A is not a derivation: {dres.message}",
        grading_from_derivation(g, Af),
        lambda c: c.value.real,
        lambda t: f"V_t != 0 for t = {t:.6g} < 1",
        "A restricted to V_1 is not diagonalizable over C",
    )


def classify_automorphism(g: LieAlgebra, delta, lam: float) -> ExistenceVerdict:
    """Decide whether delta can be a dilation of factor lambda for some
    admissible left-invariant distance.

    Yes iff g is nilpotent, the eigenvalue moduli are all >= lambda when
    lambda > 1 (<= lambda when lambda < 1), and delta is diagonalizable
    on the generalized eigenspaces of modulus exactly lambda.
    """
    if lam <= 0 or lam == 1.0:
        raise ValueError("dilation factor must be positive and != 1")
    Df = to_float(delta)
    ares = check_automorphism(g, Df)
    loglam = np.log(lam)
    side = "greater" if lam < 1 else "smaller"
    return _verdict(
        g,
        None if ares else f"delta is not a Lie algebra automorphism: {ares.message}",
        grading_from_automorphism(g, Df, lam),
        lambda c: np.log(abs(c.value)) / loglam,
        lambda t: f"eigenvalue modulus {lam**t:.6g} is {side} than lambda = {lam:.6g} "
        f"(layer weight {t:.6g} < 1)",
        "delta is not diagonalizable on the eigenspaces of modulus lambda",
    )


def split_derivation(
    A, spec: SpectralData | None = None, g: LieAlgebra | None = None, tol: float = 1e-9
):
    """Split A into commuting real-diagonalizable, imaginary-diagonalizable
    and nilpotent derivations: A = A_R + A_I + A_N, where A_R acts as
    Re(a), A_I as i*Im(a) on the generalized eigenspace of a.
    """
    Af = to_float(A)
    if spec is None:
        spec = generalized_eigenspaces(Af)
    A_R = spectral_map(Af, lambda a: a.real, spec)
    A_I = spectral_map(Af, lambda a: 1j * a.imag, spec)
    A_N = Af - A_R - A_I
    scale = max(1.0, np.linalg.norm(Af, 2))
    parts = {"A_R": A_R, "A_I": A_I, "A_N": A_N, "A": Af}
    names = list(parts)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            comm = parts[a] @ parts[b] - parts[b] @ parts[a]
            r = np.linalg.norm(comm, 2)
            if r > tol * scale**2:
                raise RuntimeError(
                    f"spectral split failed: [{a}, {b}] has residual {r:.2e}"
                )
    if g is not None:
        for name in ("A_R", "A_I", "A_N"):
            res = check_derivation(g, parts[name], tol=1e-8)
            if not res:
                raise RuntimeError(f"{name} is not a derivation: {res.message}")
    return A_R, A_I, A_N
