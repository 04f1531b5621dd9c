"""Complex spectral analysis of real matrices.

Generalized eigenspaces, function calculus on the spectrum, and the
matrix exponential/logarithm pieces the rest of the library is built on.
Eigenvalues are clustered up to an explicit tolerance (transitive
closure), because Jordan structure is discontinuous: two eigenvalues
closer than the tolerance are treated as one cluster with the combined
generalized eigenspace.   Bases of generalized eigenspaces are obtained
as numerical kernels of (M - a*I)^m rather than by chasing Jordan
chains, which is far better conditioned.

Real input matrices keep their conjugation symmetry throughout: the
cluster of conj(a) carries the conjugated basis of the cluster of a, so
every function f with f(conj a) = conj(f(a)) yields a real matrix again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import (
    as_exact,
    exact_eye,
    is_exact,
    nilpotency_index,
    to_float,
)

__all__ = [
    "SpectralError",
    "EigenCluster",
    "SpectralData",
    "DilationAction",
    "generalized_eigenspaces",
    "spectral_map",
    "lambda_pow",
    "lambda_pow_exact",
    "log_unipotent",
    "reconstruct",
    "DEFAULT_REL_TOL",
]

DEFAULT_REL_TOL = 1e-8


class SpectralError(Exception):
    """Raised when the eigen-analysis cannot certify its own output."""


@dataclass(frozen=True, eq=False)
class EigenCluster:
    """One merged eigenvalue with its generalized eigenspace.

    basis has orthonormal columns spanning the generalized eigenspace;
    multiplicity is the algebraic multiplicity (= dim of the space).
    """

    value: complex
    multiplicity: int
    basis: np.ndarray
    diagonalizable: bool


@dataclass(frozen=True, eq=False)
class SpectralData:
    clusters: tuple[EigenCluster, ...]
    tolerance: float
    dim: int

    def cluster_of(self, value: complex, tol: float | None = None) -> EigenCluster:
        tol = self.tolerance if tol is None else tol
        for c in self.clusters:
            if abs(c.value - value) <= max(tol, 1e-12 * (1.0 + abs(value))):
                return c
        raise KeyError(f"no eigenvalue cluster near {value}")

    @property
    def eigenvalues(self) -> list[complex]:
        return [c.value for c in self.clusters]

    def basis_matrix(self) -> np.ndarray:
        """All cluster bases side by side; columns span C^n."""
        return np.hstack([c.basis for c in self.clusters])

    def column_values(self) -> np.ndarray:
        return np.concatenate(
            [np.full(c.multiplicity, c.value, dtype=complex) for c in self.clusters]
        )


def _matrix_scale(M: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(M, 2)))


def _cluster_eigenvalues(eigs: np.ndarray, tol: float) -> list[list[int]]:
    """Transitive-closure clustering of eigenvalues within tol."""
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def generalized_eigenspaces(M, tol: float | None = None) -> SpectralData:
    """Cluster the spectrum of a real square matrix and compute the
    generalized eigenspace of each cluster.

    tol is an absolute eigenvalue-distance tolerance; the default is
    DEFAULT_REL_TOL times the spectral norm of M.
    """
    A = to_float(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    n = A.shape[0]
    scale = _matrix_scale(A)
    if tol is None:
        tol = DEFAULT_REL_TOL * scale
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    eigs = np.linalg.eigvals(A)
    if not np.all(np.isfinite(eigs)):
        raise SpectralError("eigenvalue solver returned non-finite values")
    groups = _cluster_eigenvalues(eigs, tol)

    # Representative per group; conjugation-symmetric groups get a real value.
    reps = []
    for idx in groups:
        vals = eigs[idx]
        rep = complex(np.mean(vals))
        conj_sorted = np.sort_complex(np.conj(vals))
        if np.allclose(np.sort_complex(vals), conj_sorted, atol=4 * tol + 1e-300):
            rep = complex(rep.real, 0.0)
        reps.append(rep)

    order = np.lexsort((np.array([r.imag for r in reps]), np.array([r.real for r in reps])))
    groups = [groups[i] for i in order]
    reps = [reps[i] for i in order]

    # Kernel of ((M - a I)/scale)^m via SVD, m = algebraic multiplicity.
    clusters: list[EigenCluster | None] = [None] * len(groups)
    for gi, (idx, rep) in enumerate(zip(groups, reps)):
        if clusters[gi] is not None:
            continue
        m = len(idx)
        T = (A - rep * np.eye(n)) / scale
        P = np.linalg.matrix_power(T, m)
        U, S, Vh = np.linalg.svd(P)
        # The m smallest singular values must be negligible and separated
        # from the rest, otherwise the clustering is inconsistent.
        small = S[n - m:] if m < n else S
        cut = max(tol, 1e-12) * 10.0
        if small.size and small[0] > cut:
            raise SpectralError(
                f"generalized eigenspace of {rep:g} has numerical dimension "
                f"< multiplicity {m} (residual {small[0]:.2e}); try a larger tolerance"
            )
        if m < n and S[n - m - 1] <= cut:
            raise SpectralError(
                f"generalized eigenspace of {rep:g} has numerical dimension "
                f"> multiplicity {m}; eigenvalue clusters are not separated at tol={tol:.2e}"
            )
        basis = Vh.conj().T[:, n - m:] if m < n else np.eye(n, dtype=complex)
        if abs(rep.imag) == 0.0:
            basis = basis.real.astype(complex) if np.allclose(basis.imag, 0) else basis
        resid = np.linalg.norm((A - rep * np.eye(n)) @ basis, 2) / scale
        diag = bool(resid <= cut)
        clusters[gi] = EigenCluster(rep, m, basis, diag)
        # Conjugate partner inherits the conjugated basis.
        if abs(rep.imag) > 0:
            for gj, rep2 in enumerate(reps):
                if gj != gi and abs(rep2 - rep.conjugate()) <= 2 * tol + 1e-300:
                    clusters[gj] = EigenCluster(
                        complex(rep.conjugate()), m, basis.conj(), diag
                    )
                    break
            else:
                raise SpectralError(
                    f"complex cluster {rep:g} has no conjugate partner; "
                    "input matrix is not real or clustering is inconsistent"
                )

    data = SpectralData(tuple(clusters), float(tol), n)
    _validate(data)
    return data


def _validate(data: SpectralData) -> None:
    n = data.dim
    if sum(c.multiplicity for c in data.clusters) != n:
        raise SpectralError("multiplicities do not sum to the dimension")
    P = data.basis_matrix()
    s = np.linalg.svd(P, compute_uv=False)
    if s[-1] < 1e-10:
        raise SpectralError(
            f"cluster bases are numerically dependent (smallest singular value {s[-1]:.2e})"
        )


def spectral_map(M, f, spec: SpectralData | None = None) -> np.ndarray:
    """The matrix acting as f(a) * Id on each generalized eigenspace of M.

    f must respect conjugation on the spectrum, f(conj a) = conj(f(a)),
    so that the result is a real matrix.
    """
    A = to_float(M)
    if spec is None:
        spec = generalized_eigenspaces(A)
    scale = _matrix_scale(A)
    for c in spec.clusters:
        want = complex(f(c.value)).conjugate()
        got = complex(f(c.value.conjugate()))
        if abs(want - got) > 1e-9 * (1.0 + abs(want)):
            raise SpectralError(
                f"f breaks conjugation symmetry at {c.value:g}: "
                f"f(conj a)={got:g} but conj(f(a))={want:g}; result would not be real"
            )
    P = spec.basis_matrix()
    vals = np.concatenate(
        [np.full(c.multiplicity, complex(f(c.value))) for c in spec.clusters]
    )
    Mf = (P * vals[None, :]) @ np.linalg.inv(P)
    imag = np.linalg.norm(Mf.imag, 2)
    if imag > 1e-8 * max(scale, np.linalg.norm(Mf, 2)):
        raise SpectralError(f"spectral map produced imaginary residual {imag:.2e}")
    return Mf.real


class DilationAction:
    """The one-parameter group mu^A = exp(log(mu) A), the library's only
    matrix exponential.

    Splits A into its commuting semisimple and nilpotent parts once, so a
    batched application costs a few matrix products instead of one matrix
    exponential per sample; the eigenbasis behind the split has passed
    `_validate`, which bounds its conditioning.
    """

    def __init__(self, A):
        self.A = to_float(A)
        n = self.A.shape[0]
        spec = generalized_eigenspaces(self.A)
        # the nilpotent part of A
        self.N = N = self.A - spectral_map(self.A, lambda a: a, spec)
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
        return self._dilate(np.log(mus), X)

    def powers(self, mus) -> np.ndarray:
        """The stack of matrices mus[i]^A, shape (k, n, n)."""
        mus = np.asarray(mus, dtype=float)
        n = self.A.shape[0]
        # row block i of the stacked identity comes back as (mus[i]^A)^T
        T = self.apply(np.repeat(mus, n), np.tile(np.eye(n), (mus.size, 1)))
        return T.reshape(mus.size, n, n).transpose(0, 2, 1)

    def _dilate(self, logm: np.ndarray, X: np.ndarray, logscale=None) -> np.ndarray:
        """Rows of X times e^(logm[i] A), and times e^(logscale[i]) when
        given; then every factor is formed in log space, so nothing
        overflows or turns 0 * inf into NaN that the result does not."""
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

        def scaled(v, weights):
            logf = np.outer(logm, weights)
            if logscale is None:
                return v * np.exp(logf)
            with np.errstate(divide="ignore"):
                return np.copysign(np.exp(np.log(np.abs(v)) + logf + logscale[:, None]), v)

        if self.real_idx.size:
            out[:, self.real_idx] = scaled(xi[:, self.real_idx], self.real_a)
        if self.pair_idx.size:
            ang = np.outer(logm, self.pair_b)
            c, s = np.cos(ang), np.sin(ang)
            u = xi[:, self.pair_idx]
            v = xi[:, self.pair_idx + 1]
            # the block of the semisimple part in the (Re b, Im b) basis is
            # [[a, b], [-b, a]]; row vectors multiply by its exp transposed
            out[:, self.pair_idx] = scaled(c * u + s * v, self.pair_a)
            out[:, self.pair_idx + 1] = scaled(-s * u + c * v, self.pair_a)
        return out @ self.Pr.T

    @property
    def min_weight(self) -> float:
        """Smallest real part of the spectrum of A."""
        return float(np.concatenate([self.real_a, self.pair_a]).min())


def lambda_pow(A, lam: float) -> np.ndarray:
    """lam^A = exp(log(lam) * A) for lam > 0, float backend, from the
    split that `DilationAction` makes."""
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    if lam == 1.0:
        return np.eye(np.shape(A)[0])
    with np.errstate(over="ignore", invalid="ignore"):
        out = DilationAction(A).powers([lam])[0]
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"lambda_pow overflowed for lambda={lam}")
    return out


def lambda_pow_exact(A, log_lam) -> np.ndarray:
    """exp(log_lam * A) for nilpotent rational A and rational log_lam.

    This is the exact-arithmetic branch: the series terminates, so the
    result has Fraction entries.  Covers lam = e**q via log_lam = q.
    """
    M = A if is_exact(A) else as_exact(A)
    if nilpotency_index(M) is None:
        raise ValueError("exact dilation powers need a nilpotent generator")
    from .exact import expm_nilpotent, frac

    return expm_nilpotent(M * frac(log_lam))


def log_unipotent(N) -> np.ndarray:
    """log of a unipotent matrix by the terminating alternating series.

    Exact on the rational backend; on floats the result satisfies
    exp(D) = N to about 1e-12.  Raises if N - I is not nilpotent.
    """
    exact = is_exact(N)
    if exact:
        n = N.shape[0]
        psi = N - exact_eye(n)
        k = nilpotency_index(psi)
        if k is None:
            k_fail = _first_stable_power(psi)
            raise ValueError(
                f"matrix is not unipotent: (N - I)^{k_fail} has stabilized at a nonzero value"
            )
        from fractions import Fraction

        D = np.empty((n, n), dtype=object)
        D[...] = Fraction(0)
        term = exact_eye(n)
        for j in range(1, k):
            term = term @ psi
            D = D + term * Fraction((-1) ** (j + 1), j)
        return D

    Nf = to_float(N)
    n = Nf.shape[0]
    psi = Nf - np.eye(n)
    scale = max(1.0, float(np.linalg.norm(psi, 2)))
    P = psi.copy()
    k = None
    for j in range(1, n + 1):
        if np.linalg.norm(P, 2) <= 1e-10 * scale**j:
            k = j
            break
        P = P @ psi
    if k is None:
        k_fail = _first_stable_power(psi, scale)
        raise ValueError(
            f"matrix is not unipotent: (N - I)^{k_fail} has stabilized at a nonzero value"
        )
    D = np.zeros((n, n))
    term = np.eye(n)
    for j in range(1, k):
        term = term @ psi
        D += ((-1) ** (j + 1) / j) * term
    return D


def _first_stable_power(psi, scale: float | None = None) -> int:
    """Smallest k at which the rank of psi^k stops dropping while nonzero."""
    n = psi.shape[0]
    if is_exact(psi):
        from .exact import exact_rank

        ranks = []
        P = psi.copy()
        for _ in range(n + 1):
            ranks.append(exact_rank(P))
            P = P @ psi
    else:
        ranks = []
        P = to_float(psi).copy()
        for _ in range(n + 1):
            s = np.linalg.svd(P, compute_uv=False)
            ranks.append(int(np.sum(s > 1e-10 * (scale or 1.0))))
            P = P @ to_float(psi)
    for k in range(1, len(ranks)):
        if ranks[k] == ranks[k - 1] and ranks[k] > 0:
            return k
    return n


def reconstruct(spec: SpectralData, M) -> float:
    """Residual of rebuilding M from its block form in the cluster basis."""
    A = to_float(M)
    P = spec.basis_matrix()
    Pinv = np.linalg.inv(P)
    D = Pinv @ A.astype(complex) @ P
    # Zero the blocks that should vanish, then map back.
    B = np.zeros_like(D)
    i = 0
    for c in spec.clusters:
        B[i : i + c.multiplicity, i : i + c.multiplicity] = D[
            i : i + c.multiplicity, i : i + c.multiplicity
        ]
        i += c.multiplicity
    R = (P @ B @ Pinv).real
    return float(np.linalg.norm(R - A, 2))


def complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def spectral_data_to_json(spec: SpectralData) -> dict:
    """Wire format: eigenvalues as {"re", "im"}, bases as row-major
    [re, im] pair arrays."""
    clusters = []
    for c in spec.clusters:
        clusters.append(
            {
                "value": complex_to_json(c.value),
                "multiplicity": c.multiplicity,
                "diagonalizable": c.diagonalizable,
                "basis_re": c.basis.real.tolist(),
                "basis_im": c.basis.imag.tolist(),
            }
        )
    return {"tolerance": spec.tolerance, "dim": spec.dim, "clusters": clusters}
