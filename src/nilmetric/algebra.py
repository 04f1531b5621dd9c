"""Lie algebras given by rational structure constants.

Structure constants are stored sparsely as c[(i, j)][k] with i < j and
Fraction coefficients, so antisymmetry is built into the storage.  The
Jacobi identity (checked at construction time) and the lower central
series run on one integer tensor, the constants times their common
denominator, so they stay exact without per-entry Fractions.  Brackets,
derivation/automorphism checks, ideals and quotients all run in exact
rational arithmetic whenever the inputs are rational; float inputs fall
back to residual tests with an explicit tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import (
    as_exact,
    coords_in_span,
    exact_inv,
    exact_rank,
    exact_zeros,
    frac,
    format_frac,
    int_pivot_columns,
    is_exact,
    to_float,
)

__all__ = [
    "LieAlgebra",
    "CheckResult",
    "check_derivation",
    "check_automorphism",
    "is_ideal",
    "quotient",
    "induced_on_quotient",
    "algebra_from_json",
    "algebra_to_json",
    "heisenberg",
    "engel",
    "abelian",
    "rototranslation",
]

FLOAT_LEIBNIZ_TOL = 1e-9
_INT64_MAX = 2**63 - 1


class JacobiError(ValueError):
    """Structure constants that fail the Jacobi identity."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a basis-pair identity check (Leibniz or morphism)."""

    ok: bool
    witness: tuple[int, int] | None = None
    message: str = ""
    residual: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


class LieAlgebra:
    """Finite-dimensional real Lie algebra with rational structure constants.

    brackets maps (i, j) with i < j (0-based) to {k: Fraction} meaning
    [e_i, e_j] = sum_k c * e_k.  Jacobi is checked exactly on build.
    """

    def __init__(self, dim: int, brackets: dict, name: str = ""):
        self.dim = int(dim)
        self.name = name or f"lie{dim}"
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), terms in brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            if i == j:
                raise ValueError(f"bracket ({i},{i}) must vanish; do not list it")
            key, sign = ((i, j), 1) if i < j else ((j, i), -1)
            dst = table.setdefault(key, {})
            for k, c in terms.items():
                c = frac(c) * sign
                dst[k] = dst.get(k, Fraction(0)) + c
        self.brackets = {
            key: {k: c for k, c in terms.items() if c != 0}
            for key, terms in table.items()
        }
        self.brackets = {key: t for key, t in self.brackets.items() if t}
        self._tensor_exact = self._build_tensor()
        self._tensor_float = to_float(self._tensor_exact)
        self._scale, self._tensor_int = self._build_int_tensor()
        self._check_jacobi()
        # made on first use by nilmetric.group, and the build plans by
        # derivation by nilmetric.metric
        self._group_ops = self._exact_group_law = self._view = None
        self._plans = {}

    def _build_tensor(self) -> np.ndarray:
        n = self.dim
        C = exact_zeros((n, n, n))
        for (i, j), terms in self.brackets.items():
            for k, c in terms.items():
                C[i, j, k] = c
                C[j, i, k] = -c
        return C

    def _build_int_tensor(self) -> tuple[int, np.ndarray]:
        """(D, I) with I = D C integral, D the common denominator: int64
        when every entry fits, Python ints otherwise."""
        D = math.lcm(1, *(c.denominator for t in self.brackets.values() for c in t.values()))
        I = np.zeros((self.dim,) * 3, dtype=object)
        for (i, j), terms in self.brackets.items():
            for k, c in terms.items():
                I[i, j, k] = c.numerator * (D // c.denominator)
                I[j, i, k] = -I[i, j, k]
        return D, I.astype(np.int64) if np.abs(I).max(initial=0) <= _INT64_MAX else I

    def _check_jacobi(self) -> None:
        # T[a, b, c] = D^2 [e_c, [e_a, e_b]], so the cyclic sum on (i, j, k)
        # is T[i, j, k] + T[j, k, i] + T[k, i, j]
        T = _int_tensordot(self._tensor_int, self._tensor_int, ([2], [1]), terms=3)
        J = T + T.transpose(2, 0, 1, 3) + T.transpose(1, 2, 0, 3)
        for i, j, k in np.argwhere((J != 0).any(axis=3)):  # in the order i, j, k
            if i < j < k:
                s = [Fraction(int(x), self._scale**2) for x in J[i, j, k]]
                raise JacobiError(
                    f"Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1}): "
                    f"cyclic sum = {[format_frac(x) for x in s]}"
                )

    def basis_vector(self, i: int) -> np.ndarray:
        v = exact_zeros(self.dim)
        v[i] = Fraction(1)
        return v

    @property
    def tensor(self) -> np.ndarray:
        """Full antisymmetric structure tensor C[i, j, k], float."""
        return self._tensor_float

    @property
    def tensor_exact(self) -> np.ndarray:
        return self._tensor_exact

    def bracket(self, x, y):
        """[x, y]; exact when both arguments are rational vectors."""
        if is_exact(x) and is_exact(y):
            n = self.dim
            out = exact_zeros(n)
            for (i, j), terms in self.brackets.items():
                coef = x[i] * y[j] - x[j] * y[i]
                if coef != 0:
                    for k, c in terms.items():
                        out[k] = out[k] + coef * c
            return out
        xf, yf = to_float(x), to_float(y)
        return np.einsum("ijk,i,j->k", self._tensor_float, xf, yf)

    @cached_property
    def _series(self) -> list[np.ndarray]:
        n, D = self.dim, self._scale
        series = []
        W, E = np.eye(n, dtype=np.int64), 1  # the current columns, times E
        while True:
            # all [e_i, w_j] times D E, as the columns (i, j) in that order
            B = _int_tensordot(self._tensor_int, W, ([1], [0])).transpose(1, 0, 2)
            B = B.reshape(n, n * W.shape[1])
            B = B[:, (B != 0).any(axis=0)]  # a zero column is never a pivot
            W, E = B[:, int_pivot_columns(B)], D * E
            series.append(W.astype(object) * Fraction(1, E))
            if W.shape[1] == 0 or len(series) > 1 and W.shape[1] == series[-2].shape[1]:
                return series

    def lower_central_series(self) -> list[np.ndarray]:
        """Exact bases (columns) of g^(2) = [g,g], g^(3) = [g, g^(2)], ...

        Walked once per algebra; each call gets its own copies."""
        return [B.copy() for B in self._series]

    def nilpotency_step(self) -> int | None:
        """Smallest s with g^(s+1) = 0, or None when not nilpotent."""
        return len(self._series) if self._series[-1].shape[1] == 0 else None

    @property
    def is_nilpotent(self) -> bool:
        return self.nilpotency_step() is not None

    @property
    def is_abelian(self) -> bool:
        return not self.brackets

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


def _int_tensordot(a: np.ndarray, b: np.ndarray, axes, terms: int = 1) -> np.ndarray:
    """np.tensordot of two integer arrays, exact: in int64 when a sum of
    `terms` results cannot reach 2**63 in size, in Python ints otherwise."""
    length = math.prod(a.shape[x] for x in axes[0])
    bound = terms * length * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    dtype = np.int64 if bound <= _INT64_MAX else object
    return np.tensordot(a.astype(dtype, copy=False), b.astype(dtype, copy=False), axes)


def _exact_column_space(M: np.ndarray) -> np.ndarray:
    """Independent columns spanning the column space of M, exact."""
    from .exact import exact_rref

    if M.shape[1] == 0:
        return M
    _, pivots = exact_rref(M.copy())
    return M[:, pivots].copy()


def _pair_iter(n: int):
    for i in range(n):
        for j in range(i + 1, n):
            yield i, j


def check_derivation(g: LieAlgebra, A, tol: float = FLOAT_LEIBNIZ_TOL) -> CheckResult:
    """Leibniz rule A[x,y] = [Ax,y] + [x,Ay] on all basis pairs.

    Exact when A is rational; float matrices are accepted with a
    residual tolerance relative to the size of A.
    """
    exact = is_exact(A) or _looks_rational(A)
    if exact and not is_exact(A):
        A = as_exact(A)
    if exact:
        for i, j in _pair_iter(g.dim):
            lhs = g.bracket(A @ g.basis_vector(i), g.basis_vector(j)) + g.bracket(
                g.basis_vector(i), A @ g.basis_vector(j)
            )
            rhs = A @ g.bracket(g.basis_vector(i), g.basis_vector(j))
            diff = lhs - rhs
            if any(x != 0 for x in diff):
                return CheckResult(
                    False,
                    (i, j),
                    f"Leibniz fails on (e{i + 1}, e{j + 1}): "
                    f"A[x,y] - [Ax,y] - [x,Ay] = {[format_frac(x) for x in diff]}",
                )
        return CheckResult(True)
    Af = to_float(A)
    scale = max(1.0, np.linalg.norm(Af, 2))
    # [A e_i, e_j] + [e_i, A e_j] - A [e_i, e_j] for every pair at once
    C = g.tensor
    D = np.einsum("ai,ajk->ijk", Af, C) + np.einsum("bj,ibk->ijk", Af, C) - C @ Af.T
    worst, where = _worst_pair(D)
    if worst > tol * scale:
        return CheckResult(
            False, where, f"Leibniz residual {worst:.2e} at basis pair {where}", worst
        )
    return CheckResult(True, residual=worst)


def check_automorphism(g: LieAlgebra, phi, tol: float = FLOAT_LEIBNIZ_TOL) -> CheckResult:
    """phi[x,y] = [phi x, phi y] on basis pairs; singular phi is rejected."""
    exact = is_exact(phi) or _looks_rational(phi)
    if exact and not is_exact(phi):
        phi = as_exact(phi)
    if exact:
        if exact_rank(phi.copy()) < g.dim:
            raise ValueError("automorphism candidate is singular")
        for i, j in _pair_iter(g.dim):
            lhs = g.bracket(phi @ g.basis_vector(i), phi @ g.basis_vector(j))
            rhs = phi @ g.bracket(g.basis_vector(i), g.basis_vector(j))
            diff = lhs - rhs
            if any(x != 0 for x in diff):
                return CheckResult(
                    False,
                    (i, j),
                    f"morphism identity fails on (e{i + 1}, e{j + 1}): "
                    f"[phi x, phi y] - phi[x,y] = {[format_frac(x) for x in diff]}",
                )
        return CheckResult(True)
    Pf = to_float(phi)
    if abs(np.linalg.det(Pf)) < 1e-12:
        raise ValueError("automorphism candidate is singular")
    scale = max(1.0, np.linalg.norm(Pf, 2)) ** 2
    # [phi e_i, phi e_j] - phi [e_i, e_j] for every pair at once
    C = g.tensor
    D = np.einsum("bj,ibk->ijk", Pf, np.einsum("ai,abk->ibk", Pf, C)) - C @ Pf.T
    worst, where = _worst_pair(D)
    if worst > tol * scale:
        return CheckResult(
            False, where, f"morphism residual {worst:.2e} at basis pair {where}", worst
        )
    return CheckResult(True, residual=worst)


def _worst_pair(D: np.ndarray):
    """(worst, where): the largest residual norm |D[i, j]| over basis pairs
    i < j and the first pair, in `_pair_iter` order, that attains it
    (where is None when every residual is 0)."""
    n = D.shape[0]
    R = np.where(np.triu(np.ones((n, n), dtype=bool), 1), np.linalg.norm(D, axis=2), 0.0)
    worst = float(R.max(initial=0.0))
    return (worst, divmod(int(np.argmax(R)), n)) if worst > 0 else (0.0, None)


def _looks_rational(M) -> bool:
    arr = np.asarray(M)
    if arr.dtype == object:
        return True
    if np.issubdtype(arr.dtype, np.integer):
        return True
    return False


def is_ideal(g: LieAlgebra, basis_cols: np.ndarray) -> CheckResult:
    """Exact check that [g, span(basis)] lies in span(basis)."""
    H = basis_cols if is_exact(basis_cols) else as_exact(basis_cols)
    for i in range(g.dim):
        ei = g.basis_vector(i)
        for j in range(H.shape[1]):
            w = g.bracket(ei, H[:, j])
            if coords_in_span(H, w) is None:
                return CheckResult(
                    False,
                    (i, j),
                    f"[e{i + 1}, h_{j + 1}] leaves the span: "
                    f"{[format_frac(x) for x in w]}",
                )
    return CheckResult(True)


def quotient(g: LieAlgebra, ideal_basis) -> tuple[LieAlgebra, np.ndarray, np.ndarray]:
    """Quotient algebra by an ideal, with projection and section.

    Returns (g_hat, proj, section): proj is m x n with proj @ section = I,
    structure constants on the complement basis picked by greedy pivoting
    over the standard basis vectors (deterministic coordinates).
    """
    H = ideal_basis if is_exact(ideal_basis) else as_exact(ideal_basis)
    if H.ndim == 1:
        H = H.reshape(g.dim, 1)
    chk = is_ideal(g, H)
    if not chk:
        raise ValueError(f"not an ideal: {chk.message}")
    n = g.dim
    Hi = _exact_column_space(H)
    h_rank = Hi.shape[1]
    # Greedy pivot: extend the ideal basis by standard basis vectors.
    chosen: list[int] = []
    span = Hi.copy()
    rank = h_rank
    for i in range(n):
        cand = np.hstack([span, g.basis_vector(i).reshape(n, 1)])
        r = exact_rank(cand.copy())
        if r > rank:
            chosen.append(i)
            span, rank = cand, r
    m = len(chosen)
    if m + h_rank != n:
        raise RuntimeError("complement construction failed to reach full rank")
    section = exact_zeros((n, m))
    for col, i in enumerate(chosen):
        section[i, col] = Fraction(1)
    # proj = first m rows of [section | ideal]^(-1)
    full = np.hstack([section, Hi])
    proj = exact_inv(full)[:m, :]
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(m):
        for b in range(a + 1, m):
            w = proj @ g.bracket(section[:, a], section[:, b])
            terms = {k: w[k] for k in range(m) if w[k] != 0}
            if terms:
                table[(a, b)] = terms
    name = f"{g.name}/ideal{h_rank}"
    return LieAlgebra(m, table, name=name), proj, section


def induced_on_quotient(A, proj: np.ndarray, section: np.ndarray, tol: float = 1e-10):
    """The map A_hat with A_hat @ proj = proj @ A, for A preserving the ideal."""
    if is_exact(A) and is_exact(proj):
        Ah = proj @ A @ section
        resid = Ah @ proj - proj @ A
        if any(x != 0 for x in resid.reshape(-1)):
            raise ValueError("map does not preserve the ideal; no induced quotient map")
        return Ah
    Af, Pf, Sf = to_float(A), to_float(proj), to_float(section)
    Ah = Pf @ Af @ Sf
    resid = np.linalg.norm(Ah @ Pf - Pf @ Af, 2)
    if resid > tol * max(1.0, np.linalg.norm(Af, 2)):
        raise ValueError(
            f"map does not preserve the ideal (residual {resid:.2e}); "
            "no induced quotient map"
        )
    return Ah


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def algebra_to_json(g: LieAlgebra) -> dict:
    brackets = []
    for (i, j), terms in sorted(g.brackets.items()):
        brackets.append(
            {
                "i": i + 1,
                "j": j + 1,
                "terms": [
                    {"k": k + 1, "coeff": format_frac(c)} for k, c in sorted(terms.items())
                ],
            }
        )
    return {"name": g.name, "dimension": g.dim, "brackets": brackets}


def algebra_from_json(obj: dict) -> LieAlgebra:
    """Parse {"name", "dimension", "brackets": [{"i","j","terms":[{"k","coeff"}]}]}.

    Indices are 1-based in the JSON form.
    """
    try:
        dim = int(obj["dimension"])
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for b in obj.get("brackets", []):
            i, j = int(b["i"]) - 1, int(b["j"]) - 1
            terms = {int(t["k"]) - 1: frac(t["coeff"]) for t in b["terms"]}
            key = (i, j)
            if key in table:
                raise ValueError(f"duplicate bracket entry for ({i + 1},{j + 1})")
            table[key] = terms
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed algebra description: {err}") from err
    return LieAlgebra(dim, table, name=str(obj.get("name", "")))


def matrix_from_json(rows) -> np.ndarray:
    """Row-major matrix; entries may be numbers or 'p/q' strings."""
    if any(isinstance(x, str) for row in rows for x in row):
        return as_exact([[frac(x) if isinstance(x, (str, int)) else x for x in row] for row in rows])
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# Stock algebras
# ---------------------------------------------------------------------------

def heisenberg() -> LieAlgebra:
    """3-dimensional Heisenberg algebra, [e1, e2] = e3."""
    return LieAlgebra(3, {(0, 1): {2: 1}}, name="heisenberg")


def engel() -> LieAlgebra:
    """4-dimensional Engel algebra, [e1,e2] = e3, [e1,e3] = e4 (step 3)."""
    return LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}, name="engel")


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {}, name=f"abelian-r{n}")


def rototranslation() -> LieAlgebra:
    """Universal cover of the rototranslation group: [Z,X]=Y, [Z,Y]=-X.

    Basis order (X, Y, Z); not nilpotent, kept as a negative test input.
    """
    return LieAlgebra(3, {(0, 2): {1: -1}, (1, 2): {0: 1}}, name="rototranslation")
