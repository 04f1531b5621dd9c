"""Lie algebras given by rational structure constants.

Structure constants are stored sparsely as c[(i, j)][k] with i < j and
Fraction coefficients, so antisymmetry is built into the storage.  Every
identity check runs as tensor contractions over all basis pairs at once,
with one body for both arithmetics: rational inputs run on the integer
tensor, the constants times their common denominator, with the other
operands scaled to integers too (int64 when no sum can reach 2**63,
Python ints otherwise), and are tested for exact zeros; float inputs run
the same formula on the float tensor against an explicit tolerance.
This covers the Jacobi identity (checked at construction time), brackets,
the Leibniz and morphism checks, ideals, quotients and the lower central
series; spans and ranks come from fraction-free pivot columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import (
    as_exact,
    as_integral,
    exact_eye,
    exact_inv,
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
        return D, _as_ints(0, I)[0]

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
        if not (is_exact(x) and is_exact(y)):
            return np.einsum("ijk,i,j->k", self._tensor_float, to_float(x), to_float(y))
        (x, dx), (y, dy) = as_integral(x), as_integral(y)
        bound = self.dim**2 * _absmax(self._tensor_int) * _absmax(x) * _absmax(y)
        w = np.einsum("ijk,i,j->k", *_as_ints(bound, self._tensor_int, x, y))
        return _fractions(w, self._scale * dx * dy)

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


def _absmax(a: np.ndarray) -> int:
    return int(np.abs(a).max(initial=0))


def _as_ints(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The integer arrays in int64 when every result computed from them,
    at most `bound` in size, fits in it; in Python ints otherwise.  The
    bound has a factor of each array's largest entry, so it bounds the
    entries too unless it is 0; then the entries decide."""
    dtype = np.int64 if (bound or max(map(_absmax, arrays))) <= _INT64_MAX else object
    return [a.astype(dtype, copy=False) for a in arrays]


def _fractions(N: np.ndarray, den: int) -> np.ndarray:
    """The integer array N / den as Fractions."""
    return np.array([Fraction(int(x), den) for x in N.flat], dtype=object).reshape(N.shape)


def _int_tensordot(a: np.ndarray, b: np.ndarray, axes, terms: int = 1) -> np.ndarray:
    """np.tensordot of two integer arrays, exact: in int64 when a sum of
    `terms` results cannot reach 2**63 in size, in Python ints otherwise."""
    length = math.prod(a.shape[x] for x in axes[0])
    return np.tensordot(*_as_ints(terms * length * _absmax(a) * _absmax(b), a, b), axes)


def check_derivation(g: LieAlgebra, A, tol: float = FLOAT_LEIBNIZ_TOL) -> CheckResult:
    """Leibniz rule A[x,y] = [Ax,y] + [x,Ay] on all basis pairs.

    Exact when A is rational; float matrices are accepted with a
    residual tolerance relative to the size of A.
    """
    return _pair_check(g, A, tol, 1)


def check_automorphism(g: LieAlgebra, phi, tol: float = FLOAT_LEIBNIZ_TOL) -> CheckResult:
    """phi[x,y] = [phi x, phi y] on basis pairs; singular phi is rejected.

    Exact when phi is rational; float matrices are accepted with a
    residual tolerance relative to the size of phi squared, and are
    singular when their smallest singular value is at most n eps times
    the largest.
    """
    return _pair_check(g, phi, tol, 2)


def _pair_check(g: LieAlgebra, M, tol: float, degree: int) -> CheckResult:
    """The Leibniz (degree 1) or morphism (degree 2) identity of M on every
    basis pair at once, one formula for both arithmetics.  Rational M runs
    on the integer tensor D C with M times its common denominator d, so the
    residual is D d^degree times the true one and is tested for exact
    zeros; float M runs on the float tensor against tol times |M|^degree.
    Either way the witness is the pair of largest residual norm."""
    n = g.dim
    exact = _looks_rational(M)
    if exact:
        M, d = as_integral(M)
        # a residual entry sums at most n^2 + n products of an entry of the
        # tensor and two entries of M or d
        bound = (n * n + n) * _absmax(g._tensor_int) * max(_absmax(M), d) ** 2
        C, M = _as_ints(bound, g._tensor_int, M)
        den = g._scale * d**degree
        singular = degree == 2 and len(int_pivot_columns(M)) < n
    else:
        C, M, d = g.tensor, to_float(M), 1
        s = np.linalg.svd(M, compute_uv=False)
        smax = s.max(initial=0.0)
        singular = degree == 2 and s.min(initial=np.inf) <= n * np.finfo(float).eps * smax
    if singular:
        raise ValueError("automorphism candidate is singular")
    if degree == 1:
        # [M e_i, e_j] + [e_i, M e_j] - M [e_i, e_j] for every pair at once
        D = np.einsum("ai,ajk->ijk", M, C) + np.einsum("bj,ibk->ijk", M, C) - C @ M.T
        what, fails = "Leibniz", "Leibniz fails on (e{}, e{}): [Ax,y] + [x,Ay] - A[x,y] = {}"
    else:
        # [M e_i, M e_j] - d M [e_i, e_j] for every pair at once
        D = np.einsum("bj,ibk->ijk", M, np.einsum("ai,abk->ibk", M, C)) - d * (C @ M.T)
        what, fails = "morphism", "morphism identity fails on (e{}, e{}): [phi x, phi y] - phi[x,y] = {}"
    R = np.linalg.norm(to_float(D), axis=2)
    where = _worst_pair(R)
    if exact:
        if where is None:
            return CheckResult(True)
        i, j = where
        w = _fractions(D[i, j], den)
        message = fails.format(i + 1, j + 1, [format_frac(x) for x in w])
        return CheckResult(False, where, message, float(np.linalg.norm(to_float(w))))
    worst = 0.0 if where is None else float(R[where])
    if worst > tol * max(1.0, smax) ** degree:
        return CheckResult(
            False, where, f"{what} residual {worst:.2e} at basis pair {where}", worst
        )
    return CheckResult(True, residual=worst)


def _worst_pair(R: np.ndarray):
    """The basis pair i < j of largest size R[i, j], the first in row order
    among equals; None when every size is 0."""
    n = R.shape[0]
    R = np.where(np.triu(np.ones((n, n), dtype=bool), 1), R, 0.0)
    return divmod(int(np.argmax(R)), n) if R.max(initial=0.0) > 0 else None


def _looks_rational(M) -> bool:
    arr = np.asarray(M)
    if arr.dtype == object:
        return True
    if np.issubdtype(arr.dtype, np.integer):
        return True
    return False


def is_ideal(g: LieAlgebra, basis_cols: np.ndarray) -> CheckResult:
    """Exact check that [g, span(basis)] lies in span(basis).

    The brackets [e_i, h_j] are one contraction of the integer tensor,
    taken as columns in the order (i, j); the first one outside the span
    is the first pivot column of [H | brackets] past H."""
    H, d = as_integral(basis_cols)
    n, k = H.shape
    B = _int_tensordot(g._tensor_int, H, ([1], [0])).transpose(1, 0, 2).reshape(n, n * k)
    nonzero = np.flatnonzero((B != 0).any(axis=0))  # a zero column is never a pivot
    past = [c - k for c in int_pivot_columns(np.hstack([H, B[:, nonzero]])) if c >= k]
    if not past:
        return CheckResult(True)
    col = int(nonzero[past[0]])
    i, j = divmod(col, k)
    w = _fractions(B[:, col], g._scale * d)
    return CheckResult(
        False, (i, j), f"[e{i + 1}, h_{j + 1}] leaves the span: {[format_frac(x) for x in w]}"
    )


def quotient(g: LieAlgebra, ideal_basis) -> tuple[LieAlgebra, np.ndarray, np.ndarray]:
    """Quotient algebra by an ideal, with projection and section.

    Returns (g_hat, proj, section): proj is m x n with proj @ section = I.
    The section's columns are the standard axes outside the span of the
    ideal and of the axes before them, the pivot columns of [H | I] past
    H, so the coordinates are deterministic.
    """
    H = as_exact(ideal_basis)
    if H.ndim == 1:
        H = H.reshape(g.dim, 1)
    chk = is_ideal(g, H)
    if not chk:
        raise ValueError(f"not an ideal: {chk.message}")
    n, k = H.shape
    pivots = int_pivot_columns(np.hstack([as_integral(H)[0], np.eye(n, dtype=np.int64)]))
    h_cols = [c for c in pivots if c < k]
    chosen = [c - k for c in pivots if c >= k]
    m = len(chosen)
    section = exact_eye(n)[:, chosen]
    # proj = first m rows of [section | ideal]^(-1)
    proj = exact_inv(np.hstack([section, H[:, h_cols]]))[:m, :]
    # proj [e_a, e_b] over the chosen axes a, b, one contraction
    P, dp = as_integral(proj)
    T = _int_tensordot(g._tensor_int[np.ix_(chosen, chosen)], P, ([2], [1]))
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a, b, c in np.argwhere(T != 0):
        if a < b:
            table.setdefault((int(a), int(b)), {})[int(c)] = Fraction(int(T[a, b, c]), g._scale * dp)
    name = f"{g.name}/ideal{len(h_cols)}"
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
