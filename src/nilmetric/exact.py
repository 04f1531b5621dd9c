"""Exact rational linear algebra on small dense matrices.

Matrices and vectors with `Fraction` entries are stored as numpy object
arrays, so shapes, slicing and `@` behave like the float backend while
every arithmetic operation stays exact.  All routines here are O(n^3)
Gaussian-elimination style and are meant for the desk-scale dimensions
of structure-constant computations (n well below 100).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "frac",
    "as_exact",
    "as_integral",
    "is_exact",
    "to_float",
    "exact_eye",
    "exact_zeros",
    "exact_rref",
    "exact_rank",
    "int_pivot_columns",
    "exact_kernel",
    "exact_inv",
    "nilpotency_index",
    "expm_nilpotent",
    "format_frac",
]


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise TypeError(f"refusing to coerce non-integer float {x!r} to a rational")
        return Fraction(int(x))
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def format_frac(q: Fraction) -> str:
    q = frac(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def as_exact(data) -> np.ndarray:
    """Build an object-dtype array of Fractions from nested lists or an array."""
    arr = np.array(data, dtype=object)
    flat = arr.reshape(-1)
    for i, v in enumerate(flat):
        flat[i] = frac(v)
    return flat.reshape(arr.shape)


def as_integral(data) -> tuple[np.ndarray, int]:
    """(N, d) for a rational array M: d the common denominator of its
    entries and N = d M, an object array of Python ints."""
    Q = as_exact(data)
    d = math.lcm(1, *(q.denominator for q in Q.flat))
    N = np.array([q.numerator * (d // q.denominator) for q in Q.flat], dtype=object)
    return N.reshape(Q.shape), d


def is_exact(arr) -> bool:
    return isinstance(arr, np.ndarray) and arr.dtype == object


def to_float(arr) -> np.ndarray:
    return np.asarray(arr, dtype=float)


def exact_eye(n: int) -> np.ndarray:
    m = exact_zeros((n, n))
    for i in range(n):
        m[i, i] = Fraction(1)
    return m


def exact_zeros(shape) -> np.ndarray:
    m = np.empty(shape, dtype=object)
    m[...] = Fraction(0)
    return m.copy()


def exact_rref(M: np.ndarray):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = M.copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if R[i, c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        R[r] = R[r] / R[r, c]
        for i in range(rows):
            if i != r and R[i, c] != 0:
                R[i] = R[i] - R[i, c] * R[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def exact_rank(M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    _, pivots = exact_rref(M)
    return len(pivots)


def int_pivot_columns(M: np.ndarray) -> list[int]:
    """The pivot columns of an integer matrix, each one outside the span of
    the columns before it, by fraction-free (Bareiss) elimination: every
    division is exact, so Python ints stay exact and need no Fractions."""
    R = M.astype(object)
    pivots, prev = [], 1
    for c in range(R.shape[1]):
        r = len(pivots)
        if r == R.shape[0]:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        R[[r, r + nz[0]]] = R[[r + nz[0], r]]
        below = R[r, c] * R[r + 1 :, c + 1 :] - np.outer(R[r + 1 :, c], R[r, c + 1 :])
        R[r + 1 :, c + 1 :] = below // prev
        prev = R[r, c]
        pivots.append(c)
    return pivots


def exact_kernel(M: np.ndarray) -> np.ndarray:
    """Columns spanning ker(M), exact."""
    rows, cols = M.shape
    R, pivots = exact_rref(M)
    free = [c for c in range(cols) if c not in pivots]
    basis = exact_zeros((cols, len(free)))
    for j, fc in enumerate(free):
        basis[fc, j] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[pc, j] = -R[r, fc]
    return basis


def exact_inv(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    aug = exact_zeros((n, 2 * n))
    aug[:, :n] = M
    aug[:, n:] = exact_eye(n)
    R, pivots = exact_rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular over the rationals")
    return R[:, n:]


def _is_zero(M: np.ndarray) -> bool:
    return all(x == 0 for x in M.reshape(-1))


def nilpotency_index(M: np.ndarray) -> int | None:
    """Least k with M^k = 0, or None when M is not nilpotent."""
    n = M.shape[0]
    P = M.copy()
    for k in range(1, n + 1):
        if _is_zero(P):
            return k
        P = P @ M
    return None


def expm_nilpotent(M: np.ndarray) -> np.ndarray:
    """exp(M) by the terminating series; M must be nilpotent."""
    n = M.shape[0]
    out = exact_eye(n)
    term = exact_eye(n)
    for k in range(1, n + 1):
        term = (term @ M) / Fraction(k)
        if _is_zero(term):
            return out
        out = out + term
    raise ValueError("matrix is not nilpotent; exponential series does not terminate")
