"""Nilpotent group arithmetic in exponential coordinates.

Through the exponential map the inverse is negation and the product is
the Baker-Campbell-Hausdorff series, exact once truncated at the step:
a polynomial map, which `_Law` compiles once by running the Dynkin series
on polynomial coordinates into a table of monomials, each a shorter one
times one coordinate.  It is compiled in a basis adapted to the lower
central series g^1 > g^2 > ... (orthonormal for floats, rational for
Fractions): as [g^i, g^j] lies in g^(i+j), a coordinate of degree t has
monomials of weighted degree <= t only, where a dense basis has
thousands and, in floats, cancels large high-degree coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .exact import exact_eye, exact_inv, exact_rref, exact_zeros, is_exact, to_float
from .spectral import lambda_pow

__all__ = [
    "bch_coefficients",
    "bch_product",
    "inverse",
    "dilate",
    "GroupOps",
    "central_series_basis",
    "float_nilpotency_step",
    "MAX_SUPPORTED_STEP",
]

MAX_SUPPORTED_STEP = 8
_FILTRATION_TOL = 1e-9  # relative size of the forbidden brackets the float law zeroes
# A product runs over blocks of rows: each block's buffer holds at most
# _BLOCK_BYTES (it stays in a core's L2 cache), and a block has at most
# _BLOCK_ROWS rows (the three buffer rows of one multiply stay in L1).
# Both come from the block-size sweep over the benchmark laws in BENCH_14.json.
_BLOCK_BYTES = 1 << 20
_BLOCK_ROWS = 2048


def _block_rows(width: int) -> int:
    """Rows of one block whose buffer holds `width` 8-byte entries a row."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (8 * width)))


def _check_step(step: int) -> int:
    if not 1 <= step <= MAX_SUPPORTED_STEP:
        raise ValueError(
            f"supported nilpotency steps are 1..{MAX_SUPPORTED_STEP}, got {step}"
        )
    return step


@lru_cache(maxsize=None)
def bch_coefficients(step: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Dynkin coefficients of the truncated BCH series.

    Returns (word, coefficient) pairs where a word is a tuple over
    {0, 1} (0 = first argument, 1 = second) and the word's value is the
    left-normed bracket ad_{w_1} ... ad_{w_{k-1}} w_k.  Words whose
    bracket vanishes identically (repeated innermost letter) and zero
    coefficients are dropped.
    """
    _check_step(step)
    coeffs: dict[tuple[int, ...], Fraction] = {}

    def extend(word: tuple, denom: int, blocks: int) -> None:
        # append a block x^p y^q, p + q > 0, to a word of `blocks` blocks; the
        # new word's Dynkin term is (-1)^blocks / ((blocks + 1) |word| prod p! q!)
        for p in range(step - len(word) + 1):
            for q in range(step - len(word) - p + 1):
                if p + q:
                    w, d = word + (0,) * p + (1,) * q, denom * factorial(p) * factorial(q)
                    coeffs[w] = coeffs.get(w, 0) + Fraction((-1) ** blocks, (blocks + 1) * len(w) * d)
                    extend(w, d, blocks + 1)

    extend((), 1, 0)
    words = sorted(coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return tuple((w, c) for w, c in words if c != 0 and (len(w) < 2 or w[-1] != w[-2]))


def _bch_series(tensor: np.ndarray, coeff: dict, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y plus coeff[w] [w](x, y) over the words w of length >= 2, for
    object vectors: [w_1 ... w_k] is ad_{w_1} [w_2 ... w_k], so each distinct
    suffix, shortest first, costs one vector-matrix product."""
    ad = (np.tensordot(x, tensor, axes=1), np.tensordot(y, tensor, axes=1))
    value, out = {(0,): x, (1,): y}, x + y
    suffixes = {word[i:] for word in coeff for i in range(len(word) - 1)}
    for word in sorted(suffixes, key=lambda w: (len(w), w)):
        value[word] = value[word[1:]] @ ad[word[0]]  # v @ ad_z = [z, v]
        out = out + coeff.get(word, 0) * value[word]
    return out


class _Poly(dict):
    """A polynomial {sorted tuple of variables: nonzero coefficient}, with the
    arithmetic `_bch_series` does on object arrays (whose sums start at 0)."""

    def __add__(self, other):
        out = _Poly(self)
        for m, c in other.items() if isinstance(other, _Poly) else ():
            out[m] = out.get(m, 0) + c
        return _Poly((m, c) for m, c in out.items() if c)

    def __mul__(self, other):
        out = _Poly()
        for m2, c2 in other.items() if isinstance(other, _Poly) else [((), other)]:
            for m1, c1 in self.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return _Poly((m, c) for m, c in out.items() if c)

    __radd__, __rmul__ = __add__, __mul__


class _Law:
    """x * y = x + y + sum_j coef_j monomial j, compiled from a tensor (object
    array) in a central series basis, where rows X have coordinates X @ into
    and back maps those to X's own (none: X's own basis is the one).  A
    product runs over blocks of `block` rows; a block's buffer holds the
    coordinates of x, y in rows 0..2n-1 and monomial j in row 2n + j, row p
    times row v for (p, v) = pairs[j]; terms are the nonzero (row,
    coordinate, coefficient) of coef."""

    def __init__(self, tensor: np.ndarray, step: int, into=None, back=None):
        n, self.into = tensor.shape[0], into
        coeff = dict(bch_coefficients(step))  # Fraction times a float entry is a float
        xy = np.empty(2 * n, dtype=object)
        xy[:] = [_Poly({(i,): 1}) for i in range(2 * n)]
        rows: dict[tuple, dict] = {}  # monomial -> {coordinate: coefficient}
        for k, poly in enumerate(_bch_series(tensor, coeff, xy[:n], xy[n:])):
            for m, c in poly.items():
                rows.setdefault(m, {})[k] = c
        monos = {m[:d] for m in rows for d in range(2, len(m) + 1)}  # with prefixes
        index = {(i,): i for i in range(2 * n)}
        index.update((m, 2 * n + j) for j, m in enumerate(sorted(monos, key=lambda m: (len(m), m))))
        self.pairs = [(index[m[:-1]], m[-1]) for m in list(index)[2 * n :]]
        coef = np.zeros((len(self.pairs), n), dtype=object if into is None else into.dtype)
        for m, r in rows.items():
            for k, c in r.items() if len(m) > 1 else ():
                coef[index[m] - 2 * n, k] = c
        self.coef = coef if back is None else coef @ back
        self.terms = [(2 * n + j, k, self.coef[j, k]) for j, k in zip(*np.nonzero(self.coef))]
        self.block = _block_rows(2 * n + len(self.pairs))  # the buffer's rows

    def apply(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """x * y row by row, for (m, n) float or Fraction batches."""
        n, out = X.shape[1], X + Y
        if self.into is not None:
            if len(X) == 1:  # one two-row product, for the reason below
                XY = np.vstack([X, Y]) @ self.into
                X, Y = XY[:1], XY[1:]
            else:
                X, Y = X @ self.into, Y @ self.into
        # one buffer serves every block; a one-row block gets a zero row, as a
        # one-row matrix product takes BLAS's matrix-vector path, which rounds
        # differently, and the output would depend on where the blocks end
        rows = max(min(self.block, X.shape[0]), 2)
        buf = np.empty((2 * n + len(self.pairs), rows), dtype=X.dtype)
        for lo in range(0, X.shape[0], self.block):
            x, y, o = (a[lo : lo + self.block] for a in (X, Y, out))
            m = x.shape[0]
            B = buf[:, : max(m, 2)]
            B[:n, :m], B[n : 2 * n, :m], B[: 2 * n, m:] = x.T, y.T, 0
            for j, (p, v) in enumerate(self.pairs, 2 * n):
                np.multiply(B[p], B[v], out=B[j])
            if X.dtype != object:
                o += (B[2 * n :].T @ self.coef)[:m]
                continue
            for j, k, c in self.terms:  # Fractions: the nonzero terms only
                o[:, k] += c * B[j, :m]
        return out


def _float_law(tensor: np.ndarray, step: int, series) -> _Law:
    """The law in the orthonormal central series basis of `series` (walked
    here if None); the bracket entries the filtration forbids must be
    rounding noise, and are set to 0."""
    _, Q, deg = series or central_series_basis(tensor)
    T = np.einsum("ia,jb,ijk,kc->abc", Q, Q, tensor, Q)
    forced = deg[:, None, None] + deg[None, :, None] > deg[None, None, :]
    dropped = np.abs(T[forced]).max(initial=0.0)
    if dropped > _FILTRATION_TOL * max(1.0, np.abs(T).max(initial=0.0)):
        raise ValueError(f"structure tensor leaves its central series by {dropped:.1e}")
    return _Law(np.where(forced, 0.0, T).astype(object), step, Q, Q.T)


def _exact_law(g, step: int) -> _Law:
    """The law in a rational basis P whose columns extend a basis of each g^(t+1)
    to one of g^t; in the algebra's own one if P only permutes and scales axes,
    so that a product needs no change of basis."""
    P = exact_zeros((g.dim, 0))
    for B in reversed([exact_eye(g.dim)] + g.lower_central_series()):
        P = np.hstack([P, B])[:, exact_rref(np.hstack([P, B]))[1]]
    if ((P != 0).sum(axis=0) == 1).all():  # its own axes are adapted already
        return _Law(g.tensor_exact, step)
    Pinv = exact_inv(P)
    T = np.einsum("ia,jb,ijk,ck->abc", P, P, g.tensor_exact, Pinv, optimize=True)
    return _Law(T, step, Pinv.T, P.T)


def _step_of(g) -> int:
    step = g.nilpotency_step()
    if step is None:
        raise ValueError(f"{g.name} is not nilpotent; it has no BCH group structure")
    return step


def bch_product(g, x, y):
    """Group product of exponential coordinates; exact for rational input.

    Requires g nilpotent of step at most MAX_SUPPORTED_STEP.
    """
    if is_exact(x) and is_exact(y):
        if g._exact_group_law is None:  # one exact law per algebra
            g._exact_group_law = _exact_law(g, _step_of(g))
        return g._exact_group_law.apply(x[None, :], y[None, :])[0]
    return GroupOps.for_algebra(g).product(to_float(x)[None, :], to_float(y)[None, :])[0]


def inverse(x):
    """Group inverse: exp(v)^(-1) = exp(-v)."""
    return -x


def dilate(g, A, lam: float, x, *, check: bool = True):
    """Apply the dilation lam^A to a group element.

    A must be a derivation, so that lam^A is a group automorphism.
    """
    if check:
        from .algebra import check_derivation

        res = check_derivation(g, A)
        if not res:
            raise ValueError(f"dilation generator is not a derivation: {res.message}")
    return lambda_pow(A, lam) @ to_float(x)


class GroupOps:
    """The float group law of one structure tensor on (m, n) row batches (a
    one-row batch broadcasts).  Constructing one only checks the step: the
    first `product` compiles the law (see `_Law`) in the tensor's
    `central_series_basis`, given as `series` if the caller has it, and
    every later product reuses it."""

    def __init__(self, tensor: np.ndarray, step: int, series=None):
        self.tensor = np.asarray(tensor, dtype=float)
        self.step = _check_step(max(1, int(step)))
        self._series, self._law = series, None

    @classmethod
    def for_algebra(cls, g) -> "GroupOps":
        """The algebra's GroupOps, one per algebra."""
        if g._group_ops is None:
            g._group_ops = cls(g.tensor, _step_of(g))
        return g._group_ops

    def _compiled(self) -> _Law:
        if self._law is None:
            self._law = _float_law(self.tensor, self.step, self._series)
        return self._law

    @property
    def block(self) -> int:
        """Rows of one block of a product (see `_Law`); compiles the law."""
        return self._compiled().block

    def product(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X, Y = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (X, Y))
        return self._compiled().apply(*np.broadcast_arrays(X, Y))


def central_series_basis(tensor: np.ndarray, tol: float = 1e-10):
    """One SVD walk down the lower central series g = g^1 > ... > g^s > 0 of a
    float structure tensor: (s, Q, degrees), the columns of the orthonormal Q
    of degree t spanning g^t modulo g^(t+1).  ValueError if g is not nilpotent."""
    C = np.asarray(tensor, dtype=float)
    n, scale = C.shape[0], max(1.0, np.abs(C).max(initial=0.0))
    Q, degrees, current = np.zeros((n, 0)), [], np.eye(n)
    for t in range(1, n + 2):
        # the span of [e_i, v] over all basis vectors e_i and columns v of g^t
        cols = np.einsum("ijk,jc->ick", C, current).reshape(-1, n).T
        U, sv, _ = np.linalg.svd(cols, full_matrices=False)
        rank = int(np.sum(sv > tol * max(scale, sv[0])))
        if rank == current.shape[1] > 0 and t > 1:
            break
        k = current.shape[1] - rank  # g^t modulo g^(t+1)
        B = current - U[:, :rank] @ (U[:, :rank].T @ current)
        Q = np.hstack([Q, np.linalg.svd(B, full_matrices=False)[0][:, :k]])
        degrees += [t] * k
        if rank == 0:
            return t, Q, np.array(degrees, dtype=int)
        current = U[:, :rank]
    raise ValueError("structure tensor is not nilpotent")


def float_nilpotency_step(tensor: np.ndarray, tol: float = 1e-10) -> int | None:
    """Nilpotency step of a float structure tensor via the central series."""
    try:
        return central_series_basis(tensor, tol)[0]
    except ValueError:
        return None
