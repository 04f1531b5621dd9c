"""Nilpotent group arithmetic in exponential coordinates.

A simply connected nilpotent group is identified with its Lie algebra
through the exponential map, so group elements are coordinate vectors,
the inverse is negation, and the product is the Baker-Campbell-Hausdorff
series truncated at the nilpotency step -- which makes it exact, not an
approximation.  Coefficients come from the Dynkin expansion: for every
word w in the letters {x, y} up to the step length, the contribution is
the left-normed bracket [w_1,[w_2,[...,w_k]]] times a rational constant,
and the constants are generated once per step and cached.

Left-normed words share suffixes, and each bracket is ad_x or ad_y
applied to a shorter suffix.  One evaluator builds the two operators
ad_x, ad_y from the structure tensor and walks the distinct suffixes
shortest first, so the series costs one vector-matrix product per
suffix.  It runs unchanged on both backends: Fraction object arrays for
rational inputs (exact) and float row batches for the sampling harnesses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .exact import is_exact, to_float
from .spectral import lambda_pow

__all__ = [
    "bch_coefficients",
    "bch_product",
    "inverse",
    "dilate",
    "GroupOps",
    "float_nilpotency_step",
    "MAX_SUPPORTED_STEP",
]

MAX_SUPPORTED_STEP = 6


def _pair_sequences(n_blocks: int, total: int):
    """All sequences of n_blocks pairs (p, q) != (0, 0) with sum total."""
    if n_blocks == 0:
        if total == 0:
            yield ()
        return
    for first_total in range(1, total - n_blocks + 2):
        for p in range(first_total + 1):
            q = first_total - p
            for rest in _pair_sequences(n_blocks - 1, total - first_total):
                yield ((p, q),) + rest


@lru_cache(maxsize=None)
def bch_coefficients(step: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Dynkin coefficients of the truncated BCH series.

    Returns (word, coefficient) pairs where a word is a tuple over
    {0, 1} (0 = first argument, 1 = second) and the word's value is the
    left-normed bracket ad_{w_1} ... ad_{w_{k-1}} w_k.  Words whose
    bracket vanishes identically (repeated innermost letter) and zero
    coefficients are dropped.
    """
    if not 1 <= step <= MAX_SUPPORTED_STEP:
        raise ValueError(
            f"supported nilpotency steps are 1..{MAX_SUPPORTED_STEP}, got {step}"
        )
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for degree in range(1, step + 1):
        for n_blocks in range(1, degree + 1):
            for seq in _pair_sequences(n_blocks, degree):
                word: list[int] = []
                denom = 1
                for p, q in seq:
                    word.extend([0] * p + [1] * q)
                    denom *= factorial(p) * factorial(q)
                c = Fraction((-1) ** (n_blocks - 1), n_blocks * degree * denom)
                key = tuple(word)
                coeffs[key] = coeffs.get(key, Fraction(0)) + c
    out = []
    for word, c in sorted(coeffs.items(), key=lambda kv: (len(kv[0]), kv[0])):
        if c == 0:
            continue
        if len(word) >= 2 and word[-1] == word[-2]:
            continue
        out.append((word, c))
    return tuple(out)


@lru_cache(maxsize=None)
def _word_suffixes(step: int) -> tuple[tuple[int, ...], ...]:
    """Distinct suffixes of length >= 2 of the step's Dynkin words,
    shortest first, so each one's inner suffix is evaluated before it."""
    words = bch_coefficients(step)
    found = {word[i:] for word, _ in words for i in range(len(word) - 1)}
    return tuple(sorted(found, key=lambda w: (len(w), w)))


def _bch_series(tensor: np.ndarray, step: int, coeff: dict, X, Y) -> np.ndarray:
    """Truncated BCH series: X + Y plus coeff[w] [w](X, Y) summed over the
    words w of length >= 2, row by row.

    X and Y are (m, n) batches, float or Fraction object arrays (a
    one-row batch broadcasts).  A left-normed word w_1 w_2 ... w_k is
    ad_{w_1} applied to the value of w_2 ... w_k, so the two operators
    ad_X, ad_Y are built once and every distinct suffix costs one
    batched vector-matrix product.
    """
    # ad[l][m] maps a row vector v to [Z_m, v] = v @ ad[l][m], Z = (X, Y)[l]
    ad = (np.tensordot(X, tensor, axes=(1, 0)), np.tensordot(Y, tensor, axes=(1, 0)))
    value = {(0,): X[:, None, :], (1,): Y[:, None, :]}
    out = X + Y
    for word in _word_suffixes(step):
        value[word] = value[word[1:]] @ ad[word[0]]
        if word in coeff:
            out = out + coeff[word] * value[word][:, 0, :]
    return out


def bch_product(g, x, y):
    """Group product of exponential coordinates; exact for rational input.

    Requires g nilpotent of step at most MAX_SUPPORTED_STEP.
    """
    step = g.nilpotency_step()
    if step is None:
        raise ValueError(f"{g.name} is not nilpotent; it has no BCH group structure")
    if is_exact(x) and is_exact(y):
        coeff = dict(bch_coefficients(step))
        return _bch_series(g.tensor_exact, step, coeff, x[None, :], y[None, :])[0]
    return GroupOps(g.tensor, step).product(
        to_float(x)[None, :], to_float(y)[None, :]
    )[0]


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
    """Vectorized group arithmetic for a fixed structure tensor.

    Batches are (m, n) arrays of row vectors.  The word table is fixed at
    construction; a product builds the batched operators ad_X, ad_Y once
    and then costs one batched vector-matrix product per distinct word
    suffix (44 at step 6, 6 at step 3).
    """

    def __init__(self, tensor: np.ndarray, step: int):
        self.tensor = np.asarray(tensor, dtype=float)
        self.dim = self.tensor.shape[0]
        self.step = max(1, int(step))
        self.coeff = {word: float(c) for word, c in bch_coefficients(self.step)}

    @classmethod
    def for_algebra(cls, g) -> "GroupOps":
        step = g.nilpotency_step()
        if step is None:
            raise ValueError(f"{g.name} is not nilpotent")
        return cls(g.tensor, step)

    def product(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return _bch_series(self.tensor, self.step, self.coeff, X, Y)

    def conjugate(self, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
        return self.product(self.product(Z, X), -np.atleast_2d(Z))


def float_nilpotency_step(tensor: np.ndarray, tol: float = 1e-10) -> int | None:
    """Nilpotency step of a float structure tensor via the central series."""
    C = np.asarray(tensor, dtype=float)
    n = C.shape[0]
    scale = max(1.0, np.abs(C).max())
    current = np.eye(n)
    for s in range(1, n + 2):
        # span of [e_i, v] over all basis vectors e_i and current columns v
        W = np.einsum("ijk,jc->ick", C, current)
        cols = W.reshape(n * current.shape[1], n).T
        if cols.size == 0:
            return s
        U, sv, _ = np.linalg.svd(cols, full_matrices=False)
        rank = int(np.sum(sv > tol * max(scale, sv[0] if sv.size else 1.0)))
        if rank == 0:
            return s
        if rank == current.shape[1] and s > 1:
            return None
        current = U[:, :rank]
    return None
