from fractions import Fraction

import numpy as np
import pytest

from nilmetric.exact import (
    as_exact,
    as_integral,
    exact_eye,
    exact_inv,
    exact_kernel,
    exact_rank,
    exact_rref,
    expm_nilpotent,
    frac,
    nilpotency_index,
    to_float,
)


def test_frac_parsing():
    assert frac("3/4") == Fraction(3, 4)
    assert frac(5) == Fraction(5)
    assert frac(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        frac(0.5)


def test_rref_and_rank():
    M = as_exact([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    R, pivots = exact_rref(M.copy())
    assert pivots == [0, 1]
    assert exact_rank(M) == 2


def test_kernel_is_exact_kernel():
    M = as_exact([[1, 2, 3], [4, 5, 6]])
    K = exact_kernel(M)
    assert K.shape[1] == 1
    prod = M @ K
    assert all(x == 0 for x in prod.reshape(-1))


def test_inverse_roundtrip():
    M = as_exact([[2, 1], [7, 4]])
    I = exact_inv(M) @ M
    assert all(I[i, j] == (1 if i == j else 0) for i in range(2) for j in range(2))
    with pytest.raises(ZeroDivisionError):
        exact_inv(as_exact([[1, 2], [2, 4]]))


def test_as_integral():
    N, d = as_integral(as_exact([["1/2", "-2/3"], [0, 5]]))
    assert d == 6 and N.dtype == object
    assert [[type(x) for x in row] for row in N] == [[int, int], [int, int]]
    assert N.tolist() == [[3, -4], [0, 30]]
    N, d = as_integral(np.zeros((3, 0), dtype=int))
    assert d == 1 and N.shape == (3, 0)


def test_nilpotency_index():
    N = as_exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert nilpotency_index(N) == 3
    assert nilpotency_index(as_exact([[0, 0], [0, 0]])) == 1
    assert nilpotency_index(as_exact([[1, 0], [0, 1]])) is None


def test_expm_nilpotent():
    N = as_exact([[0, 1], [0, 0]])
    E = expm_nilpotent(N)
    assert E[0, 1] == 1 and E[0, 0] == 1 and E[1, 0] == 0
    with pytest.raises(ValueError):
        expm_nilpotent(exact_eye(2))


def test_to_float():
    M = as_exact([["1/2", 1], [0, "3/4"]])
    assert np.allclose(to_float(M), [[0.5, 1.0], [0.0, 0.75]])
