import gc
from fractions import Fraction

import numpy as np
import pytest

from nilmetric.algebra import LieAlgebra, abelian, engel, heisenberg, rototranslation
from nilmetric.exact import as_exact, exact_eye, expm_nilpotent
from nilmetric.group import (
    GroupOps,
    bch_coefficients,
    bch_product,
    dilate,
    float_nilpotency_step,
    inverse,
)
from nilmetric.spectral import lambda_pow


def _filiform7():
    """Model filiform algebra, [e1, ei] = e(i+1): step 6, the largest supported."""
    return LieAlgebra(7, {(0, i): {i + 1: 1} for i in range(1, 6)}, name="filiform-7")


def _free23():
    """Free nilpotent algebra of rank 2 and step 3."""
    return LieAlgebra(
        5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}, name="free23"
    )


def _rand_exact(rng, n):
    return as_exact(
        [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n)]
    )


def test_bch_words_against_matrix_exponential():
    # oracle: on strictly upper triangular 7x7 matrices (nilpotent of
    # step 6), the word table must reproduce log(exp X exp Y) exactly
    rng = np.random.default_rng(7)

    def rand_upper(n):
        M = exact_eye(n) * 0
        for i in range(n):
            for j in range(i + 1, n):
                M[i, j] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        return M

    def comm(A, B):
        return A @ B - B @ A

    def log_u(N):
        n = N.shape[0]
        psi = N - exact_eye(n)
        D, term = psi * 0, exact_eye(n)
        for j in range(1, n + 1):
            term = term @ psi
            if all(x == 0 for x in term.reshape(-1)):
                break
            D = D + term * Fraction((-1) ** (j + 1), j)
        return D

    words = bch_coefficients(6)
    assert len(words) == 40
    for _ in range(2):
        X, Y = rand_upper(7), rand_upper(7)
        oracle = log_u(expm_nilpotent(X) @ expm_nilpotent(Y))
        memo = {}
        args = (X, Y)

        def val(w):
            if w in memo:
                return memo[w]
            v = args[w[0]] if len(w) == 1 else comm(args[w[0]], val(w[1:]))
            memo[w] = v
            return v

        Z = X * 0
        for w, c in words:
            Z = Z + val(w) * c
        assert all(a == b for a, b in zip(Z.reshape(-1), oracle.reshape(-1)))


def test_heisenberg_closed_form():
    h = heisenberg()
    a, b, c = Fraction(1), Fraction(2), Fraction(3)
    x, y, z = Fraction(4), Fraction(5), Fraction(6)
    got = bch_product(h, as_exact([a, b, c]), as_exact([x, y, z]))
    assert list(got) == [a + x, b + y, c + z + (a * y - b * x) / 2]


def test_identity_and_inverse():
    h = heisenberg()
    rng = np.random.default_rng(1)
    x = _rand_exact(rng, 3)
    zero = as_exact([0, 0, 0])
    assert list(bch_product(h, x, zero)) == list(x)
    assert list(bch_product(h, x, inverse(x))) == [0, 0, 0]
    assert list(inverse(as_exact([1, 2, 3]))) == [-1, -2, -3]


def test_associativity_exact():
    rng = np.random.default_rng(2)
    for g in (heisenberg(), engel()):
        for _ in range(25):
            x, y, z = (_rand_exact(rng, g.dim) for _ in range(3))
            lhs = bch_product(g, bch_product(g, x, y), z)
            rhs = bch_product(g, x, bch_product(g, y, z))
            assert all(a == b for a, b in zip(lhs, rhs))


def test_associativity_and_inverse_exact_step6():
    g = _filiform7()
    assert g.nilpotency_step() == 6
    zero = [0] * g.dim
    rng = np.random.default_rng(9)
    for _ in range(20):
        x, y, z = (_rand_exact(rng, g.dim) for _ in range(3))
        lhs = bch_product(g, bch_product(g, x, y), z)
        rhs = bch_product(g, x, bch_product(g, y, z))
        assert all(isinstance(v, Fraction) for v in lhs)
        assert list(lhs) == list(rhs)
        assert list(bch_product(g, x, inverse(x))) == zero


def test_antihomomorphism_of_inverse():
    g = engel()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = _rand_exact(rng, 4), _rand_exact(rng, 4)
        lhs = inverse(bch_product(g, x, y))
        rhs = bch_product(g, inverse(y), inverse(x))
        assert all(a == b for a, b in zip(lhs, rhs))


def test_non_nilpotent_rejected():
    r = rototranslation()
    with pytest.raises(ValueError, match="not nilpotent"):
        bch_product(r, as_exact([1, 0, 0]), as_exact([0, 1, 0]))


def test_dilate_diag():
    h = heisenberg()
    A = np.diag([1.0, 1.0, 2.0])
    assert np.allclose(dilate(h, A, 1.0, np.array([1.0, 1, 1])), [1, 1, 1])
    assert np.allclose(dilate(h, A, 2.0, np.array([1.0, 1, 1])), [2, 2, 4])


def test_dilate_rejects_non_derivation():
    h = heisenberg()
    with pytest.raises(ValueError, match="derivation"):
        dilate(h, np.eye(3), 2.0, np.array([1.0, 0, 0]))


def test_dilations_one_parameter_group():
    h = heisenberg()
    A = np.diag([1.0, 1.0, 2.0])
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=3)
        lam, mu = rng.uniform(0.2, 3, size=2)
        d1 = dilate(h, A, lam, dilate(h, A, mu, x), check=False)
        d2 = dilate(h, A, lam * mu, x, check=False)
        assert np.allclose(d1, d2, atol=1e-12)


def test_dilations_are_group_automorphisms_float():
    g = engel()
    ops = GroupOps.for_algebra(g)
    A = np.diag([1.0, 1.0, 2.0, 3.0])
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 4))
    Y = rng.normal(size=(50, 4))
    for lam in (0.3, 2.5):
        M = lambda_pow(A, lam)
        lhs = ops.product(X, Y) @ M.T
        rhs = ops.product(X @ M.T, Y @ M.T)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_dilations_are_group_automorphisms_exact():
    # nilpotent derivation of the Heisenberg algebra: exact lam = e^q case
    h = heisenberg()
    A = as_exact([[0, 0, 0], [0, 0, 0], [1, 2, 0]])
    from nilmetric.algebra import check_derivation
    from nilmetric.spectral import lambda_pow_exact

    assert check_derivation(h, A)
    M = lambda_pow_exact(A, Fraction(3, 2))
    rng = np.random.default_rng(6)
    for _ in range(10):
        x, y = _rand_exact(rng, 3), _rand_exact(rng, 3)
        lhs = M @ bch_product(h, x, y)
        rhs = bch_product(h, M @ x, M @ y)
        assert all(a == b for a, b in zip(lhs, rhs))


def test_float_nilpotency_step():
    assert float_nilpotency_step(heisenberg().tensor) == 2
    assert float_nilpotency_step(engel().tensor) == 3
    assert float_nilpotency_step(abelian(3).tensor) == 1
    assert float_nilpotency_step(rototranslation().tensor) is None


def test_group_ops_matches_exact():
    rng = np.random.default_rng(8)
    for g in (engel(), _filiform7(), _free23()):
        ops = GroupOps.for_algebra(g)
        for _ in range(5):
            x, y = _rand_exact(rng, g.dim), _rand_exact(rng, g.dim)
            exact = np.array([float(v) for v in bch_product(g, x, y)])
            approx = ops.product(
                np.array([float(v) for v in x])[None, :],
                np.array([float(v) for v in y])[None, :],
            )[0]
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(exact - approx).max() <= 1e-12 * scale


@pytest.mark.parametrize("make", [_filiform7, _free23])
def test_group_ops_basis_covariance(make):
    # a dense structure tensor, as build quotients produce: the product in
    # the basis f_a = sum_i P[i, a] e_i is P^T (P x * P y)
    g = make()
    rng = np.random.default_rng(10)
    P, _ = np.linalg.qr(rng.normal(size=(g.dim, g.dim)))
    rotated = np.einsum("ia,jb,ijk,kc->abc", P, P, g.tensor, P)
    ops, ops_rot = GroupOps.for_algebra(g), GroupOps(rotated, g.nilpotency_step())
    X, Y = rng.normal(size=(200, g.dim)), rng.normal(size=(200, g.dim))
    want = ops.product(X @ P.T, Y @ P.T) @ P
    got = ops_rot.product(X, Y)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_group_ops_broadcasts_single_row():
    ops = GroupOps.for_algebra(_filiform7())
    rng = np.random.default_rng(11)
    x, Y = rng.normal(size=(1, 7)), rng.normal(size=(30, 7))
    full = ops.product(np.repeat(x, 30, axis=0), Y)
    assert np.array_equal(ops.product(x, Y), full)
    assert np.array_equal(ops.product(Y, x), ops.product(Y, np.repeat(x, 30, axis=0)))


def test_group_ops_product_leaves_no_reference_cycle():
    # the word values are freed by reference counting when product
    # returns, not left for the cyclic collector
    ops = GroupOps.for_algebra(_filiform7())
    rng = np.random.default_rng(12)
    X, Y = rng.normal(size=(100, 7)), rng.normal(size=(100, 7))
    ops.product(X, Y)
    gc.disable()
    try:
        gc.collect()
        ops.product(X, Y)
        assert gc.collect() == 0
    finally:
        gc.enable()
