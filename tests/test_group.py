import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nilmetric import group
from nilmetric.algebra import LieAlgebra, abelian, engel, heisenberg, rototranslation
from nilmetric.exact import as_exact, exact_eye, expm_nilpotent
from nilmetric.group import (
    MAX_SUPPORTED_STEP,
    GroupOps,
    bch_coefficients,
    bch_product,
    dilate,
    float_nilpotency_step,
    inverse,
)
from nilmetric.metric import (
    AlgebraView,
    BuildParams,
    HomogeneousDistance,
    box_ball,
    build_ball,
    build_distance,
)
from nilmetric.spectral import lambda_pow


def _filiform(n):
    """Model filiform algebra, [e1, ei] = e(i+1): step n - 1."""
    return LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)}, name=f"filiform-{n}")


def _filiform7():
    """Model filiform algebra of step 6."""
    return _filiform(7)


def _free23():
    """Free nilpotent algebra of rank 2 and step 3."""
    return LieAlgebra(
        5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}, name="free23"
    )


def _rand_exact(rng, n):
    return as_exact(
        [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n)]
    )


def _rand_upper(rng, n):
    """A strictly upper triangular rational n x n matrix (nilpotent of step n - 1)."""
    M = exact_eye(n) * 0
    for i in range(n):
        for j in range(i + 1, n):
            M[i, j] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
    return M


def _log_unipotent(N):
    """log N for a unipotent rational matrix, by the terminating series."""
    n = N.shape[0]
    psi = N - exact_eye(n)
    D, term = psi * 0, exact_eye(n)
    for j in range(1, n + 1):
        term = term @ psi
        if all(x == 0 for x in term.reshape(-1)):
            break
        D = D + term * Fraction((-1) ** (j + 1), j)
    return D


def _words_on_matrices(words, X, Y):
    """The word table evaluated with matrix commutators."""
    memo = {}
    args = (X, Y)

    def val(w):
        if w not in memo:
            memo[w] = args[w[0]] if len(w) == 1 else args[w[0]] @ val(w[1:]) - val(w[1:]) @ args[w[0]]
        return memo[w]

    Z = X * 0
    for w, c in words:
        Z = Z + val(w) * c
    return Z


def test_bch_words_against_matrix_exponential():
    # oracle: on strictly upper triangular 7x7 matrices (nilpotent of
    # step 6), the word table must reproduce log(exp X exp Y) exactly
    rng = np.random.default_rng(7)
    words = bch_coefficients(6)
    assert len(words) == 40
    for _ in range(2):
        X, Y = _rand_upper(rng, 7), _rand_upper(rng, 7)
        oracle = _log_unipotent(expm_nilpotent(X) @ expm_nilpotent(Y))
        Z = _words_on_matrices(words, X, Y)
        assert all(a == b for a, b in zip(Z.reshape(-1), oracle.reshape(-1)))


@pytest.mark.parametrize("step, count", [(7, 104), (8, 166)])
def test_bch_words_against_matrix_exponential_above_step6(step, count):
    # the same oracle on (step + 1) x (step + 1) matrices
    rng = np.random.default_rng(step)
    words = bch_coefficients(step)
    assert len(words) == count
    X, Y = _rand_upper(rng, step + 1), _rand_upper(rng, step + 1)
    oracle = _log_unipotent(expm_nilpotent(X) @ expm_nilpotent(Y))
    Z = _words_on_matrices(words, X, Y)
    assert all(a == b for a, b in zip(Z.reshape(-1), oracle.reshape(-1)))


def test_steps_above_the_limit_are_rejected():
    assert MAX_SUPPORTED_STEP == 8
    with pytest.raises(ValueError, match="supported nilpotency steps"):
        bch_coefficients(9)
    # a group law of a larger step is refused when it is made, not used
    g = _filiform(10)
    with pytest.raises(ValueError, match="supported nilpotency steps"):
        GroupOps.for_algebra(g)
    with pytest.raises(ValueError, match="supported nilpotency steps"):
        HomogeneousDistance(AlgebraView.of(g), np.diag(np.arange(1.0, 11.0)), box_ball(10))
    with pytest.raises(ValueError, match="supported nilpotency steps"):
        bch_product(g, as_exact([0] * 10), as_exact([0] * 10))


def _filiform_matrix(x):
    """filiform-n as n x n strictly upper triangular matrices: e1 is the
    shift N on the first n - 1 coordinates and e(i+1) the column v_i in the
    last one, with N v_i = v_(i+1), so that [e1, e(i+1)] = e(i+2)."""
    n = len(x)
    M = exact_eye(n) * 0
    for i in range(1, n - 1):
        M[n - 2 - i, n - 1 - i] = x[0]
    for i in range(1, n):
        M[n - 1 - i, n - 1] = x[i]
    return M


@pytest.mark.parametrize("n", [8, 9])
def test_compiled_law_against_matrix_exponential(n):
    # the compiled exact law of filiform-8 (step 7) and filiform-9 (step 8)
    # against log(exp X exp Y) of its 8x8 and 9x9 matrix images
    g = _filiform(n)
    rng = np.random.default_rng(30 + n)
    for _ in range(3):
        x, y = _rand_exact(rng, n), _rand_exact(rng, n)
        oracle = _log_unipotent(expm_nilpotent(_filiform_matrix(x)) @ expm_nilpotent(_filiform_matrix(y)))
        got = _filiform_matrix(bch_product(g, x, y))
        assert all(a == b for a, b in zip(got.reshape(-1), oracle.reshape(-1)))


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


@pytest.mark.parametrize("n", [8, 9])
def test_associativity_and_inverse_exact_step7_step8(n):
    g = _filiform(n)
    assert g.nilpotency_step() == n - 1
    rng = np.random.default_rng(n)
    for _ in range(8):
        x, y, z = (_rand_exact(rng, g.dim) for _ in range(3))
        lhs = bch_product(g, bch_product(g, x, y), z)
        rhs = bch_product(g, x, bch_product(g, y, z))
        assert list(lhs) == list(rhs)
        assert list(bch_product(g, x, inverse(x))) == [0] * g.dim


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


def test_law_compiled_once_per_view_and_algebra(monkeypatch):
    # nothing is compiled when a view, its GroupOps or a distance is made;
    # the first product compiles, and later products and callers reuse it:
    # an algebra's view shares its float law (compiled lists whether each
    # compiled law is exact)
    compiled = []
    init = group._Law.__init__

    def counting(self, tensor, step, into=None, back=None):
        compiled.append(into is None or into.dtype == object)
        init(self, tensor, step, into, back)

    monkeypatch.setattr(group._Law, "__init__", counting)
    g = engel()
    view = AlgebraView.of(g)
    d = HomogeneousDistance(view, np.diag([1.0, 1.0, 2.0, 3.0]), box_ball(4))
    assert view.ops() is view.ops() is d.ops and compiled == []
    X = np.ones((3, 4))
    view.ops().product(X, X)
    d.pair(X, 2 * X)
    assert compiled == [False]
    assert GroupOps.for_algebra(g) is GroupOps.for_algebra(g)
    x = as_exact([1, 2, 3, 4])
    for _ in range(3):
        bch_product(g, x, x)
        bch_product(g, x.astype(float), x.astype(float))
    assert compiled == [False, True]


def test_one_view_per_algebra_and_build_distance_compiles_its_top_law_once(monkeypatch):
    compiled = []  # the dimension of each law compiled
    init = group._Law.__init__

    def counting(self, tensor, step, into=None, back=None):
        compiled.append(tensor.shape[0])
        init(self, tensor, step, into, back)

    monkeypatch.setattr(group._Law, "__init__", counting)
    g = engel()
    assert AlgebraView.of(g) is AlgebraView.of(g)
    assert AlgebraView.of(g).ops() is GroupOps.for_algebra(g)
    params = BuildParams(convexity_samples=2000, cap_samples=2000)
    d = build_distance(g, np.diag([1.0, 1.0, 2.0, 3.0]), params=params)
    d.pair(np.ones((3, 4)), np.zeros((3, 4)))
    # the top law once, for the build and the distance; the quotient's law once
    assert sorted(compiled) == [3, 4]
    build_ball(g, np.diag([1.0, 1.0, 2.0, 3.0]), params=params)
    assert sorted(compiled) == [3, 4]  # the plan keeps the quotient's view


@pytest.mark.parametrize("make", [heisenberg, engel, _free23, _filiform7])
def test_law_output_is_the_same_for_every_block_size(make):
    # a product runs block by block over independent rows, so the size of a
    # block changes no bit of it; the default block keeps its buffer within
    # the byte budget
    g = make()
    rng = np.random.default_rng(43)
    X, Y = rng.normal(size=(9000, g.dim)), rng.normal(size=(9000, g.dim))
    ops = GroupOps(g.tensor, g.nilpotency_step())
    want = ops.product(X, Y)
    law = ops._law
    assert law.block <= group._BLOCK_ROWS
    assert 8 * law.block * (2 * g.dim + len(law.pairs)) <= group._BLOCK_BYTES
    for block in (1, 7, 256, 1024, 4096, 8192):
        law.block = block
        rows = 500 if block < 256 else 9000  # one multiply per monomial and block
        assert np.array_equal(ops.product(X[:rows], Y[:rows]), want[:rows]), block


@pytest.mark.parametrize("make", [heisenberg, engel, _free23, _filiform7])
def test_law_on_its_own_axes_is_the_change_of_basis_bit_for_bit(make):
    # a central series basis that only permutes and signs the axes is folded
    # into the compiled table: the law makes no change of basis, and its
    # products are those of the unfolded table, bit for bit, for a batch
    # and for one row
    g = make()
    _, Q, _ = group.central_series_basis(g.tensor)
    T = np.einsum("ia,jb,ijk,kc->abc", Q, Q, g.tensor, Q)  # no rounding: Q is a signed permutation
    unfolded = group._Law(T.astype(object), g.nilpotency_step(), Q, Q.T)
    law = GroupOps(g.tensor, g.nilpotency_step())._compiled()
    assert law.into is None and unfolded.into is not None
    rng = np.random.default_rng(45)
    scale = np.geomspace(1e-4, 1e4, 5000)[:, None]
    X, Y = rng.normal(size=(5000, g.dim)) * scale, rng.normal(size=(5000, g.dim)) * scale
    assert np.array_equal(law.apply(X, Y), unfolded.apply(X, Y))
    for i in range(0, 5000, 500):
        assert np.array_equal(law.apply(X[i : i + 1], Y[i : i + 1]), unfolded.apply(X[i : i + 1], Y[i : i + 1]))


def test_law_keeps_a_dense_change_of_basis():
    # a rotated tensor's central series basis mixes the axes: its law keeps
    # its change of basis
    g = _free23()
    P, _ = np.linalg.qr(np.random.default_rng(46).normal(size=(5, 5)))
    rotated = np.einsum("ia,jb,ijk,kc->abc", P, P, g.tensor, P)
    assert GroupOps(rotated, 3)._compiled().into is not None


def test_group_ops_refuses_a_tensor_off_its_central_series():
    # [e1, e2] = e4, [e1, e3] = e5, [e4, e5] = e6 breaks Jacobi: e4 and e5 lie
    # in g^2, but their bracket only in g^3, not g^4; it is refused, not snapped
    C = np.zeros((6, 6, 6))
    for i, j, k in ((0, 1, 3), (0, 2, 4), (3, 4, 5)):
        C[i, j, k], C[j, i, k] = 1.0, -1.0
    assert float_nilpotency_step(C) == 3
    with pytest.raises(ValueError, match="central series"):
        GroupOps(C, 3).product(np.ones(6), np.ones(6))


def test_import_compiles_no_law():
    # importing the package builds no Dynkin table and loads neither scipy
    # nor pytest
    code = (
        "import json, sys, nilmetric\n"
        "from nilmetric.group import bch_coefficients\n"
        "print(json.dumps([bch_coefficients.cache_info().currsize,"
        " sorted(m for m in ('scipy', 'pytest') if m in sys.modules)]))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [0, []]
