import math

import numpy as np
import pytest
import scipy.linalg

from nilmetric.algebra import abelian, heisenberg
from nilmetric.decompose import (
    add_compact_part,
    decompose_automorphism,
    realify,
)
from nilmetric.grading import split_derivation
from nilmetric.metric import (
    AlgebraView,
    HomogeneousDistance,
    box_ball,
    build_distance,
)
from nilmetric.spectral import lambda_pow

R2 = abelian(2)
R2V = AlgebraView.of(R2)
SPIRAL = np.array([[2.0, -1.0], [1.0, 2.0]])


def _rot(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def test_decompose_diagonal():
    dec = decompose_automorphism(R2, np.diag([2.0, 4.0]), 2.0)
    assert np.allclose(dec.K, np.eye(2), atol=1e-12)
    assert np.allclose(dec.A, np.diag([1.0, 2.0]), atol=1e-12)


def test_decompose_conformal():
    dec = decompose_automorphism(R2, 2.0 * _rot(math.pi / 4), 2.0)
    assert np.allclose(dec.K, _rot(math.pi / 4), atol=1e-12)
    assert np.allclose(dec.A, np.eye(2), atol=1e-12)


def test_decompose_shear():
    phi = np.array([[2.0, 2.0 * math.log(2.0)], [0.0, 2.0]])
    dec = decompose_automorphism(R2, phi, 2.0)
    assert np.allclose(dec.K, np.eye(2), atol=1e-10)
    assert np.allclose(dec.A, [[1.0, 1.0], [0.0, 1.0]], atol=1e-10)


def test_decompose_rejects_lambda_one():
    with pytest.raises(ValueError):
        decompose_automorphism(R2, np.diag([2.0, 4.0]), 1.0)


def test_decompose_rejects_non_automorphism():
    h = heisenberg()
    with pytest.raises(ValueError, match="automorphism"):
        decompose_automorphism(h, np.diag([2.0, 2.0, 2.0]), 2.0)


def _random_assembled_r2(rng):
    a = rng.uniform(0.6, 1.6)
    b = rng.uniform(-1.5, 1.5)
    theta = rng.uniform(0, 2 * math.pi)
    kind = rng.integers(0, 3)
    lam = 2.0
    if kind == 0:
        A0 = a * np.eye(2) + b * np.array([[0.0, -1.0], [1.0, 0.0]])
        K0 = _rot(theta)
    elif kind == 1:
        A0 = np.array([[a, 1.0], [0.0, a]])
        K0 = -np.eye(2) if rng.integers(0, 2) else np.eye(2)
    else:
        A0 = np.diag([a, a + rng.uniform(0.3, 1.0)])
        K0 = np.diag([1.0, -1.0]) if rng.integers(0, 2) else np.eye(2)
    return K0 @ lambda_pow(A0, lam), lam


def _random_assembled_heis(rng):
    a = rng.uniform(0.6, 1.4)
    b = rng.uniform(0.2, 1.5)
    theta = rng.uniform(0, 2 * math.pi)
    A0 = np.array([[a, -b, 0.0], [b, a, 0.0], [0.0, 0.0, 2 * a]])
    K0 = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    lam = 2.0
    return K0 @ lambda_pow(A0, lam), lam


def test_roundtrip_random_products():
    # small version of the acceptance sweep
    rng = np.random.default_rng(0)
    h = heisenberg()
    for _ in range(15):
        phi, lam = _random_assembled_r2(rng)
        dec = decompose_automorphism(R2, phi, lam)
        assert np.linalg.norm(dec.K @ lambda_pow(dec.A, lam) - phi, 2) <= 1e-8
        assert np.abs(np.linalg.eigvals(dec.A).imag).max() <= 1e-8
        assert np.linalg.norm(dec.K @ dec.A - dec.A @ dec.K, 2) <= 1e-9
    for _ in range(15):
        phi, lam = _random_assembled_heis(rng)
        dec = decompose_automorphism(h, phi, lam)
        assert np.linalg.norm(dec.K @ lambda_pow(dec.A, lam) - phi, 2) <= 1e-8
        assert np.abs(np.linalg.eigvals(dec.A).imag).max() <= 1e-8


def test_decompose_then_split_has_no_imaginary_part():
    rng = np.random.default_rng(1)
    for _ in range(10):
        phi, lam = _random_assembled_r2(rng)
        dec = decompose_automorphism(R2, phi, lam)
        AR, AI, AN = split_derivation(dec.A)
        assert np.abs(AI).max() <= 1e-9
        assert np.abs(dec.A - AR - AN).max() <= 1e-9


def test_realify_euclidean_rotation_is_identity_pipeline():
    d = build_distance(R2, np.eye(2))
    delta = 2.0 * _rot(math.pi / 4)
    res = realify(R2, d, delta, 2.0, check_samples=400, seed=0, mu_grid=16)
    assert np.allclose(res.A, np.eye(2), atol=1e-10)
    rng = np.random.default_rng(2)
    X, Y = rng.normal(size=(200, 2)), rng.normal(size=(200, 2))
    assert np.allclose(res.distance.pair(X, Y), d.pair(X, Y), rtol=1e-7)


def test_realify_box_example():
    d_box = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    delta = lambda_pow(SPIRAL, math.e)
    res = realify(R2, d_box, delta, math.e, check_samples=500, seed=0, mu_grid=24)
    assert np.allclose(res.A, 2.0 * np.eye(2), atol=1e-9)
    eigs = np.linalg.eigvals(res.A)
    assert eigs.real.min() >= 1 - 1e-8
    assert res.dilation_residual <= res.invariance_defect + 1e-9
    assert res.bilipschitz_info["validated"]


def test_realify_inverts_small_factors():
    d = build_distance(R2, np.eye(2))
    delta = 0.5 * _rot(0.3)
    res = realify(R2, d, delta, 0.5, check_samples=300, seed=1, mu_grid=16)
    assert np.linalg.eigvals(res.A).real.min() >= 1 - 1e-8


def test_realify_already_real_spectrum():
    d = build_distance(R2, np.diag([1.0, 2.0]))
    delta = lambda_pow(np.diag([1.0, 2.0]), 2.0)
    res = realify(R2, d, delta, 2.0, check_samples=400, seed=2, mu_grid=16)
    assert np.allclose(res.decomposition.K, np.eye(2), atol=1e-10)
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(200, 2)), rng.normal(size=(200, 2))
    assert np.allclose(res.distance.pair(X, Y), d.pair(X, Y), rtol=1e-8)


def test_realify_rejects_wrong_factor():
    d_box = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    delta = lambda_pow(SPIRAL, math.e)
    with pytest.raises(ValueError, match="not a sampled dilation"):
        realify(R2, d_box, delta, math.e**2, check_samples=200, seed=0)


def test_add_compact_part_zero_is_identity():
    d = build_distance(R2, 2.0 * np.eye(2))
    d2 = add_compact_part(d, R2, 2.0 * np.eye(2), np.zeros((2, 2)))
    rng = np.random.default_rng(4)
    X, Y = rng.normal(size=(100, 2)), rng.normal(size=(100, 2))
    assert np.allclose(d2.pair(X, Y), d.pair(X, Y), rtol=1e-12)


def test_add_compact_part_rotation_on_box():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    d0 = HomogeneousDistance(R2V, 2.0 * np.eye(2), box_ball(2))
    d2 = add_compact_part(d0, R2, 2.0 * np.eye(2), J, grid_per_angle=64)
    rng = np.random.default_rng(5)
    X, Y = rng.normal(size=(300, 2)), rng.normal(size=(300, 2))
    base = d2.pair(X, Y)
    # pointwise at least the input
    assert np.all(base >= d0.pair(X, Y) - 1e-12)
    # invariant under grid rotations of the sampled closure
    R = scipy.linalg.expm((2 * math.pi / 64) * J)
    assert np.allclose(d2.pair(X @ R.T, Y @ R.T), base, rtol=1e-9)
    # (A+K)-homogeneity is exact when log(lam) lands on the grid ...
    lam_grid = math.exp(2 * math.pi * 4 / 64)
    M = lambda_pow(2.0 * np.eye(2) + J, lam_grid)
    assert np.allclose(d2.pair(X @ M.T, Y @ M.T), lam_grid * base, rtol=1e-9)
    # ... and off-grid the residual is the sampling density error, which
    # shrinks as the grid refines
    lam = 1.8
    M = lambda_pow(2.0 * np.eye(2) + J, lam)
    res64 = np.abs(d2.pair(X @ M.T, Y @ M.T) - lam * base).max() / (lam * base).max()
    assert res64 < 5e-4
    d3 = add_compact_part(d0, R2, 2.0 * np.eye(2), J, grid_per_angle=256)
    base3 = d3.pair(X, Y)
    res256 = (
        np.abs(d3.pair(X @ M.T, Y @ M.T) - lam * base3).max() / (lam * base3).max()
    )
    assert res256 < res64


def test_add_compact_part_incommensurable_angles_use_torus_grid():
    r4 = abelian(4)
    A = 2.0 * np.eye(4)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    K = np.zeros((4, 4))
    K[:2, :2], K[2:, 2:] = J, math.sqrt(2.0) * J
    d0 = HomogeneousDistance(AlgebraView.of(r4), A, box_ball(4))
    d2 = add_compact_part(d0, r4, A, K, grid_per_angle=64)
    rng = np.random.default_rng(6)
    X, Y = rng.normal(size=(300, 4)), rng.normal(size=(300, 4))
    base = d2.pair(X, Y)
    assert np.all(base >= d0.pair(X, Y) - 1e-12)
    # a torus grid element: the first angle advanced by one grid step,
    # the second by five
    M = np.zeros((4, 4))
    M[:2, :2] = scipy.linalg.expm((2 * math.pi / 64) * J)
    M[2:, 2:] = scipy.linalg.expm((2 * math.pi * 5 / 64) * J)
    assert np.allclose(d2.pair(X @ M.T, Y @ M.T), base, rtol=1e-9)
    # an off-grid rotation is not an isometry of the grid average
    R = np.eye(4)
    R[:2, :2] = scipy.linalg.expm(0.05 * J)
    assert not np.allclose(d2.pair(X @ R.T, Y @ R.T), base, rtol=1e-9)


def test_add_compact_part_rejects_bad_K():
    d = build_distance(R2, 2.0 * np.eye(2))
    with pytest.raises(ValueError, match="imaginary"):
        add_compact_part(d, R2, 2.0 * np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="commute"):
        add_compact_part(
            d, R2, np.diag([1.0, 2.0]), np.array([[0.0, -1.0], [1.0, 0.0]])
        )
