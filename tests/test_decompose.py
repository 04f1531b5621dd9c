import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from nilmetric.algebra import LieAlgebra, abelian, heisenberg
from nilmetric.decompose import (
    add_compact_part,
    compact_closure_samples,
    decompose_automorphism,
    realify,
)
from nilmetric.grading import classify_automorphism, grading_from_automorphism, split_derivation
from nilmetric.metric import (
    AlgebraView,
    HomogeneousDistance,
    MaxOverMaps,
    PolyBall,
    SupOverDilations,
    averaged_distance,
    bilipschitz_constants,
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


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0, 1.0])
def test_every_dilation_factor_entry_point_refuses_a_non_factor(lam):
    # NaN compares false with every number, so it passed the old
    # `lam <= 0 or lam == 1` checks: classify_automorphism said yes with NaN
    # weights, and inf made SupOverDilations warn
    d = HomogeneousDistance(R2V, np.eye(2), box_ball(2))
    phi = np.diag([2.0, 2.0])
    calls = {
        "classify_automorphism": lambda: classify_automorphism(R2, phi, lam),
        "grading_from_automorphism": lambda: grading_from_automorphism(R2, phi, lam),
        "decompose_automorphism": lambda: decompose_automorphism(R2, phi, lam),
        "realify": lambda: realify(R2, d, phi, lam, check_samples=50),
        "SupOverDilations": lambda: SupOverDilations(d, np.eye(2), lam, 4),
        "bilipschitz_constants": lambda: bilipschitz_constants(d, d, phi, lam, samples=50),
    }
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="dilation factor must be .*, got " + re.escape(str(lam))):
                call()


def test_expanding_entry_points_refuse_a_factor_below_one():
    d = HomogeneousDistance(R2V, np.eye(2), box_ball(2))
    with pytest.raises(ValueError, match="must be finite and > 1, got 0.5"):
        SupOverDilations(d, np.eye(2), 0.5, 4)
    with pytest.raises(ValueError, match="must be finite and > 1, got 0.5"):
        bilipschitz_constants(d, d, np.diag([0.5, 0.5]), 0.5, samples=50)


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


def _unfolded(g, d, delta, lam, grid):
    """realify's distance as the explicit composition: the sup over a
    dilation grid of the average over the compact closure."""
    dec = decompose_automorphism(g, delta, lam)
    mats, _ = compact_closure_samples(dec.K, view=AlgebraView.of(g))
    return SupOverDilations(averaged_distance(d, mats), dec.A, lam, grid)


def _same_values(g, d1, d2, seed):
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(2000, g.dim)) * 2.0, rng.normal(size=(2000, g.dim)) * 2.0
    v1, v2 = d1.pair_chunked(X, Y), d2.pair_chunked(X, Y)
    return float(np.max(np.abs(v1 - v2) / v2))


def test_realify_folds_the_box_into_one_polytope():
    d_box = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    delta = lambda_pow(SPIRAL, math.e)
    res = realify(R2, d_box, delta, math.e, check_samples=500, seed=0, mu_grid=32)
    assert isinstance(res.distance, HomogeneousDistance)
    assert isinstance(res.distance.ball, PolyBall)
    assert _same_values(R2, res.distance, _unfolded(R2, d_box, delta, math.e, 32), 21) <= 1e-12


def test_realified_box_gauge_is_the_root_of_its_row_maximum():
    # the folded r2-box ball is a 1026-row plane polytope whose gauge reads
    # excess off its hull; mu = N(x) must put mu^(-A) x on the boundary of
    # the maximum over all rows
    d_box = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    res = realify(R2, d_box, lambda_pow(SPIRAL, math.e), math.e, check_samples=500, seed=0, mu_grid=32)
    d = res.distance
    assert d.ball.rows.shape[0] > 1000
    X = np.random.default_rng(24).normal(size=(2000, 2)) * 3.0
    N = d.point(X)
    Y = np.stack([scipy.linalg.expm(-math.log(n) * d.A) @ x for n, x in zip(N, X)])
    assert np.max(np.abs(np.abs(Y @ d.ball.rows.T).max(axis=1) - 1.0)) <= 1e-9


def test_realify_folds_a_matching_derivation_into_the_base():
    g = heisenberg()
    d = build_distance(g, np.diag([1.0, 1.0, 2.0]))
    delta = np.diag([2.0, 2.0, 4.0])
    res = realify(g, d, delta, 2.0, check_samples=500, seed=0, mu_grid=48)
    assert res.distance is d
    assert _same_values(g, res.distance, _unfolded(g, d, delta, 2.0, 48), 22) <= 1e-12


def test_realify_falls_back_on_a_base_that_cannot_fold():
    # a max over maps is no single gauge; its values must still be the sup
    # over dilations of the closure average
    g = heisenberg()
    d = MaxOverMaps(build_distance(g, np.diag([1.0, 1.0, 2.0])), [np.diag([-1.0, -1.0, 1.0])])
    delta = np.diag([2.0, 2.0, 4.0])
    res = realify(g, d, delta, 2.0, check_samples=300, seed=0, mu_grid=16)
    assert _same_values(g, res.distance, _unfolded(g, d, delta, 2.0, 16), 23) <= 1e-12


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


def test_add_compact_part_torus_with_phase_pi():
    # angles {pi, 1} are rationally independent, so the closure is sampled
    # as a torus grid; the angle pi must not collapse to the order-2 group
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    K = scipy.linalg.block_diag(math.pi * J, J)
    A = 2.0 * np.eye(4)
    R4 = abelian(4)
    d0 = HomogeneousDistance(AlgebraView.of(R4), A, box_ball(4))
    d = add_compact_part(d0, R4, A, K)
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(200, 4)), rng.normal(size=(200, 4))
    base = d.pair(X, Y)
    for t in np.linspace(0.0, 1.0, 11)[1:]:
        R = scipy.linalg.expm(t * K)
        assert np.max(np.abs(d.pair(X @ R.T, Y @ R.T) - base) / base) < 2e-3


def test_add_compact_part_long_period_samples_the_same_circle():
    # K = J / 1000 has period 2000 pi; its orbit is the same circle of
    # rotations as for J, sampled at the same grid angles
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    d0 = HomogeneousDistance(R2V, 2.0 * np.eye(2), box_ball(2))
    d_fast = add_compact_part(d0, R2, 2.0 * np.eye(2), J, grid_per_angle=64)
    d_slow = add_compact_part(d0, R2, 2.0 * np.eye(2), J / 1000, grid_per_angle=64)
    rng = np.random.default_rng(7)
    X, Y = rng.normal(size=(300, 2)), rng.normal(size=(300, 2))
    assert np.allclose(d_slow.pair(X, Y), d_fast.pair(X, Y), rtol=1e-9)


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


def test_add_compact_part_samples_one_circle_of_the_flow():
    # rates 2 and 3 close after one period 2 pi, which the flow winds q = 2
    # times at the slowest rate: 64 grid points per winding, 128 maps, the
    # identity among them
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    K = scipy.linalg.block_diag(2.0 * J, 3.0 * J)
    A = 2.0 * np.eye(4)
    R4 = abelian(4)
    d2 = add_compact_part(build_distance(R4, A), R4, A, K, grid_per_angle=64)
    assert isinstance(d2, MaxOverMaps) and len(d2.mats) == 128
    step = scipy.linalg.expm((2 * math.pi / 128) * K)
    assert min(np.abs(M - step).max() for M in d2.mats) <= 1e-12


@pytest.mark.parametrize("mixed", [False, True])
def test_closure_filter_keeps_the_per_sample_result(mixed):
    # 5-dim Heisenberg, [x1, y1] = [x2, y2] = z, under K rotating two planes
    # by 1 and sqrt(2): a torus grid of 4096 maps.  Rotating (x1, y1) and
    # (x2, y2) keeps the bracket; rotating (x1, x2) and (y1, y2) keeps it
    # only where both angles agree, the grid's 64 diagonal maps
    g = LieAlgebra(5, {(0, 1): {4: 1}, (2, 3): {4: 1}}, name="h5")
    planes = [(0, 2), (1, 3)] if mixed else [(0, 1), (2, 3)]
    K = np.eye(5)
    for (i, j), t in zip(planes, (1.0, math.sqrt(2.0))):
        K[np.ix_([i, j], [i, j])] = _rot(t)
    grid, _ = compact_closure_samples(K)
    assert len(grid) == 4096
    kept, dropped = [], 0
    for M in grid:
        lhs = np.einsum("ijk,ia,jb->abk", g.tensor, M, M)
        rhs = np.einsum("abl,kl->abk", g.tensor, M)
        if np.abs(lhs - rhs).max() > 1e-7:
            dropped += 1
        else:
            kept.append(M)
    assert dropped == (4032 if mixed else 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mats, info = compact_closure_samples(K, view=AlgebraView.of(g))
    assert info["count"] == len(kept)
    assert np.array_equal(np.array(mats), np.array(kept))
    counts = [int(re.match(r"(\d+) closure samples", str(w.message))[1]) for w in caught]
    assert counts == ([dropped] if dropped else [])
