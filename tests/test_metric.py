import math
import warnings

import numpy as np
import pytest

from nilmetric.algebra import abelian, engel, heisenberg
from nilmetric.catalog import CATALOG
from nilmetric.grading import classify_derivation
from nilmetric.metric import (
    AlgebraView,
    BuildParams,
    BuildRejected,
    DilationAction,
    HomogeneousDistance,
    LayeredBall,
    MaxOverMaps,
    NormBall,
    averaged_distance,
    ball_from_json,
    ball_to_json,
    bilipschitz_constants,
    box_ball,
    box_ball_certificate,
    build_ball,
    build_distance,
    chi,
    compact_closure_samples,
    default_theta,
    dilate_ball,
    find_chi_constant,
    sphere_polyline,
    sup_distance,
    tuned_norm,
    verify_A_convexity,
    verify_axioms,
)
from nilmetric.spectral import lambda_pow

SPIRAL = np.array([[2.0, -1.0], [1.0, 2.0]])
SHEAR15 = np.array([[1.5, 1.0], [0.0, 1.5]])
R2 = abelian(2)
R2V = AlgebraView.of(R2)


def _rot(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


# ---------------------------------------------------------------------------
# chi constant
# ---------------------------------------------------------------------------


def test_chi_constant_n1_lower_bound():
    # chi_C(1/2) = 2 (1/4) log 2 - C/4 <= 0 forces C >= 2 log 2
    C = find_chi_constant(1)
    assert C >= 2 * math.log(2)
    assert chi(C, np.array([0.5]), 1)[0] <= 0


def test_chi_endpoints_vanish():
    for n in (1, 2, 5):
        vals = chi(123.0, np.array([0.0, 1.0]), n)
        assert np.allclose(vals, 0.0)


def test_chi_constant_dense_grid_oracle():
    # independent fine grid of 10^6 points
    C = find_chi_constant(3)
    t = np.linspace(0.0, 1.0, 10**6)
    assert np.all(chi(C, t, 3) <= 1e-12)


# ---------------------------------------------------------------------------
# tuned norm
# ---------------------------------------------------------------------------


def test_tuned_norm_diagonal_layers_exact():
    A = np.diag([1.0, 1.0, 2.0])
    tn = tuned_norm(3, A, 0.5)
    assert np.allclose(tn.gram, np.eye(3), atol=1e-9)
    assert tn.epsilon == 1.0


def test_tuned_norm_rotation_is_euclidean():
    tn = tuned_norm(2, SPIRAL, 0.5)
    assert np.allclose(tn.gram, np.eye(2), atol=1e-9)


def test_tuned_norm_shear_shrinks_epsilon():
    tn = tuned_norm(2, SHEAR15, 0.25)
    assert tn.epsilon < 1.0
    # verified bound: |mu^A| <= mu^(1.25) on (0, 1]
    for mu in np.geomspace(1e-4, 1.0, 50):
        M = lambda_pow(SHEAR15, mu)
        L = np.linalg.cholesky(tn.gram)
        op = np.linalg.norm(L.T @ M @ np.linalg.inv(L).T, 2)
        assert op <= mu**1.25 * (1 + 1e-8)


def test_default_theta():
    assert default_theta([1.0, 2.0]) == 0.5
    assert default_theta([1.0, 1.5]) == 0.25
    assert default_theta([1.0]) == 0.5
    assert default_theta([1.0, 2.5], general_top=True) == 0.5
    assert default_theta([1.0, 2.2], general_top=True) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# balls and gauges
# ---------------------------------------------------------------------------


def test_build_ball_euclidean_case():
    d = build_distance(R2, 2.0 * np.eye(2))
    assert isinstance(d.ball, NormBall)
    assert np.allclose(d.ball.gram, np.eye(2), atol=1e-9)
    # mu^(-2) * 4 = 1 at mu = 2
    assert d.gauge(np.array([[4.0, 0.0]]))[0] == pytest.approx(2.0, rel=1e-9)
    assert d.gauge(np.zeros((1, 2)))[0] == 0.0


def test_build_ball_rejects_classifier_no():
    with pytest.raises(BuildRejected):
        build_ball(R2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_build_ball_heisenberg_layered():
    d = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    assert isinstance(d.ball, LayeredBall)
    rep = verify_axioms(d, d.view, d.A, samples=20000, seed=1)
    assert rep.triangle_excess <= 1e-8
    assert rep.homogeneity <= 1e-6
    assert rep.left_invariance <= 1e-8
    assert rep.symmetry <= 1e-8


@pytest.mark.parametrize(
    "entry,op",
    [
        (e.name, op)
        for e in CATALOG.values()
        for op, yes in e.expected.get("classify", {}).items()
        if yes
    ],
)
def test_build_ball_layer_split_matches_classifier(entry, op):
    # each LayeredBall level caps the top layer of the classifier's
    # grading (its diagonalizable core once the top weight is 2)
    e = CATALOG[entry]
    A = e.derivations[op]
    layers = classify_derivation(e.algebra, A).grading.layers
    ball = build_ball(
        e.algebra, A, params=BuildParams(convexity_samples=2000, cap_samples=2000)
    )
    level = 0
    while isinstance(ball, LayeredBall):
        top = layers[-1 - level]
        want = top.core.shape[1] if top.weight <= 2 + 1e-7 else top.dim
        assert np.linalg.matrix_rank(ball.top_map) == ball.top_map.shape[0] == want
        ball, level = ball.inner, level + 1
    assert isinstance(ball, NormBall)


def test_build_ball_shear_reproduces_admissible_distance():
    d = build_distance(R2, SHEAR15)
    assert isinstance(d.ball, NormBall)
    rep = verify_axioms(d, d.view, d.A, samples=20000, seed=2)
    assert rep.triangle_excess <= 1e-8 and rep.homogeneity <= 1e-6


def test_gauge_homogeneity_property():
    d = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    rng = np.random.default_rng(3)
    X = rng.normal(size=(2000, 3))
    lam = np.exp(rng.uniform(np.log(0.1), np.log(10), size=2000))
    n1 = d.gauge(d.action.apply(lam, X))
    n0 = d.gauge(X)
    assert np.max(np.abs(n1 - lam * n0) / (lam * n0)) <= 1e-6


def test_gauge_monotone_membership():
    # justifies bisection: mu -> [mu^(-A) x in B] is monotone
    d = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3)) * 2
    mus = np.geomspace(1e-3, 1e3, 200)
    for x in X:
        members = np.array(
            [d.ball.contains(d.action.apply(1 / mu, x[None, :]))[0] for mu in mus]
        )
        flips = np.diff(members.astype(int))
        assert np.all(flips >= 0)  # once inside, stays inside


def test_distance_identities():
    d = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    rng = np.random.default_rng(5)
    P = rng.normal(size=(100, 3))
    assert np.allclose(d.pair(P, P), 0.0, atol=1e-12)
    assert np.allclose(d.pair(np.zeros_like(P), P), d.gauge(P), atol=1e-12)


def test_scalar_homogeneity_for_unit_real_part():
    # spectrum 1 +- i, diagonalizable: the built gauge is a vector norm
    d = build_distance(R2, np.array([[1.0, -1.0], [1.0, 1.0]]))
    rng = np.random.default_rng(6)
    X = rng.normal(size=(5000, 2))
    c = rng.uniform(0.1, 10, size=5000)
    n1 = d.gauge(c[:, None] * X)
    n0 = d.gauge(X)
    assert np.max(np.abs(n1 - c * n0) / (c * n0)) <= 1e-6


# ---------------------------------------------------------------------------
# convexity harness
# ---------------------------------------------------------------------------


def test_box_ball_convex_for_spiral():
    rep = verify_A_convexity(box_ball(2), R2V, SPIRAL, samples=20000, seed=0)
    assert rep.violations == 0


def test_box_ball_not_convex_for_unit_shear():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = verify_A_convexity(box_ball(2), R2V, A, samples=20000, seed=0)
    assert rep.violations > 0
    # analytic witness: x = y = (1, -1), lam = 1/2 gives first coordinate
    # 1 + log 2 > 1
    act = DilationAction(A)
    z = act.apply(0.5, np.array([[1.0, -1.0]])) + act.apply(0.5, np.array([[1.0, -1.0]]))
    assert abs(z[0, 0]) == pytest.approx(1 + math.log(2), rel=1e-12)
    assert not box_ball(2).contains(z)[0]


def test_euclidean_ball_ordinary_convexity():
    rep = verify_A_convexity(NormBall(np.eye(2)), R2V, np.eye(2), samples=20000, seed=0)
    assert rep.violations == 0


def test_corrupted_cap_flags_triangle_violations():
    d = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    bad = d.ball.with_cap(d.ball.cap / 1e6)
    d_bad = HomogeneousDistance(d.view, d.A, bad)
    rep = verify_axioms(d_bad, d.view, d.A, samples=20000, seed=7)
    assert rep.triangle_excess > 1e-8
    cv = verify_A_convexity(bad, d.view, d.A, samples=5000, seed=8)
    assert cv.violations > 0


# ---------------------------------------------------------------------------
# box certificate
# ---------------------------------------------------------------------------


def test_box_ball_certificate():
    rep = box_ball_certificate(10**5)
    assert rep["ok"]
    assert rep["max_f"] <= 1 + 1e-12
    assert rep["symmetry_defect"] <= 1e-12
    assert rep["h_half"] <= 1 and rep["h_one"] <= 1
    assert rep["h2_min"] >= 2.0


# ---------------------------------------------------------------------------
# averaging, sup, biLipschitz
# ---------------------------------------------------------------------------


def test_averaged_distance_identity_only():
    d = build_distance(R2, 2.0 * np.eye(2))
    d2 = averaged_distance(d, [np.eye(2)])
    rng = np.random.default_rng(9)
    X, Y = rng.normal(size=(200, 2)), rng.normal(size=(200, 2))
    assert np.allclose(d2.pair(X, Y), d.pair(X, Y), rtol=1e-12)


def test_averaged_distance_finite_rotation_orbit():
    d_box = HomogeneousDistance(R2V, 2.0 * np.eye(2), box_ball(2))
    K = _rot(math.pi / 2)
    mats, info = compact_closure_samples(K)
    assert info["mode"] == "orbit" and info["order"] == 4
    d2 = averaged_distance(d_box, mats)
    rng = np.random.default_rng(10)
    X, Y = rng.normal(size=(300, 2)), rng.normal(size=(300, 2))
    v = d2.pair(X, Y)
    # exactly invariant under the generator and >= the base distance
    vr = d2.pair(X @ K.T, Y @ K.T)
    assert np.allclose(v, vr, rtol=1e-10)
    assert np.all(v >= d_box.pair(X, Y) - 1e-12)


def test_compact_closure_rational_rotation_is_orbit():
    mats, info = compact_closure_samples(_rot(2 * math.pi * 3 / 7))
    assert info == {"mode": "orbit", "order": 7}
    assert len(mats) == 7


def test_compact_closure_common_period_of_two_angles():
    K = np.zeros((4, 4))
    K[:2, :2], K[2:, 2:] = _rot(math.pi / 2), _rot(math.pi / 3)
    mats, info = compact_closure_samples(K)
    assert info == {"mode": "orbit", "order": 12}
    assert np.allclose(mats[-1] @ K, np.eye(4), atol=1e-12)


def test_compact_closure_irrational_rotation_is_torus_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mats, info = compact_closure_samples(_rot(1.0))
    assert info["mode"] == "torus" and info["count"] == 64
    assert len(mats) == 64


def test_max_over_maps_generic_path():
    d = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    K = np.diag([-1.0, -1.0, 1.0])  # automorphism of the Heisenberg algebra
    d2 = averaged_distance(d, [K])
    assert isinstance(d2, MaxOverMaps)
    rng = np.random.default_rng(11)
    X, Y = rng.normal(size=(100, 3)), rng.normal(size=(100, 3))
    assert np.all(d2.pair(X, Y) >= d.pair(X, Y) - 1e-12)


def test_sup_distance_fixed_point_of_homogeneous():
    d = build_distance(R2, 2.0 * np.eye(2))
    d2 = sup_distance(d, 2.0 * np.eye(2), 4.0, grid=16)
    rng = np.random.default_rng(12)
    X, Y = rng.normal(size=(200, 2)), rng.normal(size=(200, 2))
    assert np.max(np.abs(d2.pair(X, Y) - d.pair(X, Y))) < 1e-10 * 4
    assert np.all(d2.pair(X, Y) >= d.pair(X, Y) - 1e-12)


def test_sup_distance_periodicity_wrap():
    # the value of the rebalanced quotient at mu and lam*mu agree
    d_box = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    lam = math.e
    act = DilationAction(SPIRAL)
    rng = np.random.default_rng(13)
    W = rng.normal(size=(100, 2))
    for mu in (1.3, 2.0):
        v1 = d_box.gauge(act.apply(mu, W)) / mu
        v2 = d_box.gauge(act.apply(mu * lam, W)) / (mu * lam)
        assert np.allclose(v1, v2, rtol=1e-9)


def test_bilipschitz_constants_equal_distances():
    d = build_distance(R2, np.eye(2))
    L1, L2, info = bilipschitz_constants(d, d, 2.0 * np.eye(2), 2.0, samples=2000)
    assert info["k1"] == 0 and info["k2"] == 0
    assert L1 == L2 == 2.0
    assert info["validated"]


def test_bilipschitz_constants_scaled_distance():
    d1 = build_distance(R2, np.eye(2))
    half = NormBall(4.0 * np.eye(2))  # ball of radius 1/2 => distance 2x
    d2 = HomogeneousDistance(R2V, np.eye(2), half)
    L1, L2, info = bilipschitz_constants(d1, d2, 2.0 * np.eye(2), 2.0, samples=2000)
    assert L2 in (2.0, 4.0)
    assert np.isclose(info["max_ratio_d2_over_d1"], 2.0, rtol=1e-8)
    assert info["validated"]


def test_bilipschitz_rejects_non_common_dilation():
    d1 = build_distance(R2, np.eye(2))
    d2 = build_distance(R2, np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="common dilation"):
        bilipschitz_constants(d1, d2, 2.0 * np.eye(2), 2.0, samples=500)


# ---------------------------------------------------------------------------
# serialization, dilation of balls, rendering
# ---------------------------------------------------------------------------


def test_ball_json_roundtrip():
    d = build_distance(engel(), np.diag([1.0, 1.0, 2.0, 3.0]))
    obj = ball_to_json(d.ball)
    ball2 = ball_from_json(obj)
    rng = np.random.default_rng(14)
    X = rng.normal(size=(500, 4))
    assert np.array_equal(d.ball.contains(X), ball2.contains(X))


def test_dilate_ball_matches_gauge_scaling():
    d = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    mu = 0.7
    smaller = dilate_ball(d.ball, d.A, mu)
    d2 = HomogeneousDistance(d.view, d.A, smaller)
    rng = np.random.default_rng(15)
    X = rng.normal(size=(200, 3))
    # gauge of mu^A B is N(x)/mu
    assert np.allclose(d2.gauge(X), d.gauge(X) / mu, rtol=1e-8)


def test_sphere_polyline_euclidean():
    d = build_distance(R2, 2.0 * np.eye(2))
    angles, pts, resid = sphere_polyline(d, resolution=90)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)
    assert resid.max() < 1e-9


def test_sphere_polyline_box_square():
    d = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    angles, pts, resid = sphere_polyline(d, resolution=8)
    # vertices at angles pi/4 + k pi/2 are the square corners (+-1, +-1)
    corner = pts[1]
    assert np.allclose(np.abs(corner), [1.0, 1.0], atol=1e-9)
    edge = pts[0]
    assert np.allclose(edge, [1.0, 0.0], atol=1e-9)


def test_sphere_polyline_symmetric_for_shear():
    d = build_distance(R2, SHEAR15)
    _, pts, _ = sphere_polyline(d, resolution=180)
    # B = -B: radii at opposite angles agree
    r = np.linalg.norm(pts, axis=1)
    assert np.allclose(r, np.roll(r, 90), atol=1e-9)


def test_poly_ball_excess_and_layered_excess():
    b = box_ball(2)
    assert b.excess(np.array([[2.0, 0.0]]))[0] == pytest.approx(1.0)
    d = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    ex = d.ball.excess(np.array([[0.0, 0.0, 10.0]]))[0]
    assert ex > 0


def test_built_balls_symmetric_with_interior():
    rng = np.random.default_rng(16)
    for d in (
        build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0])),
        build_distance(engel(), np.diag([1.0, 1.0, 2.0, 3.0])),
        build_distance(R2, SHEAR15),
    ):
        U = rng.normal(size=(500, d.dim))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        eps = 1e-3
        assert np.all(d.ball.contains(eps * U))  # identity is interior
        X = rng.normal(size=(2000, d.dim))
        inside = d.ball.contains(X)
        assert np.array_equal(inside, d.ball.contains(-X))  # B = -B


def test_build_ball_rotating_first_layer():
    # complex eigenvalues 1 +- i on the first layer of the Heisenberg algebra
    h = heisenberg()
    A = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    d = build_distance(h, A)
    rep = verify_axioms(d, d.view, d.A, samples=30000, seed=20)
    assert rep.triangle_excess <= 1e-8 and rep.homogeneity <= 1e-6


def test_build_ball_free_nilpotent_rank2_step3():
    from nilmetric.algebra import LieAlgebra

    f23 = LieAlgebra(
        5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}, name="free23"
    )
    A = np.diag([1.0, 1.0, 2.0, 3.0, 3.0])
    d = build_distance(f23, A)
    assert isinstance(d.ball, LayeredBall)
    assert isinstance(d.ball.inner, LayeredBall)  # recursion depth 2
    rep = verify_axioms(d, d.view, d.A, samples=30000, seed=21)
    assert rep.triangle_excess <= 1e-8 and rep.homogeneity <= 1e-6


def test_build_ball_fractional_weights():
    h = heisenberg()
    d = build_distance(h, np.diag([1.2, 1.3, 2.5]))
    rep = verify_axioms(d, d.view, d.A, samples=30000, seed=22)
    assert rep.triangle_excess <= 1e-8 and rep.homogeneity <= 1e-6


def test_build_ball_complex_jordan_pair():
    # one non-diagonalizable conjugate pair 2 +- i on Abelian R^4
    r4 = abelian(4)
    A = np.array(
        [
            [2.0, -1.0, 1.0, 0.0],
            [1.0, 2.0, 0.0, 1.0],
            [0.0, 0.0, 2.0, -1.0],
            [0.0, 0.0, 1.0, 2.0],
        ]
    )
    d = build_distance(r4, A)
    assert isinstance(d.ball, NormBall)
    rep = verify_axioms(d, d.view, d.A, samples=30000, seed=23)
    assert rep.triangle_excess <= 1e-8 and rep.homogeneity <= 1e-6
