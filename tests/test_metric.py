import functools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from nilmetric.algebra import LieAlgebra, abelian, engel, heisenberg
from nilmetric.catalog import CATALOG
from nilmetric.grading import classify_derivation
from nilmetric.metric import (
    AlgebraView,
    BuildParams,
    BuildRejected,
    DilationAction,
    GaugeRecord,
    HomogeneousDistance,
    LayeredBall,
    MaxOverMaps,
    MetricFunction,
    SupOverDilations,
    NormBall,
    NumericFailure,
    PolyBall,
    _exponent_floor,
    _gram_restriction,
    _illinois_log_gauge,
    _ray_radii,
    _restricted_opnorm,
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
    sample_in_ball,
    sphere_polyline,
    tuned_norm,
    verify_A_convexity,
    verify_axioms,
)
from nilmetric.spectral import lambda_pow

SPIRAL = np.array([[2.0, -1.0], [1.0, 2.0]])
SHEAR15 = np.array([[1.5, 1.0], [0.0, 1.5]])
R2 = abelian(2)
R2V = AlgebraView.of(R2)
FREE23 = LieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}, name="free23")
FILIFORM7 = LieAlgebra(7, {(0, i): {i + 1: 1} for i in range(1, 6)}, name="filiform-7")
# the algebras and derivations of the balls frozen in perfbench/reference
FROZEN_CASES = {
    "heisenberg": (heisenberg(), np.diag([1.0, 1.0, 2.0])),
    "engel": (engel(), np.diag([1.0, 1.0, 2.0, 3.0])),
    "free23": (FREE23, np.diag([1.0, 1.0, 2.0, 3.0, 3.0])),
    "filiform-7": (FILIFORM7, np.diag([1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
}
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


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


def _gram_opnorm_oracle(T, basis, gram):
    """sup |T v|_gram / |v|_gram over v in span(basis), from the
    generalized eigenproblem of the two restricted quadratic forms."""
    TB = T @ basis
    G = basis.T @ gram @ basis
    top = scipy.linalg.eigh(TB.T @ gram @ TB, G, eigvals_only=True)
    return math.sqrt(max(top[-1], 0.0))


def test_restricted_opnorm_stack_matches_per_matrix():
    rng = np.random.default_rng(13)
    n, k = 5, 2
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        basis = Q[:, :k]
        # span(basis) is invariant: the lower-left block of Q^T T Q is zero
        B = rng.normal(size=(6, n, n))
        B[:, k:, :k] = 0.0
        T = Q @ B @ Q.T
        R = rng.normal(size=(n, n))
        gram = R @ R.T + 0.5 * np.eye(n)
        norms = _restricted_opnorm(T, basis, gram)
        assert norms.shape == (6,)
        for i in range(6):
            one = _restricted_opnorm(T[i], basis, gram)
            assert norms[i] == pytest.approx(one, rel=1e-13)
            oracle = _gram_opnorm_oracle(T[i], basis, gram)
            assert norms[i] == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("A, theta", [(SHEAR15, 0.25), (SPIRAL, 0.5)])
def test_tuned_norm_holds_layer_bounds_on_whole_grid(A, theta):
    # a 1000-point mu grid down to 1e-6, with mu^A recomputed independently
    tn = tuned_norm(2, A, theta)
    mus = np.geomspace(1e-6, 1.0, 1000)
    checks = []
    for layer in tn.grading.layers:
        checks.append((theta, layer.weight, layer.basis))
        if layer.core.shape[1]:
            checks.append((0.0, layer.weight, layer.core))
    for shift, weight, basis in checks:
        for mu in mus:
            T = scipy.linalg.expm(math.log(mu) * A)
            op = _gram_opnorm_oracle(T, basis, tn.gram)
            assert op <= mu ** (weight - shift) * (1 + 1e-8)


def test_log_norm_certificate_bounds_the_restricted_dilations():
    # lambda_min of the symmetric part of A on an invariant span, in
    # gram-orthonormal coordinates, bounds |mu^A v|_G <= mu^low |v|_G for
    # mu <= 1 and is the one-sided derivative of the bound at mu = 1;
    # oracle: expm of the euclidean block and a generalized eigenproblem
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        M = rng.normal(size=(n, n))
        M[k:, :k] = 0.0  # span(Q[:, :k]) is A-invariant
        A = Q @ M @ Q.T
        basis = Q[:, :k]
        R = rng.normal(size=(n, n))
        gram = R @ R.T + 0.1 * np.eye(n)
        C = _gram_restriction(A, basis, gram)
        low = np.linalg.eigvalsh((C + C.T) / 2.0)[0]
        S = basis.T @ A @ basis
        G = basis.T @ gram @ basis

        def op(mu):
            T = scipy.linalg.expm(math.log(mu) * S)
            return math.sqrt(scipy.linalg.eigh(T.T @ G @ T, G, eigvals_only=True)[-1])

        for mu in np.geomspace(1e-12, 1.0, 60):
            assert op(mu) <= mu**low * (1 + 1e-9)
        s = 1e-5
        rate = -math.log(op(math.exp(-s))) / s
        assert abs(rate - low) <= 1e-6 * max(1.0, np.linalg.norm(C, 2) ** 2)


def _changed_basis(g, A, seed):
    """g and A in the basis of the columns of a seeded integer unimodular
    P = U L (U unit upper-, L unit lower-triangular, entries in {-1, 0, 1}):
    the structure constants stay integral and A becomes P^-1 A P."""
    rng = np.random.default_rng(seed)
    n = g.dim
    U = np.triu(rng.integers(-1, 2, size=(n, n)), 1) + np.eye(n, dtype=int)
    L = np.tril(rng.integers(-1, 2, size=(n, n)), -1) + np.eye(n, dtype=int)
    P = U @ L
    Pinv = np.rint(np.linalg.inv(P)).astype(int)
    assert (P @ Pinv == np.eye(n, dtype=int)).all()
    C = np.einsum("ia,jb,ijk,lk->abl", P, P, np.rint(g.tensor).astype(int), Pinv)
    brackets = {
        (a, b): {k: int(C[a, b, k]) for k in np.flatnonzero(C[a, b])}
        for a in range(n)
        for b in range(a + 1, n)
        if C[a, b].any()
    }
    return LieAlgebra(n, brackets, name=g.name), Pinv @ A @ P


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in ("engel", "free23") for seed in range(3)]
    + [("filiform-7", 0), ("filiform-7", 1)],
)
def test_build_ball_in_changed_bases(name, seed):
    g, A = FROZEN_CASES[name]
    g2, A2 = _changed_basis(g, A, seed)
    build_ball(g2, A2, params=BuildParams(convexity_samples=2000, cap_samples=2000))
    theta = default_theta(classify_derivation(g, A).grading.weights, general_top=True)
    tn = tuned_norm(g.dim, A2, theta)
    assert tn.epsilon == tuned_norm(g.dim, A, theta).epsilon
    # every layer bound, on the layer's own block exponential in
    # gram-orthonormal coordinates (no n x n matrix is restricted)
    for layer in tn.grading.layers:
        for rate, basis in ((layer.weight - theta, layer.basis), (layer.weight, layer.core)):
            if not basis.shape[1]:
                continue
            B = basis @ np.linalg.inv(scipy.linalg.sqrtm(basis.T @ tn.gram @ basis).real)
            block = np.linalg.lstsq(B, A2 @ B, rcond=None)[0]
            for mu in np.geomspace(1e-6, 1.0, 50):
                op = np.linalg.norm(scipy.linalg.expm(math.log(mu) * block), 2)
                assert op <= mu**rate * (1 + 1e-8)


@pytest.mark.slow
def test_build_ball_in_every_changed_basis():
    # the full {-1, 0, 1} sweep: 20 seeds for each of the four algebras,
    # with the default build parameters
    failed = []
    for name, (g, A) in FROZEN_CASES.items():
        for seed in range(20):
            try:
                build_ball(*_changed_basis(g, A, seed))
            except Exception as err:  # counted, and named in the message
                failed.append((name, seed, repr(err)))
    assert not failed, f"{80 - len(failed)}/80 built; failures: {failed}"


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


CATALOG_YES = [
    (e.name, op)
    for e in CATALOG.values()
    for op, yes in e.expected.get("classify", {}).items()
    if yes
]


@functools.lru_cache(maxsize=None)
def _catalog_ball(entry, op):
    e = CATALOG[entry]
    return build_ball(
        e.algebra, e.derivations[op],
        params=BuildParams(convexity_samples=2000, cap_samples=2000),
    )


@pytest.mark.parametrize("entry,op", CATALOG_YES)
def test_lambda_pow_takes_every_quotient_derivation(entry, op):
    # dilate_ball hands lambda_pow the quotient_A of each level; its
    # spectral split must accept them as the matrix exponential did
    ball = _catalog_ball(entry, op)
    while isinstance(ball, LayeredBall):
        Aq = ball.quotient_A
        for mu in (0.3, 2.0):
            want = scipy.linalg.expm(math.log(mu) * Aq)
            assert np.linalg.norm(lambda_pow(Aq, mu) - want, 2) <= 1e-11 * np.linalg.norm(want, 2)
        ball = ball.inner


@pytest.mark.parametrize("entry,op", CATALOG_YES)
def test_build_ball_layer_split_matches_classifier(entry, op):
    # each LayeredBall level caps the top layer of the classifier's
    # grading (its diagonalizable core once the top weight is 2)
    e = CATALOG[entry]
    A = e.derivations[op]
    layers = classify_derivation(e.algebra, A).grading.layers
    ball = _catalog_ball(entry, op)
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
    # justifies the sign-bracket solve: mu -> [mu^(-A) x in B] is monotone
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


def _solver_gauge(d, X):
    """N(x) by the Illinois solve on the whole ball, bypassing the
    closed-form split."""
    m = np.abs(X).max(axis=1)
    logN, _ = _illinois_log_gauge(d.ball, d.action, X / m[:, None], np.log(m), d.width)
    return np.exp(logN)


@pytest.mark.parametrize("entry,op", CATALOG_YES)
def test_closed_form_gauge_matches_solver(entry, op):
    e = CATALOG[entry]
    d = HomogeneousDistance(AlgebraView.of(e.algebra), e.derivations[op], _catalog_ball(entry, op))
    X = np.random.default_rng(30).normal(size=(500, d.dim)) * 2.0
    closed, solved = d.gauge(X), _solver_gauge(d, X)
    assert np.max(np.abs(closed - solved) / solved) <= 1e-10


@pytest.mark.parametrize(
    "name", ["heisenberg", "engel", "free23", "filiform-7", "shear", "spiral-box"]
)
def test_gauge_routes_levels_by_conformality(name):
    # the frozen benchmark balls are conformal at every level; the shear
    # NormBall (criterion 5) and the spiral box are not and take the solver
    if name == "shear":
        d = build_distance(R2, SHEAR15)
    elif name == "spiral-box":
        d = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    else:
        g, A = FROZEN_CASES[name]
        with open(REFERENCE / f"{name}.json") as fh:
            ball = ball_from_json(json.load(fh)["ball"])
        d = HomogeneousDistance(AlgebraView.of(g), A, ball)
    X = np.random.default_rng(31).normal(size=(300, d.dim))
    d.gauge(X)
    rec = d.gauge_record
    if name in ("shear", "spiral-box"):
        assert not d._closed and len(d._solved) == 1
        assert rec.solved_rows == 300 and rec.closed_rows == 0
        assert rec.bracket_passes >= 1 and rec.solve_passes >= 1
    else:
        assert d._closed and not d._solved
        assert rec.closed_rows == 300 and rec.solved_rows == 0
        assert rec.bracket_passes == rec.solve_passes == rec.row_evals == 0


def test_gauge_record_counts_closed_and_solved_rows():
    X = np.random.default_rng(32).normal(size=(50, 3))
    X[7] = 0.0
    d = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    d.gauge(X)
    assert d.gauge_record == GaugeRecord(closed_rows=50)
    d_box = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    d_box.gauge(X[:, :2])
    rec = d_box.gauge_record
    # the zero row is answered without the solver
    assert (rec.closed_rows, rec.solved_rows) == (1, 49)
    passes = rec.bracket_passes + rec.solve_passes
    assert 2 <= passes <= 40
    assert 49 * 2 <= rec.row_evals <= 49 * passes
    assert 0 <= rec.bisections < rec.row_evals
    # one record per call, not accumulated
    d_box.gauge(X[:5, :2])
    assert d_box.gauge_record.solved_rows == 5
    with pytest.raises(AttributeError):
        d_box.gauge_record = rec
    with pytest.raises(AttributeError):
        rec.solved_rows = 0


@pytest.mark.parametrize("name", ["heisenberg", "free23", "spiral-box"])
def test_gauge_scale_covariance_at_every_scale(name):
    # N(s^A u) = s N(u) for s = 10^e; free23 stops at |e| = 100, where
    # s^3 leaves the normal float range
    if name == "spiral-box":
        d, top = HomogeneousDistance(R2V, SPIRAL, box_ball(2)), 150
    elif name == "heisenberg":
        d, top = build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0])), 150
    else:
        g, A = FROZEN_CASES["free23"]
        d, top = build_distance(g, A), 100
    U = np.random.default_rng(33).normal(size=(64, d.dim))
    base = d.gauge(U)
    for e in range(-top, top + 1, 5):
        s = 10.0**e
        got = d.gauge(U @ lambda_pow(d.A, s).T)
        assert np.max(np.abs(got - s * base) / (s * base)) <= 1e-9, e


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
    d2 = SupOverDilations(d, 2.0 * np.eye(2), 4.0, grid=16)
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


class _Scaled(MetricFunction):
    def __init__(self, base, c):
        self.base, self.c, self.dim = base, c, base.dim

    def pair(self, P, Q):
        return self.c * self.base.pair(P, Q)


def test_bilipschitz_exponent_snaps_a_power_one_ulp_high():
    up = np.nextafter(2.0, 3.0)  # 2 (1 + 1 ulp)
    assert math.floor(-math.log(up, 2.0)) == -2
    assert _exponent_floor(up, 2.0) == -1
    assert _exponent_floor(2.0, 2.0) == -1
    assert _exponent_floor(math.e * (1 + 2.0**-52), math.e) == -1
    assert _exponent_floor(np.nextafter(1.0, 2.0), math.e) == 0
    # away from a power, plain floor
    assert _exponent_floor(3.0, 2.0) == -2
    assert _exponent_floor(2.0 * (1 + 1e-6), 2.0) == -2
    d1 = build_distance(R2, np.eye(2))
    L1, L2, info = bilipschitz_constants(
        d1, _Scaled(d1, up), 2.0 * np.eye(2), 2.0, samples=500
    )
    assert info["k2"] == -1 and L2 == 4.0
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


def _frozen_ball(name):
    with open(REFERENCE / f"{name}.json") as fh:
        return ball_from_json(json.load(fh)["ball"])


@pytest.mark.parametrize(
    "name", ["heisenberg", "engel", "free23", "filiform-7", "box", "sheared-norm", "dilated"]
)
def test_ray_radii_are_the_ball_extents(name):
    # the closed form 1 / (1 + excess(u)) sits on the boundary: just
    # inside it the ray is in the ball, just outside it is not
    if name == "box":
        ball = box_ball(2)
    elif name == "sheared-norm":
        ball = NormBall(np.array([[2.0, 0.7], [0.7, 1.0]]))
    elif name == "dilated":
        ball = dilate_ball(_frozen_ball("heisenberg"), FROZEN_CASES["heisenberg"][1], 0.7)
    else:
        ball = _frozen_ball(name)
    U = np.random.default_rng(17).normal(size=(500, ball.dim))
    U = np.vstack([U / np.linalg.norm(U, axis=1, keepdims=True), np.eye(ball.dim)])
    r = _ray_radii(ball, U)[:, None]
    assert np.all(ball.contains((1 - 1e-12) * r * U))
    assert not np.any(ball.contains((1 + 1e-12) * r * U))


def test_ray_radii_keep_full_precision_on_long_balls():
    # 1 + excess(u) of a ball reaching out to 1e12 keeps only ~4 digits
    for ext in (1e4, 1e8, 1e12, 1e15):
        r = _ray_radii(NormBall(np.diag([1.0, ext**-2])), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert abs(r[0] / ext - 1.0) <= 4e-16 and r[1] == 1.0, ext


def test_ray_radii_reach_past_the_cancellation_limit():
    # past an extent of ~1e16, 1 + excess(u) rounds to 0 on the ray itself
    e2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = _ray_radii(NormBall(np.diag([1.0, 1e-34])), e2)
    assert abs(r[0] / 1e17 - 1.0) <= 1e-15 and r[1] == 1.0
    r = _ray_radii(PolyBall([[1.0, 0.0], [0.0, 1e-30]]), e2)
    assert abs(r[0] / 1e30 - 1.0) <= 1e-15 and r[1] == 1.0
    with pytest.raises(NumericFailure, match="unbounded"):
        _ray_radii(PolyBall([[1.0, 0.0]]), e2)


def test_distance_json_is_its_derivation_and_ball():
    g, A = FROZEN_CASES["heisenberg"]
    d = HomogeneousDistance(AlgebraView.of(g), A, _frozen_ball("heisenberg"))
    obj = json.loads(json.dumps(d.to_json()))
    assert set(obj) == {"A", "ball"}
    d2 = HomogeneousDistance(d.view, np.array(obj["A"]), ball_from_json(obj["ball"]))
    X = np.random.default_rng(18).normal(size=(200, 3))
    assert np.array_equal(d2.gauge(X), d.gauge(X))


def test_sample_in_ball_rejects_a_ball_unbounded_along_an_axis():
    with pytest.raises(NumericFailure, match="unbounded"):
        sample_in_ball(PolyBall([[1.0, 0.0]]), 2, 10, np.random.default_rng(0))


@pytest.fixture(scope="module")
def sampled_balls():
    small = BuildParams(convexity_samples=2000, cap_samples=2000)
    built = {name: build_ball(*FROZEN_CASES[name], params=small) for name in ("engel", "filiform-7")}
    return {
        **built,
        "filiform-7 dilated": dilate_ball(built["filiform-7"], FROZEN_CASES["filiform-7"][1], 0.6),
        "engel from json": ball_from_json(json.loads(json.dumps(ball_to_json(built["engel"])))),
    }


SAMPLED = ["engel", "filiform-7", "filiform-7 dilated", "engel from json"]


@pytest.mark.parametrize("name", SAMPLED)
def test_sample_in_ball_draws_are_inside(sampled_balls, name):
    ball = sampled_balls[name]
    X = sample_in_ball(ball, ball.dim, 20000, np.random.default_rng(21))
    assert X.shape == (20000, ball.dim)
    assert ball.contains(X).all()


@pytest.mark.parametrize("name", SAMPLED)
def test_sample_in_ball_halves_every_cap_by_volume(sampled_balls, name):
    # a uniform draw in a k-dimensional cap ball lies in the ball of radius
    # cap 2^(-1/k), half its volume, with probability 1/2 at every level
    ball = sampled_balls[name]
    m = 20000
    X = sample_in_ball(ball, ball.dim, m, np.random.default_rng(22))
    levels = 0
    while isinstance(ball, LayeredBall):
        k = ball.top_map.shape[0]
        share = np.mean(np.linalg.norm(X @ ball.top_map.T, axis=1) <= ball.cap * 2.0 ** (-1.0 / k))
        assert abs(share - 0.5) <= 5 * math.sqrt(0.25 / m), (levels, share)
        ball, X = ball.inner, X @ ball.proj.T
        levels += 1
    assert levels >= 2


def test_sample_in_norm_ball_is_uniform():
    # for x uniform in {x^T G x <= 1} (G = L L^T), |L^T x|^n is uniform on [0, 1]
    rng = np.random.default_rng(23)
    n = 4
    M = rng.normal(size=(n, n))
    gram = M @ M.T + 0.1 * np.eye(n)
    X = sample_in_ball(NormBall(gram), n, 5000, rng)
    L = np.linalg.cholesky(gram)
    q = np.linalg.norm(X @ L, axis=1) ** n
    assert scipy.stats.kstest(q, "uniform").pvalue > 0.01


def test_sample_in_ball_covers_a_tilted_ellipse():
    # a 45-degree ellipse with semi-axes 10 and 0.1 reaches out to 0.1414 on
    # both axes; the box of 1.5 times those extents holds at most 5.7% of
    # its area, so a sampler confined to that box misses the rest
    c = math.sqrt(0.5)
    R = np.array([[c, -c], [c, c]])
    ball = NormBall(R @ np.diag([1e-2, 1e2]) @ R.T)
    box = 1.5 * _ray_radii(ball, np.eye(2))
    X = sample_in_ball(ball, 2, 20000, np.random.default_rng(24))
    assert ball.contains(X).all()
    assert np.mean((np.abs(X) > box).any(axis=1)) >= 0.94


def test_sample_in_poly_ball():
    # a box keeps every parallelepiped draw: the draws are the uniform ones
    X = sample_in_ball(box_ball(3), 3, 1000, np.random.default_rng(25))
    assert np.array_equal(X, np.random.default_rng(25).uniform(-1.0, 1.0, size=(1000, 3)))
    # a hexagon: every draw inside, a quarter of them in the half-size hexagon
    angles = np.arange(3) * np.pi / 3
    hexagon = PolyBall(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    m = 20000
    X = sample_in_ball(hexagon, 2, m, np.random.default_rng(26))
    assert X.shape == (m, 2) and hexagon.contains(X).all()
    share = np.mean(hexagon.contains(2.0 * X))
    assert abs(share - 0.25) <= 5 * math.sqrt(0.25 * 0.75 / m)


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
    d = build_distance(*FROZEN_CASES["free23"])
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
