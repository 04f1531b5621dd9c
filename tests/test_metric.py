import dataclasses
import functools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from nilmetric import metric
from nilmetric.algebra import LieAlgebra, abelian, check_automorphism, engel, heisenberg
from nilmetric.catalog import CATALOG
from nilmetric.decompose import compact_closure_samples
from nilmetric.exact import as_exact
from nilmetric.grading import classify_derivation
from nilmetric.group import GroupOps, bch_product
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
    _unit_ball_draws,
    averaged_distance,
    ball_from_json,
    ball_to_json,
    bilipschitz_constants,
    box_ball,
    box_ball_certificate,
    build_ball,
    build_distance,
    default_theta,
    dilate_ball,
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


def test_gram_restriction_opnorm_matches_oracle():
    rng = np.random.default_rng(13)
    n, k = 5, 2
    for _ in range(30):
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        basis = Q[:, :k]
        # span(basis) is invariant: the lower-left block of Q^T T Q is zero
        B = rng.normal(size=(n, n))
        B[k:, :k] = 0.0
        T = Q @ B @ Q.T
        R = rng.normal(size=(n, n))
        gram = R @ R.T + 0.5 * np.eye(n)
        norm = np.linalg.norm(_gram_restriction(T, basis, gram), 2)
        assert norm == pytest.approx(_gram_opnorm_oracle(T, basis, gram), rel=1e-10)


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


@pytest.mark.parametrize("seed", range(3))
def test_changed_basis_filiform7_distance_axioms(seed):
    # in a {-1, 0, 1} basis the float group law mixes large high-weight
    # coordinates into every coordinate; compiled in the lower central
    # series basis it keeps homogeneity at the 1e-6 threshold
    g, A = _changed_basis(*FROZEN_CASES["filiform-7"], seed)
    d = build_distance(g, A)
    assert verify_axioms(d, AlgebraView.of(g), A, samples=5000, seed=0).ok


@pytest.mark.parametrize("name, seed", [("engel", 0), ("engel", 1), ("engel", 2), ("filiform-7", 0)])
def test_exact_law_matches_float_law_in_changed_basis(name, seed):
    # the exact law (rational central series basis) and the float law
    # (orthonormal one) of a changed-basis algebra, on rational points; in
    # the changed basis itself filiform-7's law would have ~17 000 monomials
    g, _ = _changed_basis(*FROZEN_CASES[name], seed)
    ops = GroupOps.for_algebra(g)
    rng = np.random.default_rng(40 + seed)
    for _ in range(10):
        x, y = (as_exact([Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(g.dim)]) for _ in range(2))
        exact = bch_product(g, x, y)
        assert all(isinstance(v, Fraction) for v in exact)
        got = ops.product(x.astype(float), y.astype(float))[0]
        want = exact.astype(float)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("n", [8, 9])
def test_build_filiform_above_step6(n):
    # filiform-8 and filiform-9 (steps 7 and 8) build and pass the axioms
    g = LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)}, name=f"filiform-{n}")
    A = np.diag([1.0] + [float(i) for i in range(1, n)])
    d = build_distance(g, A)
    assert verify_axioms(d, AlgebraView.of(g), A, samples=5000, seed=0).ok


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
    # at top weight 2 only the diagonalizable core is capped: no t_max - 2 cap
    assert default_theta([1.0, 2.0], general_top=True) == 0.5


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


def test_build_ball_caps_the_core_of_a_weight2_jordan_layer():
    # heisenberg + R with A z = 2z, A w = 2w + z: the weight-2 layer is a
    # Jordan block whose core span(z) holds [g, g]; the cap is on the core
    # alone, and w stays in the quotient
    g = LieAlgebra(4, {(0, 1): {2: 1}}, name="heisenberg+R")
    A = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]])
    d = build_distance(g, A)
    assert isinstance(d.ball, LayeredBall) and isinstance(d.ball.inner, NormBall)
    assert d.ball.top_map.shape == (1, 4) and np.linalg.matrix_rank(d.ball.top_map) == 1
    rep = verify_axioms(d, d.view, d.A, samples=20000, seed=1)
    assert rep.triangle_excess <= 1e-8
    assert rep.homogeneity <= 1e-6
    assert rep.left_invariance <= 1e-8
    assert rep.symmetry <= 1e-8


def test_benchmark_builds_validate_each_cap_once(monkeypatch):
    # one convexity check per layered level with default BuildParams: the
    # sampled cap estimate passes at once, so no build doubles its cap
    calls = []
    check = metric.verify_A_convexity

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(metric, "verify_A_convexity", counted)
    counts = {}
    for name, (g, A) in FROZEN_CASES.items():
        calls.clear()
        build_ball(g, A)
        counts[name] = len(calls)
    assert counts == {"heisenberg": 1, "engel": 2, "free23": 2, "filiform-7": 5}


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
    # A induces proj A proj^+ on each level's quotient, and a build dilates
    # its quotient balls by these through lambda_pow; its spectral split
    # must accept them as the matrix exponential did
    ball = _catalog_ball(entry, op)
    Aq = np.asarray(CATALOG[entry].derivations[op], dtype=float)
    while isinstance(ball, LayeredBall):
        Aq = ball.proj @ Aq @ np.linalg.pinv(ball.proj)
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
    batch = d.gauge(X)
    assert d.gauge_record == GaugeRecord(closed_rows=50)
    # a one-row call counts one row and gives the batch row's bits
    one = d.gauge(X[3])
    assert d.gauge_record == GaugeRecord(closed_rows=1)
    assert one.shape == (1,) and one[0] == batch[3]
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
    # a one-row call, evaluated as two equal rows, counts one row
    d_box.gauge(X[0, :2])
    one = d_box.gauge_record
    assert (one.closed_rows, one.solved_rows) == (0, 1)
    assert one.row_evals == one.bracket_passes + one.solve_passes
    # 5000 rows run in several blocks and report one record, each count
    # summed over the blocks; pair reports the same record for its gauge
    X = np.random.default_rng(34).normal(size=(5000, 2))
    block = d_box.block
    assert block < 5000
    parts = []
    for lo in range(0, 5000, block):
        d_box.gauge(X[lo : lo + block])
        parts.append(d_box.gauge_record)
    whole = d_box.gauge(X)
    summed = GaugeRecord(*(sum(counts) for counts in zip(*map(dataclasses.astuple, parts))))
    assert d_box.gauge_record == summed and summed.solved_rows == 5000
    assert np.array_equal(d_box.pair(np.zeros((1, 2)), X), whole)
    assert d_box.gauge_record == summed
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


@pytest.fixture(scope="module")
def benchmark_balls():
    """The four benchmark balls, built with default BuildParams."""
    return {
        name: (AlgebraView.of(g), A, build_ball(g, A)) for name, (g, A) in FROZEN_CASES.items()
    }


def _whole_batch_convexity(ball, view, A, samples, seed, margin=1e-9):
    """verify_A_convexity's draws, in its order (x, y, then lam for each
    block of the law's block size), tested over the whole sample at once
    by one product and one membership test: the reference for the blocked
    check."""
    rng = np.random.default_rng(seed)
    action = DilationAction(A)
    block, parts = view.ops().block, []
    for lo in range(0, samples, block):
        m = min(block, samples - lo)
        X = sample_in_ball(ball, view.dim, m, rng)
        Y = sample_in_ball(ball, view.dim, m, rng)
        parts.append((X, Y, np.clip(rng.uniform(0.0, 1.0, size=m), 1e-12, 1 - 1e-12)))
    X, Y, lam = (np.concatenate(p) for p in zip(*parts))
    Z = view.ops().product(action.apply(lam, X), action.apply(1.0 - lam, Y))
    bad = ~ball.contains(Z, slack=margin)
    worst = float(ball.excess(Z[bad]).max()) if bad.any() else 0.0
    return int(bad.sum()), worst, np.hstack([X[bad][:5], Y[bad][:5], lam[bad][:5, None]])


CONVEXITY_CASES = [
    *FROZEN_CASES,
    *(f"{name} at half cap" for name in FROZEN_CASES),
    "heisenberg at cap / 1e6",
    "box, spiral",
    "box, shear",
]


@pytest.mark.parametrize("case", CONVEXITY_CASES)
def test_blocked_convexity_matches_the_whole_batch(benchmark_balls, case):
    # the same draws, checked block by block: the same violations and
    # witnesses for sample counts around the law's block size
    if case.startswith("box"):
        view, ball = R2V, box_ball(2)
        A = SPIRAL if case == "box, spiral" else np.array([[1.0, 1.0], [0.0, 1.0]])
    else:
        name = case.split(" at ")[0]
        view, A, ball = benchmark_balls[name]
        if case.endswith("half cap"):
            ball = ball.with_cap(ball.cap / 2)
        elif case.endswith("1e6"):
            ball = ball.with_cap(ball.cap / 1e6)
    block = view.ops().block
    total = 0
    for samples in (1, block - 1, block, block + 1, 20000):
        rep = verify_A_convexity(ball, view, A, samples=samples, seed=samples)
        violations, worst, witnesses = _whole_batch_convexity(ball, view, A, samples, samples)
        assert rep.samples == samples and rep.violations == violations, samples
        assert np.array_equal(rep.witnesses, witnesses), samples
        assert abs(rep.worst_excess - worst) <= 1e-12 * abs(worst), samples
        total += violations
    if case in FROZEN_CASES or case == "box, spiral":
        assert total == 0
    elif not case.endswith("half cap"):
        assert total > 0


@pytest.mark.parametrize("name", ["heisenberg", "filiform-7"])
def test_convexity_validation_holds_no_full_size_temporaries(benchmark_balls, name):
    # the draws x, y and lam, their dilations, products and membership
    # tests are held a block at a time: the law's buffer of at most 1 MiB
    # and one block's arrays, whatever the sample size
    view, A, ball = benchmark_balls[name]
    action = DilationAction(A)
    verify_A_convexity(ball, view, action, samples=10, seed=1)  # compiles the law
    samples = 20000
    tracemalloc.start()
    try:
        rep = verify_A_convexity(ball, view, action, samples=samples, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak <= 2 * 2**20, peak


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
    assert d2 is d
    rng = np.random.default_rng(9)
    X, Y = rng.normal(size=(200, 2)), rng.normal(size=(200, 2))
    assert np.allclose(d2.pair(X, Y), d.pair(X, Y), rtol=1e-12)


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
def test_averaged_distance_polytope_rows_at_every_scale(scale):
    # the row filter and the dedupe are relative to the largest row, so a
    # box of any size keeps its rows and its values
    d = HomogeneousDistance(R2V, 2.0 * np.eye(2), PolyBall(scale * np.eye(2)))
    rng = np.random.default_rng(19)
    X, Y = rng.normal(size=(300, 2)), rng.normal(size=(300, 2))
    quarter = averaged_distance(d, [_rot(math.pi / 2)])
    assert quarter.ball.rows.shape == (2, 2)
    assert np.allclose(quarter.pair(X, Y), d.pair(X, Y), rtol=1e-12)
    octagon = averaged_distance(d, [_rot(math.pi / 4)])
    assert isinstance(octagon, HomogeneousDistance) and octagon.ball.rows.shape == (4, 2)
    ref = MaxOverMaps(d, [_rot(math.pi / 4)])
    assert np.allclose(octagon.pair(X, Y), ref.pair(X, Y), rtol=1e-12)
    assert sample_in_ball(octagon.ball, 2, 10, rng).shape == (10, 2)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 0.0]],
        [[1.0, 1.0], [-2.0, -2.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        # 40 multiples of one thin direction: rank 1 however the columns scale
        np.outer(np.random.default_rng(46).normal(size=40), [1.0, 1e-20]),
    ],
)
def test_homogeneous_distance_refuses_an_unbounded_polytope(rows):
    with pytest.raises(ValueError, match="unbounded"):
        HomogeneousDistance(R2V, 2.0 * np.eye(2), PolyBall(rows))


def test_homogeneous_distance_takes_a_thin_polytope():
    d = HomogeneousDistance(R2V, 2.0 * np.eye(2), PolyBall([[1.0, 0.0], [0.0, 1e-30]]))
    assert d.gauge(np.array([[0.0, 4e30]]))[0] == pytest.approx(2.0, rel=1e-12)
    # rows all within 1e-20 of the first axis, but not on one line: the rank
    # is judged with the columns scaled, and the ball reaches ~4.5e19 along e2
    rows = np.random.default_rng(47).normal(size=(40, 2)) * [1.0, 1e-20]
    d = HomogeneousDistance(AlgebraView.of(abelian(2)), 2.0 * np.eye(2), PolyBall(rows))
    X = np.random.default_rng(48).normal(size=(500, 2)) * [1.0, 1e20]
    want = np.sqrt(np.abs(X @ rows.T).max(axis=1))
    assert np.max(np.abs(d.point(X) / want - 1.0)) <= 1e-12


def test_pair_chunked_counts_polytope_rows():
    # 1536 rows through a 3-D ball's gauge cost as much memory per input
    # row as 512 stacked rows of width 3, so a block of pair has
    # block // 512 rows; pair_chunked is pair
    rows = np.random.default_rng(27).normal(size=(1536, 3))
    d = HomogeneousDistance(AlgebraView.of(abelian(3)), 2.0 * np.eye(3), PolyBall(rows))
    assert d.stack_factor == 512
    k = d.block // 512
    assert d.block == d.ops.block and k >= 3
    sizes = []
    d._pair_block = lambda P, Q: (sizes.append(P.shape[0]), np.zeros(P.shape[0]))[1]
    assert d.pair_chunked(np.zeros((2 * k + 2, 3)), np.zeros((2 * k + 2, 3))).shape == (2 * k + 2,)
    assert sizes == [k, k, 2]
    # a last block of one row joins the block before it
    sizes.clear()
    assert d.pair(np.zeros((2 * k + 1, 3)), np.zeros((2 * k + 1, 3))).shape == (2 * k + 1,)
    assert sizes == [k, k + 1]
    # so it does at two rows a block: 3000 rows cost 1000 stacked rows
    rows = np.random.default_rng(28).normal(size=(3000, 3))
    d = HomogeneousDistance(AlgebraView.of(abelian(3)), 2.0 * np.eye(3), PolyBall(rows))
    assert d.block // d.stack_factor == 2
    sizes = []
    d._pair_block = lambda P, Q: (sizes.append(P.shape[0]), np.zeros(P.shape[0]))[1]
    assert d.pair(np.zeros((5, 3)), np.zeros((5, 3))).shape == (5,)
    assert sizes == [2, 3]
    # a plane polytope answers from three hull vertices per row, however
    # many rows it has, so a sup over 32 dilations of the 64-map torus
    # average of the box stacks 32 rows
    angles = np.linspace(0.0, math.pi, 1024, endpoint=False)
    d = HomogeneousDistance(R2V, SPIRAL, PolyBall(np.stack([np.cos(angles), np.sin(angles)], axis=1)))
    assert d.stack_factor == 1
    box = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    mats, _ = compact_closure_samples(_rot(1.0))
    sup = SupOverDilations(averaged_distance(box, mats), 2.0 * np.eye(2), math.e, 32)
    assert sup.stack_factor == 32 and sup.block == box.block


def _reference_distance(name):
    g, A = FROZEN_CASES[name]
    with open(REFERENCE / f"{name}.json") as fh:
        return HomogeneousDistance(AlgebraView.of(g), A, ball_from_json(json.load(fh)["ball"]))


def _heisenberg_turn(t):
    """A rotation of heisenberg's first layer, an automorphism fixing z."""
    M = np.eye(3)
    M[:2, :2] = _rot(t)
    return M


def _whole_batch_pair(d, P, Q):
    """d.pair as one block: the maps or dilations stacked on the whole
    batch, then one product and one gauge block over all of its rows: the
    reference for the blocked `pair`."""
    if isinstance(d, HomogeneousDistance):
        return d._gauge_block(d.ops.product(-P, Q))
    m, n = P.shape
    if isinstance(d, MaxOverMaps):
        mapped = np.stack([np.vstack([P, Q]) @ M.T for M in d.mats])
        vals = _whole_batch_pair(d.base, mapped[:, :m].reshape(-1, n), mapped[:, m:].reshape(-1, n))
        return vals.reshape(len(d.mats), m).max(axis=0)
    g, mus = len(d.mus), np.repeat(d.mus, m)
    stackP = d.action.apply(mus, np.tile(P, (g, 1)))
    stackQ = d.action.apply(mus, np.tile(Q, (g, 1)))
    return (_whole_batch_pair(d.base, stackP, stackQ) / mus).reshape(g, m).max(axis=0)


@pytest.mark.parametrize("case", [*FROZEN_CASES, "max over maps", "sup over dilations", "3-D polytope"])
def test_pair_is_bit_identical_to_the_whole_batch(case):
    # 20 001 rows: several blocks and a last one that is not full
    if case in FROZEN_CASES:
        d = _reference_distance(case)
    elif case == "max over maps":
        d = MaxOverMaps(_reference_distance("heisenberg"), [_heisenberg_turn(t) for t in (0.5, 1.0, 2.0)])
    elif case == "sup over dilations":
        heis = _reference_distance("heisenberg")
        d = SupOverDilations(heis, heis.A, 2.0, 8)
    else:
        rows = np.random.default_rng(37).normal(size=(60, 3))
        d = HomogeneousDistance(AlgebraView.of(abelian(3)), 2.0 * np.eye(3), PolyBall(rows))
    rng = np.random.default_rng(38)
    P, Q = rng.normal(size=(20001, d.dim)), rng.normal(size=(20001, d.dim))
    rows = max(1, d.block // d.stack_factor)
    assert 1 < rows < 20001 and 20001 % rows
    assert np.array_equal(d.pair(P, Q), _whole_batch_pair(d, P, Q))


def test_pair_holds_one_block_at_a_time():
    # 200 000 filiform-7 rows: the output and one block's temporaries
    d = _reference_distance("filiform-7")
    rng = np.random.default_rng(39)
    P, Q = rng.normal(size=(200_000, 7)), rng.normal(size=(200_000, 7))
    d.pair(P[:10], Q[:10])  # compiles the law
    tracemalloc.start()
    try:
        out = d.pair(P, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (200_000,)
    assert peak <= out.nbytes + 2**21, peak


def _octagon():
    angles = np.linspace(0.0, math.pi, 4, endpoint=False)
    return PolyBall(np.stack([np.cos(angles), np.sin(angles)], axis=1))


@pytest.mark.parametrize("case", [*FROZEN_CASES, "over a polygon", "plane polygon", "3-D polytope"])
def test_ball_tests_match_the_whole_batch(case):
    # tests over blocks give the bits of one test over the whole batch
    if case in FROZEN_CASES:
        ball = _reference_distance(case).ball
    elif case == "over a polygon":
        ball = LayeredBall([[0.0, 0.0, 1.0]], 0.5, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], _octagon())
    elif case == "plane polygon":
        ball = _octagon()
    else:
        ball = PolyBall(np.random.default_rng(40).normal(size=(1536, 3)))
    rng = np.random.default_rng(41)
    for m in (1, 4097, 20001):
        X = rng.normal(size=(m, ball.dim))
        if isinstance(ball, PolyBall):
            assert np.array_equal(ball.support(X), ball._support(X)), m
            continue
        assert np.array_equal(ball.excess(X), ball._excess(X)), m
        assert np.array_equal(ball.contains(X, slack=1e-9), ball._contains(X, 1e-9)), m


@pytest.mark.parametrize("kind", ["layered", "spiral box", "max over maps", "sup over dilations"])
def test_pair_broadcasts_a_one_row_operand(kind):
    box = HomogeneousDistance(R2V, SPIRAL, box_ball(2))
    d = {
        "layered": _reference_distance("heisenberg"),
        "spiral box": box,
        "max over maps": MaxOverMaps(box, [_rot(math.pi / 2)]),
        "sup over dilations": SupOverDilations(box, SPIRAL, math.e, 4),
    }[kind]
    rng = np.random.default_rng(42)
    p, Q = rng.normal(size=(1, d.dim)), rng.normal(size=(5, d.dim))
    np.testing.assert_allclose(d.pair(p, Q), [d(p[0], q) for q in Q], rtol=1e-12)
    np.testing.assert_allclose(d.pair(Q, p[0]), [d(q, p[0]) for q in Q], rtol=1e-12)
    with pytest.raises(ValueError):
        d.pair(Q[:3], Q)
    # only rows broadcast: a P of one column, or one entry, is refused
    for bad in (Q[:, :1], Q[:1, :1], np.ones((5, d.dim + 1)), Q[None]):
        with pytest.raises(ValueError, match="rows of"):
            d.pair(bad, Q)
        with pytest.raises(ValueError, match="rows of"):
            d.pair(Q, bad)
    # past one block, the one row is broadcast into every block
    Q = rng.normal(size=(2 * max(1, d.block // d.stack_factor) + 3, d.dim))
    P = np.repeat(p, len(Q), axis=0)
    assert np.array_equal(d.pair(p, Q), d.pair(P, Q))
    assert np.array_equal(d.pair(Q, p), d.pair(Q, P))


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


def test_compact_closure_torus_on_a_non_abelian_algebra():
    # a rotation by 1 rad of heisenberg's (x, y), the identity on z, is an
    # automorphism; so is every map of its torus grid, and none is dropped
    K = np.eye(3)
    K[:2, :2] = _rot(1.0)
    g = heisenberg()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mats, info = compact_closure_samples(K, view=AlgebraView.of(g))
    assert info["mode"] == "torus" and info["count"] == 64 and len(mats) == 64
    assert all(check_automorphism(g, M, tol=1e-12) for M in mats)


@pytest.mark.parametrize(
    "K",
    [
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.block([[_rot(1.0), np.eye(2)], [np.zeros((2, 2)), _rot(1.0)]]),
    ],
    ids=["shear", "rotation-jordan-block"],
)
def test_compact_closure_refuses_a_matrix_with_unbounded_powers(K):
    # unit-modulus eigenvalues, but a Jordan block: K^k grows like k
    with pytest.raises(ValueError, match="not diagonalizable"):
        compact_closure_samples(K)


def test_one_row_product_is_the_batch_row_in_a_changed_basis():
    # the law maps rows into its central series basis; a one-row batch must
    # round as that row does inside a batch
    for seed in range(10):
        g, _ = _changed_basis(engel(), np.eye(4), seed)
        ops = GroupOps(g.tensor, 3)
        rng = np.random.default_rng(seed)
        X, Y = rng.normal(size=(60, 4)), rng.normal(size=(60, 4))
        batch = ops.product(X, Y)
        for i in range(60):
            assert np.array_equal(ops.product(X[i], Y[i])[0], batch[i]), (seed, i)


def test_single_pair_is_the_batch_row_in_a_changed_basis():
    for seed in range(3):
        g, A = _changed_basis(engel(), np.diag([1.0, 1.0, 2.0, 3.0]), seed)
        d = build_distance(g, A)
        rng = np.random.default_rng(seed)
        P, Q = rng.normal(size=(100, 4)), rng.normal(size=(100, 4))
        batch = d.pair(P, Q)
        assert [d(P[i], Q[i]) for i in range(100)] == batch.tolist(), seed
        # and so is a one-row pair of a composite distance
        for f in (MaxOverMaps(d, [lambda_pow(A, 2.0)]), SupOverDilations(d, A, 2.0, grid=8)):
            batch = f.pair(P, Q)
            assert [f(P[i], Q[i]) for i in range(100)] == batch.tolist(), (seed, type(f).__name__)
        # and a one-row gauge is the batch row too
        X = rng.normal(size=(300, 4))
        batch = d.gauge(X)
        assert [d.gauge(X[i])[0] for i in range(300)] == batch.tolist(), seed
        assert [d.point(X[i])[0] for i in range(300)] == batch.tolist(), seed


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


def test_dilate_ball_by_a_dilation_action():
    # a DilationAction of A dilates a ball as A itself does
    ball = _frozen_ball("filiform-7")
    A = FROZEN_CASES["filiform-7"][1]
    for mu in (0.4, 1.7):
        by_action = ball_to_json(dilate_ball(ball, DilationAction(A), mu))
        by_matrix = ball_to_json(dilate_ball(ball, A, mu))
        assert np.allclose(by_action["top_map"], by_matrix["top_map"], rtol=1e-13, atol=1e-13)
        assert np.allclose(by_action["proj"], by_matrix["proj"], rtol=1e-13, atol=1e-13)


def _frozen_ball(name):
    with open(REFERENCE / f"{name}.json") as fh:
        return ball_from_json(json.load(fh)["ball"])


@pytest.mark.parametrize("name", list(FROZEN_CASES))
def test_reference_ball_in_the_old_format_loads(name):
    # the frozen layered balls still carry each level's "quotient_A"; it is
    # ignored on load, the ball keeps its distances and is written without it
    with open(REFERENCE / f"{name}.json") as fh:
        ref = json.load(fh)
    assert "quotient_A" in ref["ball"]
    ball = ball_from_json(ref["ball"])
    d = HomogeneousDistance(AlgebraView.of(FROZEN_CASES[name][0]), np.array(ref["A"]), ball)
    want = np.array(ref["d"])
    got = d.pair(np.array(ref["P"]), np.array(ref["Q"]))
    assert np.max(np.abs(got - want) / want) <= 1e-10
    assert "quotient_A" not in json.dumps(ball_to_json(ball))


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
    built = {
        name: build_ball(*FROZEN_CASES[name], params=small)
        for name in ("heisenberg", "engel", "filiform-7")
    }
    return {
        **built,
        "filiform-7 dilated": dilate_ball(built["filiform-7"], FROZEN_CASES["filiform-7"][1], 0.6),
        "heisenberg dilated by diag(1, 2, 3)": dilate_ball(built["heisenberg"], np.diag([1.0, 2.0, 3.0]), 2.0),
        "engel from json": ball_from_json(json.loads(json.dumps(ball_to_json(built["engel"])))),
    }


# sampled ball -> its number of LayeredBall levels
SAMPLED = {
    "engel": 2,
    "filiform-7": 5,
    "filiform-7 dilated": 5,
    "heisenberg dilated by diag(1, 2, 3)": 1,
    "engel from json": 2,
}


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
    assert levels == SAMPLED[name]


@pytest.mark.parametrize("mu", [0.5, 2.0])
def test_dilate_ball_by_another_derivation(sampled_balls, mu):
    # a ball holds no derivation: the diag(1, 1, 2) heisenberg ball dilated
    # by A' = diag(1, 2, 3) is mu^A' B on every level, both ways round
    ball = sampled_balls["heisenberg"]
    A2 = np.diag([1.0, 2.0, 3.0])
    image = dilate_ball(ball, A2, mu)
    rng = np.random.default_rng(27)
    X = sample_in_ball(ball, 3, 20000, rng)
    assert image.contains(X @ lambda_pow(A2, mu).T, slack=1e-12).all()
    Y = sample_in_ball(image, 3, 20000, rng)
    assert ball.contains(Y @ lambda_pow(A2, 1.0 / mu).T, slack=1e-12).all()


def _recursive_sample(ball, count, rng):
    """sample_in_ball as a recursion over the levels, one hstack, inverse
    and product per level: the reference for the flat sampler."""
    if isinstance(ball, LayeredBall):
        a = ball.cap * _unit_ball_draws(ball.top_map.shape[0], count, rng)
        b = _recursive_sample(ball.inner, count, rng)
        return np.hstack([a, b]) @ np.linalg.inv(np.vstack([ball.top_map, ball.proj])).T
    if isinstance(ball, NormBall):
        L = np.linalg.cholesky((ball.gram + ball.gram.T) / 2.0)
        return _unit_ball_draws(ball.dim, count, rng) @ np.linalg.inv(L)
    return sample_in_ball(ball, ball.dim, count, rng)


@pytest.mark.parametrize(
    "name", [*SAMPLED, "heisenberg", "engel with a doubled cap", *(f"reference {k}" for k in FROZEN_CASES)]
)
def test_flat_sampler_matches_the_recursion(sampled_balls, name):
    # one product with the composed map in place of one per level: the same
    # draws in the same order, so the generator ends in the same state and
    # the points agree to rounding
    if name.startswith("reference "):
        ball = _frozen_ball(name.removeprefix("reference "))
    elif name == "engel with a doubled cap":
        ball = sampled_balls["engel"].with_cap(2.0 * sampled_balls["engel"].cap)
    else:
        ball = sampled_balls[name]
    rng, ref_rng = np.random.default_rng(44), np.random.default_rng(44)
    for _ in range(2):  # the second draw reuses the form the first one made
        X = sample_in_ball(ball, ball.dim, 5000, rng)
        Y = _recursive_sample(ball, 5000, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        ulp = np.finfo(float).eps * np.abs(Y).max(axis=1, keepdims=True)
        assert np.all(np.abs(X - Y) <= 4 * ulp)


def _recursive_excess(ball, X):
    """LayeredBall.excess as a recursion over the levels, one product per
    level: the reference for the flat membership form."""
    if isinstance(ball, LayeredBall):
        top = np.linalg.norm(X @ ball.top_map.T, axis=1) / ball.cap - 1.0
        return np.maximum(top, _recursive_excess(ball.inner, X @ ball.proj.T))
    return ball.excess(X)


def _recursive_contains(ball, X, slack):
    if isinstance(ball, LayeredBall):
        top_ok = np.linalg.norm(X @ ball.top_map.T, axis=1) <= ball.cap * (1.0 + slack)
        return top_ok & _recursive_contains(ball.inner, X @ ball.proj.T, slack)
    return ball.contains(X, slack)


def _membership_ball(name, sampled_balls, benchmark_balls):
    if name.startswith("built "):
        return benchmark_balls[name.removeprefix("built ")][2]
    if name == "engel with a halved cap":
        return sampled_balls["engel"].with_cap(sampled_balls["engel"].cap / 2)
    rng = np.random.default_rng(46)
    if name == "layered over a polygon":
        hexagon = np.array([[1.0, 0.0], [0.5, 0.9], [-0.4, 1.1]])
        inner = LayeredBall([[0.2, 1.0]], 0.8, [[1.0, 0.3]], PolyBall([[1.3]]))
        two = LayeredBall(rng.normal(size=(1, 3)), 0.6, rng.normal(size=(2, 3)), PolyBall(hexagon))
        return LayeredBall(rng.normal(size=(1, 4)), 1.7, np.c_[np.eye(3), rng.normal(size=3)], two), inner
    if name == "layered with a tall [top_map; proj]":
        inner = NormBall(np.array([[2.0, 0.3], [0.3, 0.5]]))
        return LayeredBall(rng.normal(size=(2, 3)), 0.9, rng.normal(size=(2, 3)), inner)
    return sampled_balls[name]


MEMBERSHIP_BALLS = [
    *(f"built {name}" for name in FROZEN_CASES),
    *SAMPLED,
    "engel with a halved cap",
    "layered over a polygon",
    "layered with a tall [top_map; proj]",
]


@pytest.mark.parametrize("name", MEMBERSHIP_BALLS)
def test_flat_membership_matches_the_recursion(sampled_balls, benchmark_balls, name):
    # one product with the composed maps in place of one per level: the
    # same excess to rounding, and the same membership off the boundary
    balls = _membership_ball(name, sampled_balls, benchmark_balls)
    for ball in balls if isinstance(balls, tuple) else (balls,):
        rng = np.random.default_rng(47)
        U = rng.normal(size=(3000, ball.dim))
        edge = U / (1.0 + _recursive_excess(ball, U))[:, None]
        scales = np.array([0.0, 0.3, 0.9, 1 - 1e-9, 1 - 1e-13, 1.0, 1 + 1e-13, 1 + 1e-9, 1.1, 4.0])
        X = np.vstack([U, *(s * edge for s in scales)])
        for _ in range(2):  # the second test reuses the form the first one made
            want = _recursive_excess(ball, X)
            assert np.all(np.abs(ball.excess(X) - want) <= 1e-13)
            for slack in (0.0, 1e-9):
                far = np.abs(want - slack) > 1e-12
                got = ball.contains(X, slack)
                assert np.array_equal(got[far], _recursive_contains(ball, X, slack)[far])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_unit_ball_draws_are_uniform(k):
    # for x uniform in the unit k-ball |x|^k is uniform on [0, 1], so
    # |x|^2 = U^(2/k) has mean k/(k+2) and second moment k/(k+4), and half
    # the draws lie inside radius 2^(-1/k)
    m = 40000
    X = _unit_ball_draws(k, m, np.random.default_rng(50 + k))
    assert X.shape == (m, k)
    sq = np.einsum("ij,ij->i", X, X)
    assert sq.max() <= (1.0 if k <= 2 else 1.0 + 4 * np.finfo(float).eps)
    var = k / (k + 4) - (k / (k + 2)) ** 2
    assert abs(sq.mean() - k / (k + 2)) <= 5 * math.sqrt(var / m)
    inner = np.mean(sq <= 2.0 ** (-2.0 / k))
    assert abs(inner - 0.5) <= 5 * math.sqrt(0.25 / m)
    if k == 2:
        quadrants = np.bincount(2 * (X[:, 0] > 0) + (X[:, 1] > 0), minlength=4) / m
        assert np.all(np.abs(quadrants - 0.25) <= 5 * math.sqrt(0.1875 / m))


class _CornerRng:
    """A generator whose first `corners` calls of `uniform` return 1
    everywhere: square draws at the corner (1, 1), outside the disc."""

    def __init__(self, corners):
        self.corners, self.rng = corners, np.random.default_rng(52)

    def uniform(self, low, high, size):
        if self.corners > 0:
            self.corners -= 1
            return np.full(size, high)
        return self.rng.uniform(low, high, size)


def test_unit_disc_draws_run_more_rounds_and_fail_past_their_budget():
    X = _unit_ball_draws(2, 1000, _CornerRng(3))
    assert X.shape == (1000, 2) and np.all(np.einsum("ij,ij->i", X, X) <= 1.0)
    with pytest.raises(NumericFailure, match=r"disc kept 0 of \d+ draws in 64 rounds"):
        _unit_ball_draws(2, 10, _CornerRng(10**6))


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


def _poly_row_sets(rng):
    """Named plane row sets, each spanning R^2."""
    g = rng.normal(size=(40, 2))
    angles = np.linspace(0.0, math.pi, 1026, endpoint=False)
    sets = {
        "box": np.eye(2),
        "circle": np.stack([np.cos(angles), np.sin(angles)], axis=1),
        "duplicate": np.vstack([g, g[:20], g[:20] * (1.0 + 1e-15 * rng.normal(size=(20, 1)))]),
        "antipodal-zero": np.vstack([g, -g[::2], np.zeros((3, 2))]),
    }
    for k in range(8):
        sets[f"random-{k}"] = rng.normal(size=(int(rng.integers(2, 60)), 2))
    # rows of unit length within 1e-30 of one axis, and one row on the
    # other: the rank of the unit rows is 2
    for e in (4, 12, 20, 30):
        sets[f"thin-x-{e}"] = np.vstack([g * np.array([10.0**-e, 1.0]), [10.0**-e, 0.0]])
        sets[f"thin-y-{e}"] = np.vstack([g * np.array([1.0, 10.0**-e]), [0.0, 10.0**-e]])
    for e in (-100, 100):
        sets[f"scale-{e}"] = g * 10.0**e
    return sets


def test_poly_ball_polygon_matches_the_row_maximum():
    # the plane path reads max_i |r_i . x| off three hull vertices; on the
    # boundary it agrees with the maximum over all rows to rounding
    rng = np.random.default_rng(28)
    for name, rows in _poly_row_sets(rng).items():
        ball = PolyBall(rows)
        assert ball._polygon is None, name  # no hull work before the first use
        X = np.vstack([rng.normal(size=(2000, 2)), np.eye(2), -np.eye(2), [[1.0, 1.0], [1.0, -1.0]]])
        for Z in (X, X / np.abs(X @ rows.T).max(axis=1)[:, None]):
            want = np.abs(Z @ rows.T).max(axis=1) - 1.0
            scale = np.maximum(1.0, want + 1.0)
            assert np.max(np.abs(ball.excess(Z) - want) / scale) <= 4.5e-16, name
        assert ball._polygon, name
        assert np.array_equal(ball.contains(X), ball.excess(X) <= 0.0)
        # the closed-form gauge of a scalar derivation reads the same polygon,
        # up to the rounding of its log-space evaluation
        d = HomogeneousDistance(R2V, 2.0 * np.eye(2), PolyBall(rows))
        want = np.sqrt(np.abs(X @ rows.T).max(axis=1))
        err = np.abs(d.point(X) / want - 1.0) / (1.0 + np.abs(np.log(want)))
        assert err.max() <= 4 * np.finfo(float).eps, name


def test_poly_ball_row_maximum_off_the_plane():
    # 3-D balls and rank-1 plane row sets keep the maximum over all rows
    rng = np.random.default_rng(29)
    rows = rng.normal(size=(30, 3))
    X = rng.normal(size=(500, 3))
    assert np.array_equal(PolyBall(rows).excess(X), np.abs(X @ rows.T).max(axis=1) - 1.0)
    # each set is unbounded along one of these rays
    U = np.array([[0.0, 1.0], [1.0, 0.0], [math.sqrt(0.5), -math.sqrt(0.5)]])
    for rows in ([[1.0, 0.0]], [[1.0, 1.0], [-2.0, -2.0]], [[0.0, 1.0], [0.0, -3.0], [0.0, 0.0]]):
        ball = PolyBall(rows)
        X = rng.normal(size=(50, 2))
        assert np.array_equal(ball.excess(X), np.abs(X @ ball.rows.T).max(axis=1) - 1.0)
        assert ball._polygon is False
        with pytest.raises(NumericFailure, match="unbounded"):
            _ray_radii(ball, U)


def test_sample_in_ball_of_a_thin_polytope():
    # the rows are independent relative to their own norms
    ball = PolyBall([[1.0, 0.0], [0.0, 1e-30]])
    X = sample_in_ball(ball, 2, 1000, np.random.default_rng(30))
    assert X.shape == (1000, 2) and ball.contains(X).all()
    assert np.abs(X[:, 1]).max() > 0.5e30


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
