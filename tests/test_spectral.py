import math

import numpy as np
import pytest
import scipy.linalg

from nilmetric.catalog import CATALOG
from nilmetric.exact import as_exact
from nilmetric.spectral import (
    DilationAction,
    SpectralError,
    generalized_eigenspaces,
    lambda_pow,
    lambda_pow_exact,
    log_unipotent,
    reconstruct,
    spectral_map,
)

SPIRAL = np.array([[2.0, -1.0], [1.0, 2.0]])


def test_spiral_clusters():
    sd = generalized_eigenspaces(SPIRAL)
    vals = sorted((c.value for c in sd.clusters), key=lambda z: z.imag)
    assert np.allclose(vals, [2 - 1j, 2 + 1j])
    assert all(c.multiplicity == 1 and c.diagonalizable for c in sd.clusters)


def test_identity_single_cluster():
    sd = generalized_eigenspaces(np.eye(3))
    assert len(sd.clusters) == 1
    c = sd.clusters[0]
    assert c.value == 1 and c.multiplicity == 3 and c.diagonalizable
    assert c.basis.shape == (3, 3)


def test_jordan_block_not_diagonalizable():
    sd = generalized_eigenspaces(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert len(sd.clusters) == 1
    assert sd.clusters[0].multiplicity == 2
    assert not sd.clusters[0].diagonalizable


def test_conjugate_bases():
    sd = generalized_eigenspaces(SPIRAL)
    pos = sd.cluster_of(2 + 1j)
    neg = sd.cluster_of(2 - 1j)
    assert np.allclose(pos.basis.conj(), neg.basis)


def test_spectral_map_spiral_phase():
    # oracle: diagonalize over C by brute force, apply a/|a|, map back
    sd = generalized_eigenspaces(SPIRAL)
    Mf = spectral_map(SPIRAL, lambda a: a / abs(a), sd)
    assert np.allclose(Mf, SPIRAL / math.sqrt(5), atol=1e-12)


def test_spectral_map_identity_function():
    M = np.random.default_rng(0).normal(size=(4, 4))
    Mf = spectral_map(M, lambda a: a)
    assert np.allclose(Mf, M, atol=1e-9)


def test_spectral_map_diagonal_log():
    M = np.diag([2.0, 4.0])
    Mf = spectral_map(M, lambda a: math.log(abs(a)))
    assert np.allclose(Mf, np.diag([math.log(2), math.log(4)]), atol=1e-12)


def test_spectral_map_rejects_asymmetric_function():
    with pytest.raises(SpectralError, match="conjugation"):
        spectral_map(SPIRAL, lambda a: a.imag)


def test_spectral_map_commutes_for_multiplicative_f():
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = rng.normal(size=(4, 4))
        Mf = spectral_map(M, lambda a: a / abs(a))
        assert np.abs(Mf @ M - M @ Mf).max() < 1e-10 * max(1, np.abs(M).max() ** 2)


def test_lambda_pow_jordan_formula():
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    want = np.array([[9.0, 9.0 * math.log(3)], [0.0, 9.0]])
    assert np.allclose(lambda_pow(A, 3.0), want, atol=1e-12)


def test_lambda_pow_identity_at_one():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    assert np.allclose(lambda_pow(A, 1.0), np.eye(3))


def test_lambda_pow_nilpotent_terminates():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(lambda_pow(A, math.e), [[1, 1], [0, 1]], atol=1e-14)


ORACLE_CASES = [
    (f"{e.name}/{op}", A) for e in CATALOG.values() for op, A in e.derivations.items()
] + [("spiral", SPIRAL), ("jordan", np.eye(3) + np.eye(3, k=1))]


@pytest.mark.parametrize("name,A", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_lambda_pow_matches_expm_oracle(name, A):
    for lam in (1e-6, 0.3, 2.0, math.e, 10.0, 1e6):
        want = scipy.linalg.expm(math.log(lam) * np.asarray(A, dtype=float))
        err = np.linalg.norm(lambda_pow(A, lam) - want, 2) / np.linalg.norm(want, 2)
        assert err <= 1e-11, (lam, err)


def test_lambda_pow_overflow_raises_without_warnings():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in (1000.0 * np.eye(2), 1000.0 * (np.eye(2) + 0.001 * np.eye(2, k=1)), 500.0 * SPIRAL):
            with pytest.raises(OverflowError):
                lambda_pow(A, 1e6)


def test_powers_stack_the_action_on_the_identity():
    for A in (SPIRAL, np.array([[1.5, 1.0], [0.0, 1.5]]), CATALOG["engel"].derivations["weights-1123"]):
        act = DilationAction(A)
        mus = np.array([1e-3, 0.5, 1.0, 3.0, 40.0])
        P = act.powers(mus)
        n = act.A.shape[0]
        assert P.shape == (mus.size, n, n)
        for i, mu in enumerate(mus):
            assert np.array_equal(P[i], act.apply(mu, np.eye(n)).T)


def _dilate_by_gather(act, logm, X, logscale=None):
    """DilationAction._dilate with every spectrum on the general path: the
    real eigen-coordinates gathered, scaled and scattered back, the complex
    pairs rotated and scaled; the reference for the real-spectrum path."""
    Y = X
    if len(act.npows) > 1:
        Y = np.zeros_like(X)
        fac = np.ones_like(logm)
        for j, Nj in enumerate(act.npows):
            if j > 0:
                fac = fac * logm / j
            Y += fac[:, None] * (X @ Nj.T)
    xi = Y @ act.Prinv.T
    out = np.empty_like(xi)

    def scaled(v, weights):
        logf = np.outer(logm, weights)
        if logscale is None:
            return v * np.exp(logf)
        with np.errstate(divide="ignore"):
            return np.copysign(np.exp(np.log(np.abs(v)) + logf + logscale[:, None]), v)

    if act.real_idx.size:
        out[:, act.real_idx] = scaled(xi[:, act.real_idx], act.real_a)
    if act.pair_idx.size:
        ang = np.outer(logm, act.pair_b)
        c, s = np.cos(ang), np.sin(ang)
        u, v = xi[:, act.pair_idx], xi[:, act.pair_idx + 1]
        out[:, act.pair_idx] = scaled(c * u + s * v, act.pair_a)
        out[:, act.pair_idx + 1] = scaled(-s * u + c * v, act.pair_a)
    return out @ act.Pr.T


@pytest.mark.parametrize(
    "weights, form",
    [
        ("112", False),
        ("1123", False),
        ("11233", False),
        ("1123456", False),
        ("1123", True),
        ("SPIRAL", False),
        ("112", "diagonal"),
        ("1123456", "diagonal"),
    ],
)
def test_dilate_of_a_real_spectrum_scales_in_place(weights, form):
    # a real spectrum scales its eigen-coordinates in place, in their own
    # order; that is the general path bit for bit, with and without the
    # log-space scale, in a random basis (form False) and with a nilpotent
    # part (form True); the spiral's complex pair keeps the general path;
    # a diagonal A, in no other basis, scales the columns of X
    rng = np.random.default_rng(41)
    if weights == "SPIRAL":
        A = SPIRAL
    else:
        A = D = np.diag([float(w) for w in weights])
        if form is True:
            D[0, 1] = 0.7  # a Jordan block at weight 1
        if form != "diagonal":
            P = np.eye(len(weights)) + 0.3 * rng.normal(size=D.shape)
            A = P @ D @ np.linalg.inv(P)
    act = DilationAction(A)
    assert (act.pair_idx.size > 0) == (weights == "SPIRAL")
    assert (len(act.npows) > 1) == (form is True)
    assert act.diagonal == (form == "diagonal")
    X = rng.normal(size=(500, A.shape[0]))
    X[:7] = 0.0  # zero rows, whose logs are -inf
    X.flags.writeable = False  # the action leaves X alone
    logm = rng.normal(size=500) * 3.0
    logscale = rng.normal(size=500)
    for ls in (None, logscale):
        assert np.array_equal(act._dilate(logm, X, ls), _dilate_by_gather(act, logm, X, ls))


def test_only_a_diagonal_A_scales_columns():
    # an A with any nonzero entry off its diagonal keeps the eigenbasis path
    for A, diagonal in (
        (np.diag([1.0, 2.0, 0.5]), True),
        (SPIRAL, False),
        (np.eye(3) + np.eye(3, k=1), False),  # a Jordan block
        (np.array([[1.0, 0.0], [1e-300, 2.0]]), False),
    ):
        act = DilationAction(A)
        assert act.diagonal == diagonal
        for mu in (1e-3, 0.7, 40.0):
            want = scipy.linalg.expm(math.log(mu) * A)
            err = np.abs(act.apply(mu, np.eye(len(A))) - want.T).max()
            assert err <= 1e-11 * np.abs(want).max(), (mu, err)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -2.0])
def test_dilation_factors_must_be_finite_and_positive(bad):
    # each entry point refuses the factor with one ValueError naming it,
    # before any NaN, overflow or warning can arise
    import warnings

    from nilmetric.ball import NormBall, dilate_ball

    for A in (np.diag([1.0, 1.0, 2.0]), SPIRAL):
        act, n = DilationAction(A), A.shape[0]
        calls = (
            lambda: act.apply(bad, np.ones((3, n))),
            lambda: act.apply([1.0, bad, 2.0], np.ones((3, n))),
            lambda: act.powers([2.0, bad]),
            lambda: lambda_pow(A, bad),
            lambda: dilate_ball(NormBall(np.eye(n)), act, bad),
            lambda: dilate_ball(NormBall(np.eye(n)), A, bad),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match=f"finite and positive, got {bad}$"):
                    call()


def test_lambda_pow_exact_rational():
    A = as_exact([[0, 1], [0, 0]])
    E = lambda_pow_exact(A, 1)  # lam = e
    assert E[0, 1] == 1
    with pytest.raises(ValueError):
        lambda_pow_exact(as_exact([[1, 0], [0, 1]]), 1)


def test_log_unipotent_simple():
    D = log_unipotent(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(D, [[0, 1], [0, 0]])
    assert np.allclose(log_unipotent(np.eye(3)), np.zeros((3, 3)))


def test_log_unipotent_exact_roundtrip():
    # round-trip against the exact exponential with log(lam) = 1
    rng = np.random.default_rng(5)
    N = as_exact(np.eye(4, dtype=int))
    for i in range(4):
        for j in range(i + 1, 4):
            N[i, j] = int(rng.integers(-3, 4))
    D = log_unipotent(N)
    E = lambda_pow_exact(D, 1)
    assert all(a == b for a, b in zip(E.reshape(-1), N.reshape(-1)))


def test_log_unipotent_rejects_non_unipotent():
    with pytest.raises(ValueError, match="stabilized"):
        log_unipotent(np.diag([2.0, 1.0]))


def test_block_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = rng.normal(size=(5, 5))
        sd = generalized_eigenspaces(M)
        assert reconstruct(sd, M) < 1e-9


def test_exp_matches_eigenspaces():
    # E^A_a = E^{exp A}_{exp a} as subspaces (small version; the full 50
    # matrix sweep runs in the acceptance suite)
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        A *= 1.2 / max(1.0, np.abs(np.linalg.eigvals(A)).max())
        sa = generalized_eigenspaces(A)
        se = generalized_eigenspaces(scipy.linalg.expm(A))
        for c in sa.clusters:
            partner = se.cluster_of(np.exp(c.value), tol=1e-5)
            assert partner.multiplicity == c.multiplicity
            assert scipy.linalg.subspace_angles(c.basis, partner.basis).max() < 1e-7


def test_spectral_data_json():
    from nilmetric.spectral import spectral_data_to_json

    sd = generalized_eigenspaces(SPIRAL)
    obj = spectral_data_to_json(sd)
    assert obj["dim"] == 2
    vals = sorted((c["value"]["re"], c["value"]["im"]) for c in obj["clusters"])
    assert vals == [(2.0, -1.0), (2.0, 1.0)]
