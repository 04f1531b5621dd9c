"""Acceptance suite: one test per release criterion, at the stated
sample sizes and tolerances.  Each test prints a PASS line with its
measured numbers so the run doubles as a report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction

import numpy as np
import scipy.linalg

from nilmetric.algebra import abelian, engel, heisenberg, rototranslation
from nilmetric.catalog import CATALOG
from nilmetric.decompose import decompose_automorphism, realify
from nilmetric.exact import as_exact
from nilmetric.grading import (
    classify_derivation,
    grading_from_automorphism,
    grading_from_derivation,
    hausdorff_dimension,
)
from nilmetric.group import bch_product, inverse
from nilmetric.metric import (
    AlgebraView,
    HomogeneousDistance,
    bilipschitz_constants,
    box_ball,
    box_ball_certificate,
    build_distance,
    verify_A_convexity,
    verify_axioms,
)
from nilmetric.spectral import (
    generalized_eigenspaces,
    lambda_pow,
    subspace_angles_max,
)

SPIRAL = np.array([[2.0, -1.0], [1.0, 2.0]])


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_classifier_matrix():
    cases = [
        (heisenberg(), np.diag([1.0, 1.0, 2.0]), True),
        (abelian(2), np.array([[1.0, 1.0], [0.0, 1.0]]), False),
        (abelian(2), np.array([[1.5, 1.0], [0.0, 1.5]]), True),
        (abelian(2), SPIRAL, True),
        (abelian(2), np.array([[1.0, -1.0], [1.0, 1.0]]), True),
        (abelian(2), np.diag([0.5, 2.0]), False),
        (rototranslation(), np.diag([1.0, 1.0, 0.0]), False),
        (engel(), np.diag([1.0, 1.0, 2.0, 3.0]), True),
    ]
    t0 = time.monotonic()
    answers = [classify_derivation(g, A).answer for g, A, _ in cases]
    elapsed = time.monotonic() - t0
    ok = answers == [w for _, _, w in cases] and elapsed < 1.0
    _report(
        "criterion 1 (classifier matrix)",
        ok,
        f"answers {answers}, runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_2_box_certificate_and_convexity():
    t0 = time.monotonic()
    cert = box_ball_certificate(10**5)
    rep = verify_A_convexity(
        box_ball(2), AlgebraView.of(abelian(2)), SPIRAL,
        samples=10**5, seed=0, margin=1e-9,
    )
    elapsed = time.monotonic() - t0
    ok = cert["f_bound_ok"] and rep.violations == 0 and elapsed < 30.0
    _report(
        "criterion 2 (planar sup-norm ball certificate)",
        ok,
        f"max f = {cert['max_f']:.12f} <= 1+1e-12, "
        f"{rep.violations} convexity violations in {rep.samples} samples, "
        f"runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_3_determinant_identity():
    worst = 0.0
    count = 0
    for entry in CATALOG.values():
        for name, (phi, lam) in entry.automorphisms.items():
            gr = grading_from_automorphism(entry.algebra, phi, lam)
            worst = max(worst, gr.det_residual)
            count += 1
    ok = count >= 5 and worst < 1e-10
    _report(
        "criterion 3 (determinant identity)",
        ok,
        f"{count} catalog automorphism gradings, worst relative residual "
        f"{worst:.2e} < 1e-10",
    )


def test_criterion_4_hausdorff_dimensions():
    q_h = hausdorff_dimension(
        grading_from_derivation(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    )
    q_e = hausdorff_dimension(
        grading_from_derivation(engel(), np.diag([1.0, 1.0, 2.0, 3.0]))
    )
    q_ns = [
        hausdorff_dimension(grading_from_derivation(abelian(n), np.eye(n)))
        for n in (2, 3, 5)
    ]
    ok = q_h == 4.0 and q_e == 7.0 and q_ns == [2.0, 3.0, 5.0]
    _report(
        "criterion 4 (Hausdorff dimensions)",
        ok,
        f"heisenberg Q={q_h}, engel Q={q_e}, abelian Q={q_ns} (exact)",
    )


def test_criterion_5_constructed_distance_axioms():
    t0 = time.monotonic()
    cases = [
        ("heisenberg", build_distance(heisenberg(), np.diag([1.0, 1.0, 2.0]))),
        ("r2 shear 1.5", build_distance(abelian(2), np.array([[1.5, 1.0], [0.0, 1.5]]))),
        ("r2 spiral", build_distance(abelian(2), SPIRAL)),
    ]
    details = []
    ok = True
    for name, d in cases:
        rep = verify_axioms(d, d.view, d.A, samples=10**5, seed=42)
        details.append(
            f"{name}: triangle {rep.triangle_excess:.2e}, "
            f"homogeneity {rep.homogeneity:.2e}"
        )
        ok = ok and rep.triangle_excess <= 1e-8 and rep.homogeneity <= 1e-6
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(
        "criterion 5 (constructed distance axioms)",
        ok,
        "; ".join(details) + f"; runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_6_decomposition_roundtrip():
    rng = np.random.default_rng(2024)
    r2, h = abelian(2), heisenberg()
    worst_prod = worst_imag = worst_comm = 0.0

    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    count = 0
    for _ in range(50):
        a = rng.uniform(0.6, 1.6)
        b = rng.uniform(-1.5, 1.5)
        kind = rng.integers(0, 3)
        if kind == 0:
            A0 = a * np.eye(2) + b * np.array([[0.0, -1.0], [1.0, 0.0]])
            K0 = rot(rng.uniform(0, 2 * math.pi))
        elif kind == 1:
            A0 = np.array([[a, 1.0], [0.0, a]])
            K0 = -np.eye(2) if rng.integers(0, 2) else np.eye(2)
        else:
            A0 = np.diag([a, a + rng.uniform(0.3, 1.0)])
            K0 = np.diag([1.0, -1.0]) if rng.integers(0, 2) else np.eye(2)
        phi = K0 @ lambda_pow(A0, 2.0)
        dec = decompose_automorphism(r2, phi, 2.0)
        worst_prod = max(
            worst_prod, np.linalg.norm(dec.K @ lambda_pow(dec.A, 2.0) - phi, 2)
        )
        worst_imag = max(
            worst_imag, np.abs(np.linalg.eigvals(dec.A).imag).max()
        )
        worst_comm = max(worst_comm, np.linalg.norm(dec.K @ dec.A - dec.A @ dec.K, 2))
        count += 1
    for _ in range(50):
        a = rng.uniform(0.6, 1.4)
        b = rng.uniform(0.2, 1.5)
        t = rng.uniform(0, 2 * math.pi)
        A0 = np.array([[a, -b, 0.0], [b, a, 0.0], [0.0, 0.0, 2 * a]])
        K0 = np.array(
            [
                [math.cos(t), -math.sin(t), 0.0],
                [math.sin(t), math.cos(t), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        phi = K0 @ lambda_pow(A0, 2.0)
        dec = decompose_automorphism(h, phi, 2.0)
        worst_prod = max(
            worst_prod, np.linalg.norm(dec.K @ lambda_pow(dec.A, 2.0) - phi, 2)
        )
        worst_imag = max(worst_imag, np.abs(np.linalg.eigvals(dec.A).imag).max())
        worst_comm = max(worst_comm, np.linalg.norm(dec.K @ dec.A - dec.A @ dec.K, 2))
        count += 1
    ok = (
        count == 100
        and worst_prod <= 1e-8
        and worst_imag <= 1e-8
        and worst_comm <= 1e-9
    )
    _report(
        "criterion 6 (decomposition round-trip)",
        ok,
        f"{count} assembled automorphisms: max |phi - K lam^A| = {worst_prod:.2e}, "
        f"max |Im sigma(A)| = {worst_imag:.2e}, max |[K,A]| = {worst_comm:.2e}",
    )


def test_criterion_7_exponential_eigenspace_identity():
    rng = np.random.default_rng(777)
    worst = 0.0
    done = 0
    while done < 50:
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n))
        A *= 1.2 / max(1.0, np.abs(np.linalg.eigvals(A)).max())
        eigs = np.linalg.eigvals(A)
        gaps = [
            abs(eigs[i] - eigs[j])
            for i in range(n)
            for j in range(i + 1, n)
        ]
        if gaps and min(gaps) < 0.05:
            continue  # resample near-degenerate draws, documented conditioning
        sa = generalized_eigenspaces(A)
        se = generalized_eigenspaces(scipy.linalg.expm(A))
        for c in sa.clusters:
            partner = se.cluster_of(np.exp(c.value), tol=1e-5)
            assert partner.multiplicity == c.multiplicity
            worst = max(worst, subspace_angles_max(c.basis, partner.basis))
        done += 1
    ok = worst < 1e-7
    _report(
        "criterion 7 (eigenspaces of A vs exp(A))",
        ok,
        f"50 random matrices (n <= 6): worst principal angle {worst:.2e} < 1e-7",
    )


def test_criterion_8_bch_exactness():
    rng = np.random.default_rng(31415)

    def rand_vec(n):
        return as_exact(
            [
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
                for _ in range(n)
            ]
        )

    checked = 0
    for g in (heisenberg(), engel()):
        for _ in range(100):
            x, y, z = (rand_vec(g.dim) for _ in range(3))
            lhs = bch_product(g, bch_product(g, x, y), z)
            rhs = bch_product(g, x, bch_product(g, y, z))
            assert all(a == b for a, b in zip(lhs, rhs))
            back = bch_product(g, x, inverse(x))
            assert all(v == 0 for v in back)
            checked += 1
    _report(
        "criterion 8 (exact BCH identities)",
        checked == 200,
        f"{checked} rational triples: associativity and inverse identities exact",
    )


def test_criterion_9_unit_real_part_gauge_is_norm():
    d = build_distance(abelian(2), np.array([[1.0, -1.0], [1.0, 1.0]]))
    rng = np.random.default_rng(99)
    X = rng.normal(size=(10**4, 2))
    c = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=10**4))
    n1 = d.gauge(c[:, None] * X)
    n0 = d.gauge(X)
    worst = float(np.max(np.abs(n1 - c * n0) / (c * n0)))
    ok = worst <= 1e-6
    _report(
        "criterion 9 (scalar homogeneity for spectrum 1 +- i)",
        ok,
        f"worst relative error of N(c x) = c N(x) over 10^4 samples: {worst:.2e}",
    )


def test_criterion_10_realify_pipeline():
    r2 = abelian(2)
    d_box = HomogeneousDistance(AlgebraView.of(r2), SPIRAL, box_ball(2))
    delta = lambda_pow(SPIRAL, math.e)
    res = realify(r2, d_box, delta, math.e, check_samples=2000, seed=0, mu_grid=32)
    eig_min = float(np.linalg.eigvals(res.A).real.min())
    grid_error = res.invariance_defect
    residual = res.dilation_residual
    L1, L2, info = bilipschitz_constants(
        d_box, res.distance, delta, math.e, samples=10**4, seed=5,
        dilation_tol=max(1e-6, 2 * grid_error),
    )
    ok = (
        eig_min >= 1 - 1e-8
        and residual <= grid_error + 1e-9
        and info["validated"]
    )
    _report(
        "criterion 10 (real-spectrum rebalancing pipeline)",
        ok,
        f"sigma(A') min = {eig_min:.9f} >= 1-1e-8; dilation residual "
        f"{residual:.2e} <= reported grid error {grid_error:.2e}; "
        f"biLipschitz L1 = {L1:.6g}, L2 = {L2:.6g} validated on 10^4 samples",
    )
