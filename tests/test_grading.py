import math

import numpy as np
import pytest
import scipy.linalg

from nilmetric.algebra import abelian, engel, heisenberg, rototranslation
from nilmetric.grading import (
    classify_automorphism,
    classify_derivation,
    grading_from_automorphism,
    grading_from_derivation,
    hausdorff_dimension,
    split_derivation,
)


def _rot(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _layers(gr):
    return [(round(l.weight, 9), l.dim) for l in gr.layers]


CLASSIFIER_MATRIX = [
    ("heisenberg", np.diag([1.0, 1.0, 2.0]), True),
    ("r2", np.array([[1.0, 1.0], [0.0, 1.0]]), False),
    ("r2", np.array([[1.5, 1.0], [0.0, 1.5]]), True),
    ("r2", np.array([[2.0, -1.0], [1.0, 2.0]]), True),
    ("r2", np.array([[1.0, -1.0], [1.0, 1.0]]), True),
    ("r2", np.diag([0.5, 2.0]), False),
    ("rototranslation", np.diag([1.0, 1.0, 0.0]), False),
    ("engel", np.diag([1.0, 1.0, 2.0, 3.0]), True),
]

ALGEBRAS = {
    "heisenberg": heisenberg,
    "r2": lambda: abelian(2),
    "rototranslation": rototranslation,
    "engel": engel,
}


@pytest.mark.parametrize("alg,A,want", CLASSIFIER_MATRIX)
def test_classifier_matrix(alg, A, want):
    v = classify_derivation(ALGEBRAS[alg](), A)
    assert v.answer is want, v.reasons


def test_classifier_reasons():
    v = classify_derivation(abelian(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert any("not diagonalizable" in r for r in v.reasons)
    v = classify_derivation(abelian(2), np.diag([0.5, 2.0]))
    assert any("0.5 < 1" in r for r in v.reasons)
    v = classify_derivation(rototranslation(), np.diag([1.0, 1.0, 0.0]))
    assert any("not nilpotent" in r for r in v.reasons)
    assert any("< 1" in r for r in v.reasons)


def test_grading_from_derivation_spiral():
    gr = grading_from_derivation(abelian(2), np.array([[2.0, -1.0], [1.0, 2.0]]))
    assert _layers(gr) == [(2.0, 2)]


def test_grading_from_derivation_heisenberg():
    gr = grading_from_derivation(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    assert _layers(gr) == [(1.0, 2), (2.0, 1)]
    assert gr.bracket_closure_residual(heisenberg()) < 1e-8


def test_grading_from_derivation_shear():
    gr = grading_from_derivation(abelian(2), np.array([[1.5, 1.0], [0.0, 1.5]]))
    assert _layers(gr) == [(1.5, 2)]


def test_grading_from_automorphism_diag():
    gr = grading_from_automorphism(abelian(2), np.diag([2.0, 4.0]), 2.0)
    assert _layers(gr) == [(1.0, 1), (2.0, 1)]
    assert gr.det_residual < 1e-10


def test_grading_from_automorphism_rotation():
    gr = grading_from_automorphism(abelian(2), 2.0 * _rot(0.8), 2.0)
    assert _layers(gr) == [(1.0, 2)]
    assert gr.det_residual < 1e-10


def test_grading_from_automorphism_heisenberg():
    gr = grading_from_automorphism(heisenberg(), np.diag([2.0, 2.0, 4.0]), 2.0)
    assert _layers(gr) == [(1.0, 2), (2.0, 1)]
    # |det phi| = 16 = 2^(1+1+2)
    assert gr.det_residual < 1e-10


def test_grading_rejects_lambda_one():
    with pytest.raises(ValueError):
        grading_from_automorphism(abelian(2), np.diag([2.0, 4.0]), 1.0)


def test_hausdorff_dimension_values():
    assert hausdorff_dimension(
        grading_from_derivation(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    ) == 4.0
    assert hausdorff_dimension(
        grading_from_derivation(engel(), np.diag([1.0, 1.0, 2.0, 3.0]))
    ) == 7.0
    assert hausdorff_dimension(grading_from_derivation(abelian(5), np.eye(5))) == 5.0


def test_hausdorff_dimension_warns_below_one():
    gr = grading_from_derivation(abelian(2), np.diag([0.5, 2.0]))
    with pytest.warns(UserWarning, match="formal sum"):
        q = hausdorff_dimension(gr)
    assert q == 2.5


def test_classify_automorphism_examples():
    r2 = abelian(2)
    d1 = np.array([[0.5, 0.5 * math.log(0.5)], [0.0, 0.5]])
    v = classify_automorphism(r2, d1, 0.5)
    assert not v.answer
    assert any("diagonalizable" in r for r in v.reasons)

    v = classify_automorphism(r2, np.diag([0.5**1.5, 0.25]), 0.5)
    assert v.answer

    v = classify_automorphism(r2, 2.0 * _rot(math.pi / 4), 2.0)
    assert v.answer


def test_classify_automorphism_rejects_lambda_one():
    with pytest.raises(ValueError):
        classify_automorphism(abelian(2), np.diag([2.0, 4.0]), 1.0)


def test_derivation_vs_exponential_grading():
    # the grading of A agrees with the grading of (exp A, e) layer by layer
    cases = [
        (abelian(2), np.array([[2.0, -1.0], [1.0, 2.0]])),
        (abelian(2), np.array([[1.5, 1.0], [0.0, 1.5]])),
        (heisenberg(), np.diag([1.0, 1.0, 2.0])),
        (engel(), np.diag([1.0, 1.0, 2.0, 3.0])),
    ]
    for g, A in cases:
        g1 = grading_from_derivation(g, A)
        g2 = grading_from_automorphism(g, scipy.linalg.expm(A), math.e)
        assert len(g1.layers) == len(g2.layers)
        for l1, l2 in zip(g1.layers, g2.layers):
            assert abs(l1.weight - l2.weight) < 1e-7
            assert l1.dim == l2.dim
            assert scipy.linalg.subspace_angles(l1.basis, l2.basis).max() < 1e-7


def test_classifier_agreement_derivation_vs_automorphism():
    for alg, A, want in CLASSIFIER_MATRIX:
        g = ALGEBRAS[alg]()
        vd = classify_derivation(g, A)
        for lam in (0.5, 2.0):
            va = classify_automorphism(g, scipy.linalg.expm(math.log(lam) * A), lam)
            assert va.answer == vd.answer, (alg, lam, va.reasons, vd.reasons)


def test_split_derivation_spiral():
    A = np.array([[2.0, -1.0], [1.0, 2.0]])
    AR, AI, AN = split_derivation(A, g=abelian(2))
    assert np.allclose(AR, 2 * np.eye(2), atol=1e-10)
    assert np.allclose(AI, [[0, -1], [1, 0]], atol=1e-10)
    assert np.allclose(AN, 0, atol=1e-10)


def test_split_derivation_diagonal():
    A = np.diag([1.0, 3.0])
    AR, AI, AN = split_derivation(A)
    assert np.allclose(AR, A, atol=1e-12)
    assert np.allclose(AI, 0, atol=1e-12) and np.allclose(AN, 0, atol=1e-12)


def test_split_derivation_jordan():
    A = np.array([[1.5, 1.0], [0.0, 1.5]])
    AR, AI, AN = split_derivation(A)
    assert np.allclose(AR, 1.5 * np.eye(2), atol=1e-10)
    assert np.allclose(AI, 0, atol=1e-10)
    assert np.allclose(AN, [[0, 1], [0, 0]], atol=1e-10)


def test_split_parts_commute():
    h = heisenberg()
    A = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    AR, AI, AN = split_derivation(A, g=h)
    for P in (AR, AI, AN):
        for Q in (AR, AI, AN, A):
            assert np.abs(P @ Q - Q @ P).max() < 1e-9


def test_verdict_json_shape():
    v = classify_derivation(heisenberg(), np.diag([1.0, 1.0, 2.0]))
    obj = v.to_json()
    assert obj["answer"] == "yes"
    assert obj["Q"] == 4.0
    assert obj["layers"] == [{"t": 1.0, "dim": 2}, {"t": 2.0, "dim": 1}]
