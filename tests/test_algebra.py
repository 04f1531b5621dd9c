import json
import math
from fractions import Fraction

import numpy as np
import pytest

from nilmetric.algebra import (
    JacobiError,
    LieAlgebra,
    abelian,
    algebra_from_json,
    algebra_to_json,
    check_automorphism,
    check_derivation,
    engel,
    heisenberg,
    induced_on_quotient,
    quotient,
    rototranslation,
)
from nilmetric.catalog import CATALOG
from nilmetric.exact import as_exact, exact_eye, exact_inv, exact_rref, format_frac
from nilmetric.grading import grading_from_derivation
from nilmetric.spectral import generalized_eigenspaces


def test_bracket_heisenberg():
    h = heisenberg()
    e1, e2 = h.basis_vector(0), h.basis_vector(1)
    assert list(h.bracket(e1, e2)) == [0, 0, 1]
    x = as_exact([3, "1/2", -2])
    assert all(v == 0 for v in h.bracket(x, x))


def test_bracket_engel():
    e = engel()
    assert list(e.bracket(e.basis_vector(0), e.basis_vector(2))) == [0, 0, 0, 1]


def test_jacobi_rejected():
    # [e1,e2]=e3, [e1,e3]=e1 fails Jacobi
    with pytest.raises(JacobiError):
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})


def test_rototranslation_jacobi_ok():
    r = rototranslation()
    assert r.nilpotency_step() is None
    assert not r.is_nilpotent


def test_nilpotency_steps():
    assert abelian(4).nilpotency_step() == 1
    assert heisenberg().nilpotency_step() == 2
    assert engel().nilpotency_step() == 3


def test_check_derivation_heisenberg():
    h = heisenberg()
    # A[e1,e2] = 2 e3 = [Ae1,e2] + [e1,Ae2]
    assert check_derivation(h, as_exact([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    res = check_derivation(h, as_exact(np.eye(3, dtype=int)))
    assert not res and res.witness == (0, 1)


def test_check_derivation_rototranslation():
    r = rototranslation()
    assert check_derivation(r, as_exact([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))


def test_check_automorphism_heisenberg():
    h = heisenberg()
    assert check_automorphism(h, as_exact([[2, 0, 0], [0, 2, 0], [0, 0, 4]]))
    assert check_automorphism(h, as_exact(np.eye(3, dtype=int)))
    res = check_automorphism(h, as_exact([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    assert not res and res.witness == (0, 1)
    with pytest.raises(ValueError, match="singular"):
        check_automorphism(h, np.zeros((3, 3)))


def test_quotient_heisenberg_center():
    h = heisenberg()
    q, proj, sec = quotient(h, as_exact([[0], [0], [1]]))
    assert q.dim == 2 and q.is_abelian


def test_quotient_trivial_ideal():
    h = heisenberg()
    q, proj, sec = quotient(h, as_exact(np.zeros((3, 0), dtype=int)))
    assert q.dim == 3
    assert dict(q.brackets) == dict(h.brackets)


def test_quotient_engel_is_heisenberg():
    e = engel()
    q, proj, sec = quotient(e, as_exact([[0], [0], [0], [1]]))
    assert q.dim == 3
    assert q.brackets == {(0, 1): {2: Fraction(1)}}


def test_quotient_rejects_non_ideal():
    h = heisenberg()
    with pytest.raises(ValueError, match="not an ideal"):
        quotient(h, as_exact([[1], [0], [0]]))  # span(e1) is not an ideal


def test_quotient_commutes_with_bracket():
    e = engel()
    q, proj, sec = quotient(e, as_exact([[0], [0], [0], [1]]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = as_exact([int(v) for v in rng.integers(-5, 6, size=4)])
        y = as_exact([int(v) for v in rng.integers(-5, 6, size=4)])
        lhs = proj @ e.bracket(x, y)
        rhs = q.bracket(proj @ x, proj @ y)
        assert all(a == b for a, b in zip(lhs, rhs))


def test_induced_quotient_map():
    e = engel()
    q, proj, sec = quotient(e, as_exact([[0], [0], [0], [1]]))
    A = as_exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    Ah = induced_on_quotient(A, proj, sec)
    assert [int(Ah[i, i]) for i in range(3)] == [1, 1, 2]


def _random_heisenberg_derivation(rng):
    a, b, c, d, e, f = (int(v) for v in rng.integers(-4, 5, size=6))
    return as_exact([[a, b, 0], [c, d, 0], [e, f, a + d]])


def test_derivations_closed_under_commutator():
    h = heisenberg()
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = _random_heisenberg_derivation(rng)
        B = _random_heisenberg_derivation(rng)
        assert check_derivation(h, A)
        assert check_derivation(h, B)
        assert check_derivation(h, A @ B - B @ A)


def test_eigenspace_brackets_land_in_sum():
    # brackets of generalized eigenspaces of a derivation add eigenvalues
    h = heisenberg()
    A = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    assert check_derivation(h, A)
    spec = generalized_eigenspaces(A)
    for ca in spec.clusters:
        for cb in spec.clusters:
            target = ca.value + cb.value
            matches = [
                c for c in spec.clusters if abs(c.value - target) < 1e-8
            ]
            P = (
                np.hstack([c.basis for c in matches])
                if matches
                else np.zeros((3, 0), dtype=complex)
            )
            for i in range(ca.basis.shape[1]):
                for j in range(cb.basis.shape[1]):
                    va = ca.basis[:, i]
                    vb = cb.basis[:, j]
                    w = (
                        h.bracket(va.real, vb.real)
                        - h.bracket(va.imag, vb.imag)
                        + 1j * (h.bracket(va.real, vb.imag) + h.bracket(va.imag, vb.real))
                    )
                    if P.shape[1]:
                        resid = w - P @ np.linalg.lstsq(P, w, rcond=None)[0]
                    else:
                        resid = w
                    assert np.linalg.norm(resid) < 1e-8


def test_json_roundtrip():
    e = engel()
    obj = algebra_to_json(e)
    text = json.dumps(obj)
    e2 = algebra_from_json(json.loads(text))
    assert e2.dim == 4 and e2.brackets == e.brackets


def test_json_malformed():
    with pytest.raises(ValueError):
        algebra_from_json({"dimension": 3, "brackets": [{"i": 1}]})


def test_bracket_closure_of_grading():
    h = heisenberg()
    gr = grading_from_derivation(h, np.diag([1.0, 1.0, 2.0]))
    assert gr.bracket_closure_residual(h) < 1e-8


def _filiform(n):
    """Model filiform algebra, [e1, ei] = e(i+1): step n - 1."""
    return LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)}, name=f"filiform-{n}")


def _free23():
    return LieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}, name="free23")


def _sl2():
    """sl(2) in the basis (h, e, f): not solvable, Jacobi holds."""
    return LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}, name="sl2")


def _rational_basis(rng, n, scales=None):
    """An invertible rational n x n matrix with entries p/q, |p| <= 4,
    q <= 5, its columns times the given scales."""
    while True:
        P = as_exact(
            [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 6))) for _ in range(n)] for _ in range(n)]
        )
        try:
            Pinv = exact_inv(P)
        except ZeroDivisionError:
            continue
        if scales is not None:
            P, Pinv = P * as_exact(scales)[None, :], Pinv / as_exact(scales)[:, None]
        return P, Pinv


def _changed_table(g, P, Pinv):
    """The brackets of g in the basis given by the columns of P."""
    table = {}
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            w = Pinv @ g.bracket(P[:, a], P[:, b])
            terms = {k: w[k] for k in range(g.dim) if w[k] != 0}
            if terms:
                table[(a, b)] = terms
    return table


def _jacobi_reference(dim, brackets):
    """The message of the first basis triple whose cyclic sum is not zero,
    by brackets of Fraction basis vectors; None when Jacobi holds."""
    C = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), terms in brackets.items():
        for k, c in terms.items():
            C[i][j][k] += Fraction(c)
            C[j][i][k] -= Fraction(c)

    def outer(i, j, k):  # [e_i, [e_j, e_k]]
        return [sum((C[j][k][l] * C[i][l][m] for l in range(dim)), Fraction(0)) for m in range(dim)]

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                s = [a + b + c for a, b, c in zip(outer(i, j, k), outer(j, k, i), outer(k, i, j))]
                if any(x != 0 for x in s):
                    return (
                        f"Jacobi identity fails on (e{i + 1}, e{j + 1}, e{k + 1}): "
                        f"cyclic sum = {[format_frac(x) for x in s]}"
                    )
    return None


def _jacobi_cases():
    """(brackets, dim) cases: Lie algebras in seeded rational bases, with
    small, 2**40-sized and beyond-int64 constants; the same with one
    constant changed; a cyclic sum beyond int64; and random sparse
    constants."""
    rng = np.random.default_rng(20)
    bases = [heisenberg(), engel(), _free23(), _filiform(6), rototranslation(), _sl2()]
    cases = []
    for g in bases:
        for scale in (None, Fraction(2**40, 3), Fraction(2**70, 7**20)):
            scales = None if scale is None else [scale ** int(rng.integers(-1, 2)) for _ in range(g.dim)]
            table = _changed_table(g, *_rational_basis(rng, g.dim, scales))
            cases.append((table, g.dim))
            key = sorted(table)[int(rng.integers(len(table)))]
            k = int(rng.integers(g.dim))
            bad = {pair: dict(terms) for pair, terms in table.items()}
            bad[key][k] = bad[key].get(k, 0) + Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            cases.append((bad, g.dim))
    # dense constants of 1.7e9: a double bracket fits int64, a cyclic sum does not
    signs = iter((1, -1, 1, 1, 1, -1, -1, 1, 1))
    dense = {pair: {k: 1_700_000_000 * next(signs) for k in range(3)} for pair in ((0, 1), (0, 2), (1, 2))}
    cases.append((dense, 3))
    for _ in range(12):
        dim = int(rng.integers(3, 6))
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        table = {}
        for idx in rng.choice(len(pairs), size=2, replace=False):
            k = int(rng.integers(dim))
            table[pairs[idx]] = {k: Fraction(int(rng.integers(-3, 4)) or 1, int(rng.integers(1, 4)))}
        cases.append((table, dim))
    return cases


def test_integer_jacobi_matches_the_fraction_reference():
    seen = set()
    for table, dim in _jacobi_cases():
        want = _jacobi_reference(dim, table)
        D = math.lcm(*(c.denominator for t in table.values() for c in t.values()))
        big = max(abs(c.numerator) * (D // c.denominator) for t in table.values() for c in t.values())
        seen.add((want is None, big >= 2**63))
        if want is None:
            g = LieAlgebra(dim, table)
            assert (g._tensor_int.dtype == object) == (big >= 2**63)
        else:
            with pytest.raises(JacobiError) as err:
                LieAlgebra(dim, table)
            assert str(err.value) == want
    # accepted and refused, on the int64 and on the Python-int tensor
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def _series_reference(g):
    """The lower central series by brackets of Fraction columns, each term
    the pivot columns of the previous one's brackets."""
    n = g.dim
    series, current = [], exact_eye(n)
    while True:
        cols = [
            g.bracket(g.basis_vector(i), current[:, j]).reshape(n, 1)
            for i in range(n)
            for j in range(current.shape[1])
        ]
        stacked = np.hstack(cols)
        series.append(stacked[:, exact_rref(stacked.copy())[1]].copy())
        if series[-1].shape[1] == 0:
            return series
        if len(series) > 1 and series[-1].shape[1] == series[-2].shape[1]:
            return series
        current = series[-1]


def _series_cases():
    rng = np.random.default_rng(21)
    yield from (entry.algebra for entry in CATALOG.values())
    yield from (_free23(), rototranslation(), _sl2())
    yield from (_filiform(n) for n in (7, 8, 9, 12))
    for g in (heisenberg(), engel(), _free23(), _filiform(6), rototranslation()):
        for scales in (None, [Fraction(2**70, 3)] * g.dim):
            yield LieAlgebra(g.dim, _changed_table(g, *_rational_basis(rng, g.dim, scales)))


def test_lower_central_series_matches_the_fraction_loop():
    for g in _series_cases():
        got, want = g.lower_central_series(), _series_reference(g)
        assert [B.shape for B in got] == [B.shape for B in want], g.name
        for B, R in zip(got, want):
            assert B.dtype == object
            assert all(type(a) is Fraction and type(b) is Fraction and a == b for a, b in zip(B.flat, R.flat))
        assert g.nilpotency_step() == (len(want) if want[-1].shape[1] == 0 else None)


def test_lower_central_series_is_kept_and_handed_out_as_copies():
    g = engel()
    first = g.lower_central_series()
    first[0][0, 0] = Fraction(5)
    again = g.lower_central_series()
    assert again[0][0, 0] == 0 and again[0] is not first[0]
    assert g._series is g._series  # walked once and kept


def test_filiform14_has_step_13():
    g = _filiform(14)
    assert g.nilpotency_step() == 13
    assert [B.shape[1] for B in g.lower_central_series()] == list(range(12, -1, -1))
