import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import calorix as cx
from calorix.errors import NotCaloric
from calorix.polynomials import _family_terms

from conftest import ENTRIES
from fdtools import series_polynomial_terms


# -- multi-index ordering ---------------------------------------------------

def test_graded_lex_enumeration():
    basis = cx.enumerate_basis(2, 2)
    assert basis == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(cx.enumerate_basis(3, 4)) == math.comb(7, 3)


# an index is checked before any work: points and times that cannot be read
# and an unchanged family cache show that nothing was evaluated or built
INDEX_USERS = {
    "caloric_poly": lambda A, alpha: cx.caloric_poly(A, alpha, "v"),
    "basis_matrix": lambda A, alpha: cx.basis_matrix(A, [(0, 0), alpha], "v",
                                                     object(), object()),
    "moment_identity_check": lambda A, alpha: cx.moment_identity_check(A, alpha, object()),
}


@pytest.mark.parametrize("alpha, message", [
    ((1, -1), "non-negative"),
    ([1, 0, 0], "length 3 does not match dimension 2"),
], ids=["negative", "length"])
@pytest.mark.parametrize("name", sorted(INDEX_USERS))
def test_bad_multi_index_raises_before_any_work(B2, name, alpha, message):
    misses = _family_terms.cache_info().misses
    with pytest.raises(ValueError, match=message):
        INDEX_USERS[name](B2, alpha)
    assert _family_terms.cache_info().misses == misses


def test_multi_index_accepts_lists_and_numpy_ints(B2):
    want = cx.caloric_poly(B2, (2, 1))
    for alpha in ([2, 1], np.array([2, 1]), (np.int32(2), np.int64(1))):
        p = cx.caloric_poly(B2, alpha)
        assert p.alpha == (2, 1) and all(type(a) is int for a in p.alpha)
        assert p.terms == want.terms
    pts = np.array([[0.3, -0.2], [0.1, 0.5]])
    ts = np.array([0.4, 0.7])
    alphas = cx.enumerate_basis(2, 3)
    assert np.array_equal(cx.basis_matrix(B2, [np.array(a) for a in alphas], "v", pts, ts),
                          cx.basis_matrix(B2, alphas, "v", pts, ts))
    target = (pts[0], ts[0])
    assert (cx.moment_identity_check(B2, np.array([1, 2]), target, resolution=20)
            == cx.moment_identity_check(B2, (1, 2), target, resolution=20))


# -- family construction ----------------------------------------------------

def test_exact_annihilation_small_degrees(I1, I2, B2, D3, C3):
    for A in (I1, I2, B2, D3, C3):
        for alpha in cx.enumerate_basis(A.n, 5):
            v = cx.caloric_poly(A, alpha, "v")
            assert cx.apply_parabolic_operator(v, A, "H").terms == {}
            w = cx.caloric_poly(A, alpha, "w")
            assert cx.apply_parabolic_operator(w, A, "H*").terms == {}


def test_forward_family_fails_adjoint_equation(I2):
    v = cx.caloric_poly(I2, (2, 0), "v")
    assert cx.apply_parabolic_operator(v, I2, "H*").terms != {}


def test_initial_trace_is_monomial(B2, C3):
    for A in (B2, C3):
        for alpha in cx.enumerate_basis(A.n, 6):
            for parity in ("v", "w"):
                p = cx.caloric_poly(A, alpha, parity)
                trace = {(beta, m): c for (beta, m), c in p.terms.items()
                         if m == 0}
                assert trace == {(alpha, 0): Fraction(1)}


def test_coordinate_degrees_and_time_degree(B2):
    # x_j degree is alpha_j exactly; the t-degree reaches floor(|alpha|/2)
    # here (recorded, not a general claim)
    alpha = (3, 2)
    p = cx.caloric_poly(B2, alpha)
    xdeg = [0, 0]
    tdeg = 0
    for (beta, m), _ in p.terms.items():
        xdeg = [max(xdeg[j], beta[j]) for j in range(2)]
        tdeg = max(tdeg, m)
    assert xdeg == [3, 2]
    assert tdeg == (3 + 2) // 2


def test_classical_heat_polynomial_frozen(I1):
    # one-dimensional family: v_4 = x^4 + 12 x^2 t + 12 t^2
    p = cx.caloric_poly(I1, (4,))
    assert p.terms == {
        ((4,), 0): Fraction(1),
        ((2,), 1): Fraction(12),
        ((0,), 2): Fraction(12),
    }


def test_string_form(I2):
    assert str(cx.caloric_poly(I2, (2, 0))) == "x1^2 + 2*t"


def test_adjoint_family_is_time_reflection(B2):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10, 2))
    ts = rng.uniform(-1.0, 1.0, size=10)
    for alpha in [(1, 2), (3, 0), (2, 2)]:
        v = cx.caloric_poly(B2, alpha, "v")
        w = cx.caloric_poly(B2, alpha, "w")
        assert np.allclose(w.evaluate(pts, ts), v.evaluate(pts, -ts),
                           rtol=1e-14, atol=1e-14)


# -- generating function oracle ---------------------------------------------

def test_series_extraction_matches_recurrence(I1, B2, C3):
    for A, key in ((I1, "I1"), (B2, "B2"), (C3, "C3")):
        for alpha in cx.enumerate_basis(A.n, 6):
            for parity, sign in (("v", +1), ("w", -1)):
                built = cx.caloric_poly(A, alpha, parity).terms
                extracted = series_polynomial_terms(ENTRIES[key], alpha, sign)
                assert built == extracted, (key, alpha, parity)


# -- float basis against the exact family -----------------------------------

LADDER_A = [[2.0, 0.5, 0.0], [0.5, 1.5, 0.25], [0.0, 0.25, 1.0]]


@pytest.mark.parametrize("entries", [ENTRIES["B2"], LADDER_A], ids=["B2", "ladder"])
@pytest.mark.parametrize("parity", ["v", "w"])
def test_basis_matrix_matches_exact_family(entries, parity):
    A = cx.make_coefficients(len(entries), entries)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(300, A.n))
    ts = rng.uniform(-0.5, 1.0, size=300)
    alphas = cx.enumerate_basis(A.n, 12)
    got = cx.basis_matrix(A, alphas, parity, pts, ts)
    assert got.shape == (300, len(alphas))
    for k, alpha in enumerate(alphas):
        want = cx.caloric_poly(A, alpha, parity).evaluate(pts, ts)
        assert np.max(np.abs(got[:, k] - want)) <= 1e-13 * np.max(np.abs(want)), alpha
    # any order of a downward-closed set gives the same columns
    assert np.array_equal(cx.basis_matrix(A, alphas[::-1], parity, pts, ts),
                          got[:, ::-1])


def test_basis_matrix_needs_downward_closed_set(I2):
    pts, ts = np.zeros((2, 2)), np.zeros(2)
    with pytest.raises(ValueError, match="closed downward"):
        cx.basis_matrix(I2, [(0, 0), (1, 1)], "v", pts, ts)
    with pytest.raises(ValueError):
        cx.basis_matrix(I2, [(0, 0)], "x", pts, ts)


# -- evaluation -------------------------------------------------------------

def test_evaluate_exact_at_rational_points(B2):
    p = cx.caloric_poly(B2, (2, 1))
    val = p.evaluate_exact((Fraction(1, 2), Fraction(1, 3)), Fraction(1, 4))
    # direct expansion of the stored terms at the same rational point
    direct = sum(c * Fraction(1, 2)**b[0] * Fraction(1, 3)**b[1]
                 * Fraction(1, 4)**m for (b, m), c in p.terms.items())
    assert val == direct
    assert isinstance(val, Fraction)
    f = p.evaluate(np.array([[0.5, 1.0 / 3.0]]), np.array([0.25]))[0]
    assert f == pytest.approx(float(val), rel=1e-14)


def test_evaluate_reads_the_current_terms(I2):
    # evaluate builds its term arrays from ``terms`` on each call, so a term
    # added after a first evaluation is seen, as by evaluate_exact
    p = cx.caloric_poly(I2, (2, 0), "v")
    x, t = (Fraction(1, 2), Fraction(1, 5)), Fraction(3, 10)
    assert p.evaluate(np.array([[0.5, 0.2]]), np.array([0.3]))[0] == pytest.approx(0.85)
    p.terms[((0, 0), 1)] = Fraction(5)
    got = p.evaluate(np.array([[0.5, 0.2]]), np.array([0.3]))[0]
    assert p.evaluate_exact(x, t) == Fraction(7, 4)
    assert got == pytest.approx(float(p.evaluate_exact(x, t)), rel=1e-14)


def test_algebra_and_differentiation(I2):
    p = cx.caloric_poly(I2, (2, 0))
    q = p.diff_x(0)          # 2 x1
    assert q.terms == {((1, 0), 0): Fraction(2)}
    r = p.diff_t()
    assert r.terms == {((0, 0), 0): Fraction(2)}
    s = p + p.scaled(-1)
    assert s.terms == {}


def test_json_round_trip(C3):
    # the num/den strings that poly-table writes give back the exact terms
    p = cx.caloric_poly(C3, (2, 1, 1), "w")
    data = p.to_json_dict()
    terms = {(tuple(item["beta"]), item["m"]): Fraction(int(item["num"]), int(item["den"]))
             for item in data["terms"]}
    assert terms == p.terms
    assert data["parity"] == p.parity


# -- decomposition ----------------------------------------------------------

def test_decompose_round_trip(B2):
    combo = (cx.caloric_poly(B2, (2, 1)).scaled(Fraction(3, 2))
             + cx.caloric_poly(B2, (0, 1)).scaled(-2))
    coeffs = cx.decompose(combo, B2, "v")
    assert coeffs == {(2, 1): Fraction(3, 2), (0, 1): Fraction(-2)}


def test_decompose_rejects_non_caloric(B2):
    bad = cx.caloric_poly(B2, (2, 0)) + cx.CaloricPolynomial(
        2, {((0, 0), 1): Fraction(1)})
    with pytest.raises(NotCaloric):
        cx.decompose(bad, B2, "v")


# -- moment identity --------------------------------------------------------

def test_moment_identity(I2, B2):
    for A in (I2, B2):
        for alpha in [(0, 0), (1, 0), (2, 1), (0, 3)]:
            for t in (0.1, 1.0):
                err = cx.moment_identity_check(A, alpha,
                                               (np.array([0.3, -0.2]), t))
                assert err < 1e-8


# -- properties -------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3),
       st.fractions(min_value=Fraction(-1), max_value=Fraction(1)),
       st.fractions(min_value=Fraction(1, 2), max_value=Fraction(3)))
def test_annihilation_random_rational_matrix(a1, a2, off, diag):
    # random SPD with rational entries: diag dominant keeps it positive
    c = off * diag / 2
    A = cx.make_coefficients(2, [[float(diag), float(c)],
                                 [float(c), float(diag)]])
    v = cx.caloric_poly(A, (a1, a2))
    assert cx.apply_parabolic_operator(v, A, "H").terms == {}
