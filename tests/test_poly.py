"""Homogeneous polynomials: monomial order, evaluation, monomial rows, products by forms."""

import copy
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coniclines.linalg import QMatrix
from coniclines.poly import (
    HomPoly,
    ProjPoint,
    digits,
    divides,
    monomial_count,
    monomial_row,
    monomials,
)

from .conftest import from_sympy, long_int, multiplication_image, rank, times_monomial, value_at
from .oracles import sympy_divides, to_sympy

X = HomPoly(1, (1, 0, 0))

PAPER_CONIC = HomPoly.from_terms(
    2,
    {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): -2, (1, 0, 1): -2, (0, 1, 1): -2},
)


def hompoly_strategy(degree):
    n = monomial_count(degree)
    coeffs = st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=n, max_size=n
    )
    return coeffs.map(lambda cs: HomPoly(degree, cs))


def points_strategy():
    triples = st.tuples(
        st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
    ).filter(lambda t: any(t))
    return triples.map(lambda t: ProjPoint(*t))


def test_monomial_order_is_graded_lex():
    assert monomials(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials(3) == (
        (3, 0, 0),
        (2, 1, 0),
        (2, 0, 1),
        (1, 2, 0),
        (1, 1, 1),
        (1, 0, 2),
        (0, 3, 0),
        (0, 2, 1),
        (0, 1, 2),
        (0, 0, 3),
    )
    assert monomial_count(3) == 10


def test_projpoint_canonical_form():
    assert ProjPoint(0, 1, 1) == ProjPoint(0, 2, 2)
    assert ProjPoint(-1, 2, 5) == (1, -2, -5)
    with pytest.raises(ValueError):
        ProjPoint(0, 0, 0)


def test_projpoint_copies_and_pickles_as_a_point():
    p = ProjPoint(-4, 6, -10)
    for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(again) is ProjPoint and again == p


def test_normalize_twice_is_idempotent():
    p = ProjPoint(-4, 6, -10)
    again = ProjPoint(*p)
    assert p == again


def test_conic_vanishes_at_tangency_point():
    assert value_at(PAPER_CONIC, (0, 1, 1)) == 0


def test_variable_evaluation():
    assert value_at(X, (0, 1, 1)) == 0
    assert value_at(PAPER_CONIC, (1, 0, 0)) == 1


def test_monomial_row_degree_one():
    assert monomial_row(1, ProjPoint(1, 2, 3)) == (1, 2, 3)


def test_monomial_row_degree_three_unit_point():
    row = monomial_row(3, ProjPoint(1, 0, 0))
    assert row[0] == 1 and not any(row[1:])


def test_monomial_row_point_on_coordinate_line():
    # canonical form of [0 : -5 : 1] is (0, 5, -1)
    row = monomial_row(3, ProjPoint(0, -5, 1))
    expected = {}
    for i, (a, b, c) in enumerate(monomials(3)):
        expected[i] = 0 if a > 0 else (5**b) * ((-1) ** c)
    assert list(row) == [expected[i] for i in range(10)]


def test_monomial_row_rejects_degree_zero():
    with pytest.raises(ValueError):
        monomial_row(0, ProjPoint(1, 1, 1))


@given(hompoly_strategy(3), points_strategy())
@settings(max_examples=100, deadline=None)
def test_monomial_row_matches_evaluation(f, p):
    row = monomial_row(3, p)
    assert sum(a * b for a, b in zip(row, f.coeffs)) == value_at(f, p)


def test_multiplication_image_dimensions():
    assert len(multiplication_image(X, 1)) == 1
    assert len(multiplication_image(X, 2)) == 3
    l3 = HomPoly.from_terms(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -5})
    image = multiplication_image(l3, 3)
    assert len(image) == 6
    assert rank(QMatrix.from_rows(image, monomial_count(3))) == len(image)
    # every basis vector is a multiple of the line
    for v in image:
        assert sympy_divides(HomPoly(3, v), l3)


def test_multiplication_image_rejects_degree_overflow():
    with pytest.raises(ValueError):
        multiplication_image(PAPER_CONIC, 1)


def test_multiplication_image_rank_equals_predicted():
    image = multiplication_image(PAPER_CONIC, 4)
    m = QMatrix.from_rows(image, cols=monomial_count(4))
    assert rank(m) == monomial_count(2)


def integer_forms(degree, bound=5):
    n = monomial_count(degree)
    coeffs = st.lists(st.integers(-bound, bound), min_size=n, max_size=n).filter(any)
    return coeffs.map(lambda cs: HomPoly(degree, cs))


def product(f: HomPoly, g: HomPoly) -> HomPoly:
    """f * g, multiplied in sympy."""
    return from_sympy(to_sympy(f) * to_sympy(g), f.degree + g.degree)


@given(
    st.integers(1, 3).flatmap(integer_forms),
    st.integers(0, 3).flatmap(integer_forms),
    st.integers(0, 27),
    st.integers(-3, 3),
)
@settings(max_examples=60, deadline=None)
def test_divides_matches_sympy_division(f, g, at, delta):
    # f * g with one coefficient moved by delta: divisible for delta 0, mostly not otherwise
    v = list(product(f, g).coeffs)
    v[at % len(v)] += delta
    n = f.degree + g.degree
    assert divides(f, v, n) == sympy_divides(HomPoly(n, v), f)


@given(st.integers(1, 3).flatmap(integer_forms), st.integers(0, 3).flatmap(integer_forms))
@settings(max_examples=150, deadline=None)
def test_divides_every_product(f, g):
    fg = product(f, g)
    assert divides(f, fg.coeffs, fg.degree)
    assert divides(g, fg.coeffs, fg.degree)
    assert divides(f, times_monomial(fg, (0, 1, 2)).coeffs, fg.degree + 3)


def test_divides_small_cases():
    y = HomPoly(1, (0, 1, 0))
    xy = HomPoly(2, (0, 1, 0, 0, 0, 0))
    assert divides(X, xy.coeffs, 2) and divides(y, xy.coeffs, 2)
    assert not divides(HomPoly(1, (0, 0, 1)), xy.coeffs, 2)
    assert divides(PAPER_CONIC, [0] * 10, 3)
    # a form of higher degree divides no nonzero form
    assert not divides(PAPER_CONIC, X.coeffs, 1)
    # 2x + 3y divides 4x^2 - 9y^2 only after the dividend is scaled by 2
    assert divides(HomPoly(1, (2, 3, 0)), (4, 0, 0, -9, 0, 0), 2)
    assert not divides(HomPoly(1, (2, 3, 0)), (4, 0, 0, 9, 0, 0), 2)
    with pytest.raises(ValueError):
        divides(HomPoly(1, (0, 0, 0)), xy.coeffs, 2)


def test_digits_reads_back_past_the_digit_limit():
    # 500-digit chunks: a zero chunk between others must keep its zeros
    for n in (0, 7, -7, 10**500, -(10**5000) + 1, 10**1500 * (10**3600 + 1), 3**20000):
        text = digits(n)
        assert long_int(text) == n
        assert re.fullmatch(r"0|-?[1-9][0-9]*", text)


def test_str_rendering():
    assert str(PAPER_CONIC) == "x^2 - 2*x*y - 2*x*z + y^2 - 2*y*z + z^2"
    assert str(HomPoly(2, [0] * 6)) == "0"
    assert str(HomPoly(1, (-2, 0, 3))) == "-2*x + 3*z"
