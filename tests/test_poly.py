"""Homogeneous polynomials: monomial order, evaluation, monomial rows, products by forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coniclines.linalg import QMatrix, rank
from coniclines.poly import (
    HomPoly,
    ProjPoint,
    monomial_count,
    monomial_row,
    monomials,
    multiplication_image,
)

from .oracles import sympy_divides

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
    assert ProjPoint(-1, 2, 5).coords == (1, -2, -5)
    with pytest.raises(ValueError):
        ProjPoint(0, 0, 0)


def test_normalize_twice_is_idempotent():
    p = ProjPoint(-4, 6, -10)
    again = ProjPoint(*p.coords)
    assert p == again


def test_conic_vanishes_at_tangency_point():
    assert PAPER_CONIC.evaluate_triple((0, 1, 1)) == 0


def test_variable_evaluation():
    assert X.evaluate_triple((0, 1, 1)) == 0
    assert PAPER_CONIC.evaluate_triple((1, 0, 0)) == 1


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
    assert sum(a * b for a, b in zip(row, f.coeffs)) == f.evaluate_triple(p.coords)


def test_multiplication_image_dimensions():
    assert multiplication_image(X, 1).dim == 1
    assert multiplication_image(X, 2).dim == 3
    l3 = HomPoly.from_terms(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -5})
    image = multiplication_image(l3, 3)
    assert image.dim == 6
    assert rank(QMatrix.from_rows(image.vectors, image.ambient_dim)) == image.dim
    # every basis vector is a multiple of the line
    for v in image.vectors:
        assert sympy_divides(HomPoly(3, v), l3)


def test_multiplication_image_rejects_degree_overflow():
    with pytest.raises(ValueError):
        multiplication_image(PAPER_CONIC, 1)


def test_multiplication_image_rank_equals_predicted():
    image = multiplication_image(PAPER_CONIC, 4)
    m = QMatrix.from_rows(image.vectors, cols=monomial_count(4))
    assert rank(m) == monomial_count(2)


def test_str_rendering():
    assert str(PAPER_CONIC) == "x^2 - 2*x*y - 2*x*z + y^2 - 2*y*z + z^2"
    assert str(HomPoly(2, [0] * 6)) == "0"
    assert str(HomPoly(1, (-2, 0, 3))) == "-2*x + 3*z"
