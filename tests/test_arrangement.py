"""Arrangement parsing, validation, serialization round trips."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coniclines.arrangement import (
    Arrangement,
    Component,
    ParseError,
    conic_form,
    conic_matrix_determinant,
    line_form,
    parse,
)
from coniclines.poly import HomPoly

from .conftest import generic_lines, random_arrangement, serialize

PAIR1_TEXT = """
conic C : 1 1 1 -2 -2 -2
line L1 : 1 0 0
line L2 : 0 1 0
line L3 : 1 1 -5
line L4 : 3 -2 -10
line L5 : 1 1 5
line L6 : 3 3 -10
line L7 : 2 -3 10
curve CC = L1 L2 L3
curve B = C L4 L5 L6 L7
"""


def test_parse_full_pair1(pair1_b1):
    assert len(pair1_b1.components) == 8
    assert pair1_b1.degree == 9
    assert set(pair1_b1.subcurves) == {"CC", "B"}
    assert pair1_b1.subcurve("CC") == ("L1", "L2", "L3")
    assert pair1_b1.degree_of(pair1_b1.subcurve("CC")) == 3
    assert pair1_b1.degree_of(pair1_b1.subcurve("B")) == 6


def test_parse_single_line():
    a = parse("line L1 : 1 0 0")
    assert len(a.components) == 1
    assert a.components[0].kind == "line"


def test_parse_empty_text_gives_empty_arrangement():
    a = parse("# nothing but a comment\n\n")
    assert a.components == ()


def test_duplicate_label_rejected():
    text = "conic C : 1 1 1 -2 -2 -2\nconic C : 1 1 1 -2 -2 -2\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "duplicate" in str(err.value) or "one conic" in str(err.value)
    assert err.value.line == 2


def test_two_conics_rejected():
    text = "conic C : 1 1 1 -2 -2 -2\nconic D : 1 1 -1 0 0 0\n"
    with pytest.raises(ParseError, match="more than one conic"):
        parse(text)


def test_proportional_lines_rejected():
    with pytest.raises(ParseError, match="proportional"):
        parse("line L1 : 1 0 0\nline L2 : 2 0 0\n")


def test_proportional_fraction_lines_rejected():
    with pytest.raises(ParseError, match="proportional"):
        parse("line L1 : 1/2 -1 0\nline L2 : -1 2 0\n")


def test_singular_conic_rejected():
    # x^2 - y^2 is a pair of lines, not a smooth conic
    with pytest.raises(ParseError, match="singular"):
        parse("conic Q : 1 -1 0 0 0 0")


def test_paper_conic_is_smooth():
    assert conic_matrix_determinant(conic_form([1, 1, 1, -2, -2, -2])) != 0


def test_line_pair_determinant_vanishes():
    assert conic_matrix_determinant(conic_form([1, -1, 0, 0, 0, 0])) == 0


def test_unknown_label_in_subcurve():
    with pytest.raises(ParseError, match="unknown label"):
        parse("line L1 : 1 0 0\ncurve B = L1 L2\n")


def declaration(text, line, column, message):
    # the id is the text, line and message: the column is read off the error
    return pytest.param(text, line, column, message, id=f"{text}-{line}-{message}")


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        declaration("line L1 : 1 0 0\nline L2 : 0 1 0\nline L1 : 1 1 0\n", 3, 6,
                    "duplicate label L1"),
        declaration("conic C : 1 1 -1 0 0 0\nline L1 : 1 0 0\nconic D : 1 1 -4 0 0 0\n", 3, 7,
                    "more than one conic"),
        declaration("line L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : -3 0 0\n", 3, 6,
                    "component L3 is proportional to L1"),
        declaration("line L1 : 1 0 0\ncurve B =\n", 2, 7, "sub-curve B is empty"),
        declaration("line L1 : 1 0 0\ncurve B = L1 L2\n", 2, 7, "unknown label L2 in sub-curve B"),
        declaration("line L1 : 1 0 0\ncurve B = L1 L1\n", 2, 7, "sub-curve B repeats label L1"),
        # a sub-curve sees only the components declared above it
        declaration("curve B = L1\nline L1 : 1 0 0\n", 1, 7, "unknown label L1 in sub-curve B"),
        declaration("line L1 : 1 0 0\ncurve B = L1 L2\nline L2 : 0 1 0\n", 2, 7,
                    "unknown label L2 in sub-curve B"),
        # the first faulty declaration is reported
        declaration("line L1 : 1 0 0\ncurve B = L9\nline L1 : 0 1 0\n", 2, 7,
                    "unknown label L9 in sub-curve B"),
        declaration("line L1 : 1 0 0\nline L2 : 2 0 0\ncurve B = L9\n", 2, 6,
                    "component L2 is proportional to L1"),
        # tabs, indents and runs of spaces: a column counts characters, a tab as one
        declaration("line\tL1\t:\t1\t0\t0\nline\tL2\t:\t-2\t0\t0\n", 2, 6,
                    "component L2 is proportional to L1"),
        declaration("  line L1 : 1 0 0\n\tline L1 : 0 1 0\n", 2, 7, "duplicate label L1"),
        declaration("line L1 : 1 0 0\n\t \tline   L2  :  0 1 0\ncurve   B   =   L1    L9\n", 3, 9,
                    "unknown label L9 in sub-curve B"),
        declaration("line L1 : 1 0 0\n   line \t 1a : 0 1 0\n", 2, 11, "invalid label '1a'"),
        declaration("conic C\t: 1 1 -1 0 0 0\n\t\tconic   D :\t1 1 -4 0 0 0\n", 2, 11,
                    "more than one conic"),
    ],
)
def test_validation_error_names_the_offending_declaration(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_parse_compares_forms_once(monkeypatch):
    # one pass against a dict of the forms seen so far; checking each
    # declaration against every one above it, in `parse` and again in
    # `Arrangement`, made 2 * 60 * 59 / 2 = 3,540 comparisons
    calls = []
    eq = HomPoly.__eq__

    def counting_eq(self, other):
        calls.append(None)
        return eq(self, other)

    monkeypatch.setattr(HomPoly, "__eq__", counting_eq)
    a = parse(generic_lines(60))
    assert len(a.components) == 60
    assert len(calls) <= 60


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("line L1 : 1 0\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse("line L1 : 1 0 zero\n")
    assert err.value.line == 1
    assert err.value.column > 1


@pytest.mark.parametrize(
    "text, line, column",
    [
        *(
            pytest.param(f"line L1 : 1 {token} 0\n", 1, 13, id=token)
            for token in ["1.5", ".5", "1e9", "1e10000000", "1_000", "1/0", "3/-4"]
        ),
        pytest.param("line\tL1\t:\t1\t1.5\t0\n", 1, 13, id="tabs"),
        pytest.param("\tline  L1 :\t1   x/2 0\n", 1, 17, id="indent"),
        pytest.param("   conic C : 1 1 -1 0 1e3 0\n", 1, 23, id="mid-line"),
        pytest.param("line L1 : 1 0 0  # comment\nline    L2   :   0   1/0   0\n", 2, 22,
                     id="runs-of-spaces"),
    ],
)
def test_coefficient_is_integer_or_fraction(text, line, column):
    token = text.splitlines()[line - 1][column - 1 :].split()[0]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == (
        f"line {line}, column {column}: expected integer or fraction, got {token!r}"
    )


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integer strings of any length",
)
@pytest.mark.parametrize("place", ["numerator", "denominator"])
def test_too_long_integer_names_the_digit_limit(place):
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 1)
    token = digits if place == "numerator" else f"1/{digits}"
    with pytest.raises(ParseError) as err:
        parse(f"line L1 : 1 {token} 0\n")
    assert str(err.value) == (
        f"line 1, column 13: integer longer than {limit} digits "
        "(the limit of sys.get_int_max_str_digits())"
    )


def test_unknown_keyword():
    with pytest.raises(ParseError, match="unknown declaration"):
        parse("circle C : 1 1 1\n")


def test_fraction_coefficients_cleared_to_primitive():
    a = parse("line L : 1/2 1/3 0")
    assert a.components[0].form.coeffs == (3, 2, 0)
    # one scale per declaration, whatever the form of its fractions
    a = parse("conic C : 1/2 1/3 -5/6 2/4 0 0")
    assert a.conic.form == conic_form([3, 2, -5, 3, 0, 0])


def test_roundtrip_pair_file():
    a = parse(PAIR1_TEXT)
    assert parse(serialize(a)) == a


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_random_arrangements(seed):
    a = random_arrangement(random.Random(seed))
    assert parse(serialize(a)) == a


def test_component_validation():
    with pytest.raises(ValueError):
        Component("L", "line", conic_form([1, 1, 1, 0, 0, 0]))
    with pytest.raises(ValueError, match="singular"):
        Component("Q", "conic", conic_form([0, 0, 0, 1, 0, 0]).primitive())


def test_arrangement_validation_direct():
    l1 = Component("L1", "line", line_form([1, 0, 0]))
    l1b = Component("L2", "line", line_form([2, 0, 0]))
    with pytest.raises(ValueError, match="proportional"):
        Arrangement((l1, l1b), {})
    with pytest.raises(ValueError, match="unknown label"):
        Arrangement((l1,), {"B": ("L9",)})
    with pytest.raises(ValueError, match="empty"):
        Arrangement((l1,), {"B": ()})


def test_proportional_components_rejected_before_normalization():
    l1 = Component("L1", "line", HomPoly(1, (1, -2, 3)))
    l2 = Component("L2", "line", HomPoly(1, (2, -4, 6)))
    assert l1.form == l2.form
    with pytest.raises(ValueError, match="proportional"):
        Arrangement((l1, l2), {})
