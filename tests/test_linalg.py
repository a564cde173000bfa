"""Exact linear algebra: golden cases, dual-oracle rank, kernel properties."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coniclines.linalg import QMatrix, kernel_basis, primitive

from .conftest import cleared, in_span, random_matrix_rows, rank
from .oracles import naive_kernel, naive_rank

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def matrices(max_dim=8):
    return st.integers(1, max_dim).flatmap(
        lambda rows: st.integers(1, max_dim).flatmap(
            lambda cols: st.lists(
                st.lists(fractions, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )


def qmatrix(rows) -> QMatrix:
    """The integer matrix of nonempty rational rows, each row's denominators cleared."""
    return QMatrix.from_rows(map(cleared, rows), len(rows[0]))


def test_rank_identity():
    assert rank(QMatrix.from_rows([[int(i == j) for j in range(3)] for i in range(3)], 3)) == 3


def test_rank_zero_matrix():
    assert rank(QMatrix.from_rows([[0] * 7] * 4, 7)) == 0


def test_kernel_of_identity_is_empty():
    identity = QMatrix.from_rows([[int(i == j) for j in range(3)] for i in range(3)], 3)
    assert kernel_basis(identity) == ()


def test_kernel_of_sum_constraint():
    basis = kernel_basis(QMatrix.from_rows([[1, 1, 1]], 3))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_kernel_vectors_are_primitive_integer():
    basis = kernel_basis(QMatrix.from_rows([[3, 2, 6]], 3))
    assert len(basis) == 2
    for v in basis:
        assert all(type(e) is int for e in v)
        assert math.gcd(*v) == 1
        first = next(e for e in v if e != 0)
        assert first > 0


def test_primitive_normalization():
    assert primitive([-4, 6, 0]) == (2, -3, 0)
    assert primitive([0, 0, 0]) == (0, 0, 0)


def test_in_span_zero_vector():
    assert in_span([0, 0, 0], (), 3)


def test_in_span_false_case():
    e2 = (0, 1, 0)
    assert not in_span([1, 0, 0], (e2,), 3)


def test_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        in_span([1, 0], (), 3)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_naive_oracle(rows):
    m = qmatrix(rows)
    assert rank(m) == naive_rank(rows)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(rows):
    m = qmatrix(rows)
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_annihilated_exactly(rows):
    m = qmatrix(rows)
    for v in kernel_basis(m):
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_rank_invariant_under_permutation_and_scaling(rows, rng):
    m = qmatrix(rows)
    r = rank(m)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    scale = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7]))
    shuffled[0] = [scale * e for e in shuffled[0]]
    assert rank(qmatrix(shuffled)) == r
    cols = list(range(m.cols))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in rows]
    assert rank(qmatrix(permuted)) == r


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_spans_match_naive_oracle(rows):
    m = qmatrix(rows)
    mine = kernel_basis(m)
    other = naive_kernel(rows, m.cols)
    assert len(mine) == len(other)
    span = tuple(cleared(v) for v in other)
    for v in mine:
        assert in_span(v, span, m.cols)


def test_randomized_rank_agreement_up_to_12x12():
    rng = random.Random(20240)
    for _ in range(120):
        grid, cols = random_matrix_rows(rng, max_dim=12)
        m = qmatrix(grid)
        assert rank(m) == naive_rank(grid)
        assert rank(m) + len(kernel_basis(m)) == cols


def test_basis_independence_assertion():
    e1 = (1, 0, 0)
    dep = (e1, (2, 0, 0))
    assert rank(QMatrix.from_rows(dep, 3)) < len(dep)
    assert rank(QMatrix.from_rows((e1,), 3)) == 1
