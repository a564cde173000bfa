"""Exact linear algebra over the integers.

Evaluation matrices reduce to a kernel computation here: the linear
system of curves through prescribed points is the null space of their
monomial rows.  Every form, point and kernel vector in the package is
primitive-integer, so vectors and matrices hold plain ints.  Elimination
is fraction-free (Bareiss), and so is kernel back-substitution:
intermediate entries stay integers and no rounding ever happens.
Pivoting is first-nonzero-in-column-order: determinism matters, numerical
stability does not.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

QVector = tuple[int, ...]


def primitive(vec: Iterable[int]) -> QVector:
    """Divide an integer vector by its content, making the first nonzero entry positive.

    The zero vector comes back unchanged.  Used to canonicalize kernel
    vectors, coefficient vectors and point coordinates for reproducible
    output.
    """
    ints = tuple(vec)
    g = math.gcd(*ints)
    if g == 0:
        return ints
    if next(filter(None, ints)) < 0:
        g = -g
    return ints if g == 1 else tuple([v // g for v in ints])


@dataclass(frozen=True)
class QMatrix:
    """Dense integer matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[QVector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int) -> "QMatrix":
        ent = tuple(tuple(r) for r in rows)
        return cls(len(ent), cols, ent)


def _ff_echelon(m: QMatrix) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of m by fraction-free (Bareiss) elimination.

    Returns the nonzero echelon rows and the pivot column indices.  The
    two-step update keeps every intermediate entry a minor of the input,
    so the integer division is exact.
    """
    rows = [list(r) for r in m.entries]
    cols = m.cols
    pivots: list[int] = []
    nrows = len(rows)
    r = 0
    prev = 1
    for c in range(cols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            fac = rows[i][c]
            for j in range(c + 1, cols):
                rows[i][j] = (piv * rows[i][j] - fac * rows[r][j]) // prev
            rows[i][c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def kernel_basis(m: QMatrix) -> tuple[QVector, ...]:
    """Basis of the right null space {v : m v = 0}, as a tuple of vectors.

    One basis vector per free column, obtained by setting that free
    variable to 1 and back-substituting; each vector is normalized to
    primitive integer form with first nonzero entry positive.  The partial
    vector is rescaled whenever a pivot does not divide its row sum, so
    back-substitution stays in the integers.  An echelon row is zero left
    of its pivot, so rows pivoting right of the free column give 0 and are
    skipped, and each row sum runs over the entries set so far: the free
    column and the pivots below the row.
    """
    ech, pivots = _ff_echelon(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for fc in free_cols:
        v = [0] * m.cols
        v[fc] = 1
        nonzero = [fc]
        for r in reversed(range(bisect.bisect(pivots, fc))):
            pc = pivots[r]
            row = ech[r]
            s = sum(row[j] * v[j] for j in nonzero)
            piv = row[pc]
            if s % piv:
                scale = abs(piv) // math.gcd(s, piv)
                for j in nonzero:
                    v[j] *= scale
                s *= scale
            v[pc] = -s // piv
            nonzero.append(pc)
        vectors.append(primitive(v))
    return tuple(vectors)
