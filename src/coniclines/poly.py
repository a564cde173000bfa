"""Homogeneous polynomials in x, y, z, and projective points.

Components and points are primitive-integer, so coefficients and
evaluations are plain ints throughout the package.

The monomial order is fixed once for the whole package: graded
lexicographic with x > y > z.  Every coefficient vector, evaluation row
and report uses it, so exact outputs are reproducible byte for byte.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Mapping

from .linalg import QVector, primitive

VARIABLES = ("x", "y", "z")


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples (a, b, c), a+b+c = degree, in graded-lex order x > y > z."""
    if degree < 0:
        raise ValueError("negative degree")
    return tuple(
        (a, b, degree - a - b)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
    )


@lru_cache(maxsize=None)
def _monomial_index(degree: int) -> dict[tuple[int, int, int], int]:
    return {m: i for i, m in enumerate(monomials(degree))}


def monomial_count(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


def digits(n: int) -> str:
    """The decimal string of n, also past `sys.get_int_max_str_digits()` (Python 3.11+).

    The limit is process-wide, so it is left alone: a longer int is
    converted in 500-digit chunks, under the lowest limit allowed (640).
    """
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n:
        n, chunk = divmod(n, 10**500)
        chunks.append(chunk)
    head, *rest = reversed(chunks)
    return sign + str(head) + "".join(f"{chunk:0500d}" for chunk in rest)


class ProjPoint:
    """A point of the rational projective plane in canonical form.

    Coordinates are stored as coprime integers with the first nonzero one
    positive, so proportional triples compare and hash equal.
    """

    __slots__ = ("coords",)

    def __init__(self, x, y, z):
        coords = primitive((x, y, z))
        if not any(coords):
            raise ValueError("projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return self.coords < other.coords

    def __repr__(self):
        return f"[{' : '.join(digits(c) for c in self.coords)}]"


class HomPoly:
    """Homogeneous polynomial of fixed degree, dense coefficient vector."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Iterable):
        coeffs = tuple(coeffs)
        if len(coeffs) != monomial_count(degree):
            raise ValueError(
                f"degree {degree} needs {monomial_count(degree)} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("HomPoly is immutable")

    @classmethod
    def from_terms(cls, degree: int, terms: Mapping[tuple[int, int, int], object]) -> "HomPoly":
        index = _monomial_index(degree)
        coeffs = [0] * monomial_count(degree)
        for expo, coeff in terms.items():
            if expo not in index:
                raise ValueError(f"exponent {expo} is not of degree {degree}")
            coeffs[index[expo]] += coeff
        return cls(degree, coeffs)

    def terms(self):
        for expo, coeff in zip(monomials(self.degree), self.coeffs):
            if coeff:
                yield expo, coeff

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def primitive(self) -> "HomPoly":
        """Coefficients scaled to coprime integers, first nonzero positive; self if they are."""
        coeffs = primitive(self.coeffs)  # the same tuple when it is primitive already
        return self if coeffs is self.coeffs else HomPoly(self.degree, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, HomPoly)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return f"HomPoly({self.degree}, {self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for expo, coeff in self.terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(VARIABLES, expo) if e
            )
            mag = abs(coeff)
            if not mono:
                body = digits(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{digits(mag)}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


def cross(u, w) -> tuple:
    """The cross product of two triples: the line through two points, or the point on two lines."""
    return (
        u[1] * w[2] - u[2] * w[1],
        u[2] * w[0] - u[0] * w[2],
        u[0] * w[1] - u[1] * w[0],
    )


def restrict_to_line(q: HomPoly, u, w) -> tuple:
    """(A, B, C) with q(s*u + t*w) = A s^2 + B s t + C t^2 for a conic q; B is the polar value."""
    a, b, c, d, e, f = q.coeffs  # x^2, xy, xz, y^2, yz, z^2
    (u0, u1, u2), (w0, w1, w2) = u, w
    A = a * u0 * u0 + b * u0 * u1 + c * u0 * u2 + d * u1 * u1 + e * u1 * u2 + f * u2 * u2
    C = a * w0 * w0 + b * w0 * w1 + c * w0 * w2 + d * w1 * w1 + e * w1 * w2 + f * w2 * w2
    B = (
        2 * (a * u0 * w0 + d * u1 * w1 + f * u2 * w2)
        + b * (u0 * w1 + u1 * w0)
        + c * (u0 * w2 + u2 * w0)
        + e * (u1 * w2 + u2 * w1)
    )
    return A, B, C


def monomial_row(n: int, p: ProjPoint) -> QVector:
    """Row of all degree-n monomials evaluated at the canonical representative."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    px, py, pz = p.coords
    return tuple((px**a) * (py**b) * (pz**c) for a, b, c in monomials(n))


def divides(f: HomPoly, coeffs, n: int) -> bool:
    """True iff the form f divides the degree-n form with these coefficients.

    Division by the single form f: {f} is a Gröbner basis of (f), so the
    remainder is zero exactly when f divides (Cox, Little and O'Shea,
    "Ideals, Varieties, and Algorithms", §2.5).  Among forms of one degree
    the graded-lex order is lex, so each step takes the first nonzero
    coefficient left.  When the leading term of f does not divide its
    monomial, that term stays in the remainder and the answer is no.  The
    dividend is scaled by f's leading coefficient only when that does not
    divide the quotient coefficient, so the arithmetic stays in integers.
    """
    if f.is_zero():
        raise ValueError("the zero form divides nothing")
    (lead, lc), *rest = f.terms()
    index = _monomial_index(n)
    rem = list(coeffs)
    for i, expo in enumerate(monomials(n)):
        k = rem[i]
        if not k:
            continue
        shift = tuple(e - l for e, l in zip(expo, lead))
        if min(shift) < 0:
            return False
        if k % lc:
            scale = abs(lc) // math.gcd(k, lc)
            rem = [e * scale for e in rem]
            k *= scale
        q = k // lc
        rem[i] = 0
        for (a, b, c), coeff in rest:
            rem[index[(a + shift[0], b + shift[1], c + shift[2])]] -= q * coeff
    return True
