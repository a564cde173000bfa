"""Homogeneous polynomials in x, y, z, and projective points.

Components and points are primitive-integer, so coefficients and
evaluations are plain ints throughout the package.

The monomial order is fixed once for the whole package: graded
lexicographic with x > y > z.  Every coefficient vector, evaluation row
and report uses it, so exact outputs are reproducible byte for byte.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

from .linalg import QVector, QVectorBasis, primitive

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
        return f"[{self.coords[0]} : {self.coords[1]} : {self.coords[2]}]"


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

    def coefficient(self, expo: tuple[int, int, int]):
        return self.coeffs[_monomial_index(self.degree)[expo]]

    def evaluate_triple(self, coords):
        """Value at a raw coordinate triple, without projective normalization."""
        px, py, pz = coords
        total = 0
        for (a, b, c), coeff in self.terms():
            total += coeff * (px**a) * (py**b) * (pz**c)
        return total

    def mul_monomial(self, expo: tuple[int, int, int]) -> "HomPoly":
        a, b, c = expo
        deg = self.degree + a + b + c
        index = _monomial_index(deg)
        coeffs = [0] * monomial_count(deg)
        for (a1, b1, c1), k in self.terms():
            coeffs[index[(a1 + a, b1 + b, c1 + c)]] = k
        return HomPoly(deg, coeffs)

    def primitive(self) -> "HomPoly":
        """Coefficients scaled to coprime integers, first nonzero positive."""
        return HomPoly(self.degree, primitive(self.coeffs))

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
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
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
    """(A, B, C) with q(s*u + t*w) = A s^2 + B s t + C t^2; B is the polar value of u and w."""
    a = q.evaluate_triple(u)
    c = q.evaluate_triple(w)
    return a, q.evaluate_triple(tuple(x + y for x, y in zip(u, w))) - a - c, c


def monomial_row(n: int, p: ProjPoint) -> QVector:
    """Row of all degree-n monomials evaluated at the canonical representative."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    px, py, pz = p.coords
    return tuple((px**a) * (py**b) * (pz**c) for a, b, c in monomials(n))


def multiplication_image(f: HomPoly, n: int) -> QVectorBasis:
    """Degree-n coefficient vectors of f * (every form of degree n - deg f).

    Multiplication by a nonzero form is injective, so the images of the
    degree-(n - deg f) monomials are a basis; its dimension is the full
    binomial count for that degree.
    """
    if f.is_zero():
        raise ValueError("zero form has no multiplication image")
    if f.degree > n:
        raise ValueError(f"degree overflow: deg f = {f.degree} > n = {n}")
    vectors = tuple(
        primitive(f.mul_monomial(expo).coeffs)
        for expo in monomials(n - f.degree)
    )
    return QVectorBasis(monomial_count(n), vectors)
