"""Exact analysis of conic-line arrangements in the complex projective plane.

Exact integer arithmetic end to end: incidence combinatorics, linear systems
through prescribed points, connected numbers of double covers, candidate
Zariski-pair certificates, and realization-space minimality reports.
"""

from .arrangement import (
    Arrangement,
    Component,
    HypothesisError,
    ParseError,
    parse,
)
from .incidence import (
    Combinatorics,
    ConjugatePair,
    Equivalences,
    SingularPoint,
    combinatorics,
    equivalences,
    intersect_line_conic,
    intersect_lines,
    singular_points,
)
from .linalg import QMatrix, kernel_basis
from .moduli import (
    MinimalityReport,
    OrderingCertificate,
    connectivity_certificate,
    minimality_check,
    n_value,
)
from .poly import HomPoly, ProjPoint, divides, monomial_row, monomials
from .splitting import (
    SplitHypothesisReport,
    ZariskiCertificate,
    check_hypotheses,
    through_points,
    zariski_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "Combinatorics",
    "Component",
    "ConjugatePair",
    "Equivalences",
    "HomPoly",
    "HypothesisError",
    "MinimalityReport",
    "OrderingCertificate",
    "ParseError",
    "ProjPoint",
    "QMatrix",
    "SingularPoint",
    "SplitHypothesisReport",
    "ZariskiCertificate",
    "check_hypotheses",
    "combinatorics",
    "connectivity_certificate",
    "divides",
    "equivalences",
    "intersect_line_conic",
    "intersect_lines",
    "kernel_basis",
    "minimality_check",
    "monomial_row",
    "monomials",
    "n_value",
    "parse",
    "singular_points",
    "through_points",
    "zariski_certificate",
]
