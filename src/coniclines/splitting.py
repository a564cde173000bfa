"""Connected numbers of double covers and Zariski-pair certificates.

For a split of an arrangement into sub-curves B and C (disjoint, covering
all components, B of even degree, C nodal, B meeting C off its nodes with
local multiplicity 2 everywhere), the double cover branched along B pulls
C \\ B back to either 1 or 2 connected pieces.  The verdict reduces to
exact algebra: it is 2 exactly when some curve of degree deg(B)/2
passes through all points of B ∩ C without containing a component of C.
The curves through the points form the kernel K of an evaluation matrix,
and those containing a component c are its multiples.  Over the rationals
a nonzero space is never a finite union of proper subspaces, so such a
curve exists exactly when, for every component c, some basis vector of K
is not divisible by c: one exact polynomial division per basis vector and
component, and one elimination per split, for K itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .arrangement import Arrangement, HypothesisError, check_subcurve
from .incidence import Combinatorics, ConjugatePair, combinatorics, equivalences
from .linalg import QMatrix, QVector, kernel_basis
from .poly import HomPoly, ProjPoint, divides, monomial_count, monomial_row

INVARIANCE_AXIOM = (
    "invariance: the connected number of C for the double cover branched "
    "along B is preserved by any homeomorphism of the plane matching the "
    "(B, C) split (cited, not computed)"
)


@dataclass(frozen=True)
class SplitHypothesisReport:
    """The rational points of B ∩ C, sorted, and one message per failed hypothesis."""

    intersection_points: tuple[ProjPoint, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_hypotheses(
    comb: Combinatorics, b: tuple[str, ...], c: tuple[str, ...]
) -> SplitHypothesisReport:
    """Evaluate the four hypotheses of the splitting criterion for (B, C) on a structure.

    B and C are label tuples.  A split that is not a partition of the
    arrangement into two nonempty sides is an input error (ValueError),
    raised before any hypothesis is evaluated.  A conjugate pair meeting
    both sides is one violation, not one per point.
    """
    labels = set(comb.labels)
    check_subcurve(labels, "B", b)
    check_subcurve(labels, "C", c)
    bset, cset = set(b), frozenset(c)
    if bset & cset:
        raise ValueError(f"B and C share components: {sorted(bset & cset)}")
    missing = labels - bset - cset
    if missing:
        raise ValueError(f"B and C do not cover the arrangement: missing {sorted(missing)}")

    violations: list[str] = []
    b_degree = sum(d for l, d in comb.degrees if l in bset)
    if b_degree % 2:
        violations.append(f"deg B = {b_degree} is odd")

    # C alone must be nodal (its components are smooth by construction)
    for pt in comb.points:
        on_c = pt.restrict(cset)
        if on_c is not None and on_c.local_type.kind != "node":
            name = on_c.local_type.display()
            article = "an" if name[0] in "aeiou" else "a"
            violations.append(f"C has {article} {name} at {pt.location}")

    bc_points: list[ProjPoint] = []
    for pt in comb.points:
        b_branches = pt.branches & bset
        c_branches = pt.branches & cset
        if not (b_branches and c_branches):
            continue
        if isinstance(pt.location, ConjugatePair):
            message = (
                f"B meets C at the irrational conjugate pair of {pt.location.line} "
                f"and {pt.location.conic}; rational support is required"
            )
            if message not in violations:  # once for the two records of the pair
                violations.append(message)
            continue
        bc_points.append(pt.location)
        if len(c_branches) >= 2:
            violations.append(f"B passes through a singular point of C at {pt.location}")
        if pt.local_type.kind == "other":
            violations.append(
                f"unsupported local configuration ({pt.local_type.display()}) "
                f"on B ∩ C at {pt.location}"
            )
            continue
        local = sum(pt.mult(x, y) for x in b_branches for y in c_branches)
        if local != 2:
            violations.append(
                f"local intersection multiplicity of B and C at {pt.location} "
                f"is {local}, not 2"
            )

    return SplitHypothesisReport(tuple(sorted(bc_points)), tuple(violations))


def through_points(n: int, pts: list[ProjPoint] | tuple[ProjPoint, ...]) -> tuple[QVector, ...]:
    """A basis of the kernel of the |pts| × (n+1)(n+2)/2 monomial evaluation matrix.

    It spans the degree-n forms vanishing at pts, a linear system of
    projective dimension `len(basis) - 1`.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    pts = tuple(pts)
    if len(set(pts)) != len(pts):
        dup = next(p for p in pts if pts.count(p) > 1)
        raise ValueError(f"duplicate point {dup}")
    return kernel_basis(QMatrix.from_rows([monomial_row(n, p) for p in pts], monomial_count(n)))


@dataclass(frozen=True)
class SplitAnalysis:
    """Everything the `split` command reports for one (B, C) split.

    `intersection_points` are the points of B ∩ C, sorted, and `kernel` is a
    basis of the curves of degree b_degree // 2 through all of them.
    """

    b_labels: tuple[str, ...]
    c_labels: tuple[str, ...]
    b_degree: int
    c_degree: int
    intersection_points: tuple[ProjPoint, ...]
    kernel: tuple[QVector, ...]
    witness: HomPoly | None

    @property
    def connected(self) -> int:
        """2 exactly when a witness curve exists."""
        return 1 if self.witness is None else 2


def analyze_split(
    a: Arrangement,
    b: tuple[str, ...],
    c: tuple[str, ...],
    report: SplitHypothesisReport | None = None,
) -> SplitAnalysis:
    """Hypotheses, kernel, connected number and witness of one split.

    The connected number is 2 when some curve of degree deg(B)/2 through
    all of B ∩ C is divisible by no component of C, and 1 otherwise.  The
    witness is such a curve: the first seeded small random combination of
    the kernel basis that is one, else the first such moment-curve point.
    """
    if report is None:
        report = check_hypotheses(combinatorics(a), b, c)
    if not report.ok:
        raise HypothesisError(
            "splitting hypotheses violated: " + "; ".join(report.violations)
        )
    b_degree = a.degree_of(b)
    n = b_degree // 2
    kernel = through_points(n, report.intersection_points)
    # a higher-degree component divides no degree-n form
    forms = [comp.form for comp in map(a.component, c) if comp.degree <= n]
    witness = None
    # every curve of the system contains a component exactly when one
    # component divides every basis vector of the kernel
    if kernel and all(any(not divides(f, v, n) for v in kernel) for f in forms):
        witness = _find_witness(n, kernel, forms)
    return SplitAnalysis(
        b, c, b_degree, a.degree_of(c), report.intersection_points, kernel, witness
    )


def _find_witness(n: int, kernel: tuple[QVector, ...], avoid: list[HomPoly]) -> HomPoly:
    # 10,000 seeded small draws first, then the moment curve (1, t, ..., t^(d-1)):
    # any d of its points are independent (Vandermonde), and the curves of
    # the system that a form in `avoid` divides are a proper subspace, so
    # each form divides at most d - 1 of them: one of the first
    # len(avoid) * (d - 1) + 1 points is a witness
    rng, d = random.Random(0), len(kernel)
    draws = ([rng.randint(-9, 9) for _ in range(d)] for _ in range(10_000))
    moment = ([t**k for k in range(d)] for t in range(len(avoid) * (d - 1) + 1))
    for coeffs in itertools.chain(draws, moment):
        vec = [sum(k * v[i] for k, v in zip(coeffs, kernel)) for i in range(monomial_count(n))]
        if any(vec) and not any(divides(f, vec, n) for f in avoid):
            return HomPoly(n, vec).primitive()
    raise AssertionError("unreachable: the moment curve leaves every proper subspace")


@dataclass(frozen=True)
class ZariskiCertificate:
    """Outcome of the full candidate-Zariski-pair pipeline on two splits.

    `CandidatePair` means: the arrangements share their combinatorics,
    every equivalence respects the (B, C) split, and the two connected
    numbers differ.  The connected numbers are those of `analyses`.  The
    topological conclusion additionally relies on the cited invariance
    statement `INVARIANCE_AXIOM`, which the report lists rather than
    recomputes.  The verdict and its reasons are derived from the evidence.
    """

    equivalence_count: int
    split_rigid: bool  # false when no equivalence was found
    analyses: tuple[SplitAnalysis, SplitAnalysis]

    @property
    def reasons(self) -> tuple[str, ...]:
        """Why the pair is not a candidate, in pipeline order; empty when it is."""
        reasons = []
        if not self.equivalence_count:
            reasons.append("the arrangements are combinatorially distinct")
        elif not self.split_rigid:
            reasons.append("some equivalence does not preserve the (B, C) split")
        v1, v2 = (an.connected for an in self.analyses)
        if v1 == v2:
            reasons.append(f"connected numbers agree ({v1} = {v2})")
        return tuple(reasons)

    @property
    def conclusion(self) -> str:
        return "Inconclusive" if self.reasons else "CandidatePair"


def zariski_certificate(
    a1: Arrangement,
    a2: Arrangement,
    split1: tuple[str, str],
    split2: tuple[str, str],
) -> ZariskiCertificate:
    """Run the whole pipeline: equivalences, rigidity, connected numbers."""
    b1, c1 = map(a1.subcurve, split1)
    b2, c2 = map(a2.subcurve, split2)
    # both reports first: a split error (ValueError) takes precedence over
    # the hypothesis violations that `analyze_split` raises below
    comb1, comb2 = combinatorics(a1), combinatorics(a2)
    report1 = check_hypotheses(comb1, b1, c1)
    report2 = check_hypotheses(comb2, b2, c2)
    eqs = equivalences(comb1, comb2)
    rigid = bool(eqs) and eqs.map_onto(c1, c2)
    an1 = analyze_split(a1, b1, c1, report1)
    an2 = analyze_split(a2, b2, c2, report2)
    return ZariskiCertificate(len(eqs), rigid, (an1, an2))


def certificate_report(cert: ZariskiCertificate, name1: str, name2: str) -> str:
    """Stable text form of a certificate, for the CLI and golden files."""
    lines = ["zariski certificate"]
    for name, an in ((name1, cert.analyses[0]), (name2, cert.analyses[1])):
        lines.append(f"  {name}:")
        lines.append(f"    B = {{{', '.join(an.b_labels)}}}  (degree {an.b_degree})")
        lines.append(f"    C = {{{', '.join(an.c_labels)}}}  (degree {an.c_degree})")
        count = len(an.intersection_points)
        lines.append(f"    B ∩ C: {count} rational point{'' if count == 1 else 's'}")
        lines.append(
            f"    curves of degree {an.b_degree // 2} through them: "
            f"projective dimension {len(an.kernel) - 1}"
        )
        lines.append(f"    connected number: {an.connected}")
        if an.witness is not None:
            lines.append(f"    witness curve: {an.witness}")
    lines.append(f"  combinatorial equivalences: {cert.equivalence_count}")
    lines.append(f"  split preserved by every equivalence: {'yes' if cert.split_rigid else 'no'}")
    lines.append(f"  conclusion: {cert.conclusion}")
    for r in cert.reasons:
        lines.append(f"    reason: {r}")
    lines.append("  axioms used:")
    lines.append(f"    - {INVARIANCE_AXIOM}")
    return "\n".join(lines) + "\n"
