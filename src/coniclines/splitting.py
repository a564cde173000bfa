"""Connected numbers of double covers and Zariski-pair certificates.

For a split of an arrangement into sub-curves B and C (disjoint, covering
all components, B of even degree, C nodal, B meeting C off its nodes with
local multiplicity 2 everywhere), the double cover branched along B pulls
C \\ B back to either 1 or 2 connected pieces.  The verdict reduces to
exact linear algebra: it is 2 exactly when some curve of degree deg(B)/2
passes through all points of B ∩ C without containing a component of C.
The curves containing a component c form c·S, the span of c times every
form of degree deg(B)/2 − deg c.  Over the rationals a nonzero space is
never a finite union of proper subspaces, so such a curve exists exactly
when the kernel K of the system lies in no c·S: one rank test per
component, rank(c·S + K) > dim c·S.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arrangement import Arrangement, SubCurve
from .incidence import ConjugatePair, SingularPoint, combinatorics, equivalences, singular_points
from .linalg import QMatrix, QVectorBasis, in_span, kernel_basis, rank
from .poly import HomPoly, ProjPoint, monomial_count, monomial_row, multiplication_image

INVARIANCE_AXIOM = (
    "invariance: the connected number of C for the double cover branched "
    "along B is preserved by any homeomorphism of the plane matching the "
    "(B, C) split (cited, not computed)"
)


class SplitHypothesisError(ValueError):
    """The (B, C) split violates a hypothesis of the splitting criterion."""


@dataclass(frozen=True)
class SplitHypothesisReport:
    b_even_degree: bool
    c_nodal_smooth: bool
    bc_disjoint_from_nodes_of_c: bool
    all_local_mults_two: bool
    intersection_points: tuple[ProjPoint, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        # each failed hypothesis adds at least one violation
        return not self.violations


def _validate_split(b: SubCurve, c: SubCurve) -> Arrangement:
    if b.arrangement is not c.arrangement:
        raise ValueError("B and C must be sub-curves of the same arrangement")
    a = b.arrangement
    bset, cset = set(b.labels), set(c.labels)
    if bset & cset:
        raise ValueError(f"B and C share components: {sorted(bset & cset)}")
    if bset | cset != set(a.labels):
        missing = sorted(set(a.labels) - bset - cset)
        raise ValueError(f"B and C do not cover the arrangement: missing {missing}")
    return a


def check_hypotheses(
    b: SubCurve, c: SubCurve, points: tuple[SingularPoint, ...]
) -> SplitHypothesisReport:
    """Evaluate the four hypotheses of the splitting criterion for (B, C) at these points."""
    _validate_split(b, c)
    bset, cset = set(b.labels), frozenset(c.labels)
    violations: list[str] = []

    b_even = b.degree % 2 == 0
    if not b_even:
        violations.append(f"deg B = {b.degree} is odd")

    # C alone must be nodal (its components are smooth by construction)
    c_nodal = True
    for pt in points:
        on_c = pt.restrict(cset)
        if on_c is not None and on_c.local_type.kind != "node":
            c_nodal = False
            violations.append(
                f"C has a {on_c.local_type.display()} at {pt.location}"
            )

    disjoint = True
    mults_two = True
    bc_points: list[ProjPoint] = []
    for pt in points:
        b_branches = pt.branches & bset
        c_branches = pt.branches & cset
        if not (b_branches and c_branches):
            continue
        if isinstance(pt.location, ConjugatePair):
            mults_two = False
            violations.append(
                f"B meets C at the irrational conjugate pair of {pt.location.line} "
                f"and {pt.location.conic}; rational support is required"
            )
            continue
        bc_points.append(pt.location)
        if len(c_branches) >= 2:
            disjoint = False
            violations.append(f"B passes through a singular point of C at {pt.location}")
        if pt.local_type.kind == "other":
            mults_two = False
            violations.append(
                f"unsupported local configuration ({pt.local_type.display()}) "
                f"on B ∩ C at {pt.location}"
            )
            continue
        local = sum(pt.mult(x, y) for x in b_branches for y in c_branches)
        if local != 2:
            mults_two = False
            violations.append(
                f"local intersection multiplicity of B and C at {pt.location} "
                f"is {local}, not 2"
            )

    return SplitHypothesisReport(
        b_even_degree=b_even,
        c_nodal_smooth=c_nodal,
        bc_disjoint_from_nodes_of_c=disjoint,
        all_local_mults_two=mults_two,
        intersection_points=tuple(sorted(bc_points)),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class LinearSystem:
    """Degree-n forms vanishing at a point set, as a kernel basis."""

    degree: int
    points: tuple[ProjPoint, ...]
    kernel: QVectorBasis

    @property
    def projective_dimension(self) -> int:
        return self.kernel.dim - 1


def through_points(n: int, pts: list[ProjPoint] | tuple[ProjPoint, ...]) -> LinearSystem:
    """Kernel of the |pts| × (n+1)(n+2)/2 monomial evaluation matrix."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    pts = tuple(pts)
    if len(set(pts)) != len(pts):
        dup = next(p for p in pts if pts.count(p) > 1)
        raise ValueError(f"duplicate point {dup}")
    cols = monomial_count(n)
    matrix = QMatrix.from_rows([monomial_row(n, p) for p in pts], cols=cols)
    return LinearSystem(n, pts, kernel_basis(matrix))


@dataclass(frozen=True)
class SplitAnalysis:
    """Everything the `split` command reports for one (B, C) split."""

    b_labels: tuple[str, ...]
    c_labels: tuple[str, ...]
    b_degree: int
    c_degree: int
    report: SplitHypothesisReport
    system: LinearSystem
    connected: int
    witness: HomPoly | None


def analyze_split(
    b: SubCurve, c: SubCurve, report: SplitHypothesisReport | None = None
) -> SplitAnalysis:
    """Hypotheses, linear system, connected number and witness of one split.

    The connected number is 2 when some curve of degree deg(B)/2 through
    all of B ∩ C is divisible by no component of C, and 1 otherwise.  The
    witness is such a curve, found by deterministic small random
    combinations of the kernel basis.
    """
    if report is None:
        report = check_hypotheses(b, c, singular_points(b.arrangement))
    if not report.ok:
        raise SplitHypothesisError(
            "splitting hypotheses violated: " + "; ".join(report.violations)
        )
    n = b.degree // 2
    system = through_points(n, report.intersection_points)
    kernel = system.kernel
    value, witness = 1, None
    if kernel.dim > 0:
        # a higher-degree component divides no degree-n form
        images = [multiplication_image(comp.form, n) for comp in c.components if comp.degree <= n]
        # both bases are independent, so every curve of the system contains
        # a component exactly when stacking the kernel onto its image adds no rank
        if all(
            rank(QMatrix.from_rows(img.vectors + kernel.vectors, cols=img.ambient_dim)) > img.dim
            for img in images
        ):
            value, witness = 2, _find_witness(n, kernel, images)
    return SplitAnalysis(
        b.labels, c.labels, b.degree, c.degree, report, system, value, witness
    )


def _find_witness(
    n: int, kernel: QVectorBasis, avoid: list[QVectorBasis], seed: int = 0
) -> HomPoly:
    rng = random.Random(seed)
    for _ in range(10_000):
        coeffs = [rng.randint(-9, 9) for _ in range(kernel.dim)]
        vec = [
            sum(coeffs[k] * kernel.vectors[k][i] for k in range(kernel.dim))
            for i in range(kernel.ambient_dim)
        ]
        if not any(vec):
            continue
        if all(not in_span(vec, img) for img in avoid):
            return HomPoly(n, vec).primitive()
    raise RuntimeError("no witness found; the subspace data is inconsistent")


@dataclass(frozen=True)
class ZariskiCertificate:
    """Outcome of the full candidate-Zariski-pair pipeline on two splits.

    `CandidatePair` means: the arrangements share their combinatorics,
    every equivalence respects the (B, C) split, and the two connected
    numbers differ.  The topological conclusion additionally relies on the
    cited invariance statement, which is listed as an axiom rather than
    recomputed.
    """

    equivalences_found: bool
    equivalence_count: int
    split_rigid: bool
    c_values: tuple[int, int]
    analyses: tuple[SplitAnalysis, SplitAnalysis]
    conclusion: str  # "CandidatePair" | "Inconclusive"
    axioms_used: tuple[str, ...]
    reasons: tuple[str, ...]


def zariski_certificate(
    a1: Arrangement,
    a2: Arrangement,
    split1: tuple[str, str],
    split2: tuple[str, str],
) -> ZariskiCertificate:
    """Run the whole pipeline: equivalences, rigidity, connected numbers."""
    b1 = a1.subcurve(split1[0])
    c1 = a1.subcurve(split1[1])
    b2 = a2.subcurve(split2[0])
    c2 = a2.subcurve(split2[1])
    # both reports first: a split error (ValueError) takes precedence over
    # the hypothesis violations that `analyze_split` raises below
    points1, points2 = singular_points(a1), singular_points(a2)
    report1, report2 = check_hypotheses(b1, c1, points1), check_hypotheses(b2, c2, points2)
    eqs = equivalences(combinatorics(a1, points1), combinatorics(a2, points2))
    found = bool(eqs)
    reasons: list[str] = []
    if not found:
        reasons.append("the arrangements are combinatorially distinct")

    rigid = found and eqs.map_onto(c1.labels, c2.labels)
    if found and not rigid:
        reasons.append("some equivalence does not preserve the (B, C) split")

    an1 = analyze_split(b1, c1, report1)
    an2 = analyze_split(b2, c2, report2)
    values = (an1.connected, an2.connected)
    if values[0] == values[1]:
        reasons.append(f"connected numbers agree ({values[0]} = {values[1]})")

    conclusion = (
        "CandidatePair" if found and rigid and values[0] != values[1] else "Inconclusive"
    )
    return ZariskiCertificate(
        equivalences_found=found,
        equivalence_count=len(eqs),
        split_rigid=rigid,
        c_values=values,
        analyses=(an1, an2),
        conclusion=conclusion,
        axioms_used=(INVARIANCE_AXIOM,),
        reasons=tuple(reasons),
    )


def certificate_report(
    cert: ZariskiCertificate, name1: str = "arrangement 1", name2: str = "arrangement 2"
) -> str:
    """Stable text form of a certificate, for the CLI and golden files."""
    lines = ["zariski certificate"]
    for name, an in ((name1, cert.analyses[0]), (name2, cert.analyses[1])):
        lines.append(f"  {name}:")
        lines.append(f"    B = {{{', '.join(an.b_labels)}}}  (degree {an.b_degree})")
        lines.append(f"    C = {{{', '.join(an.c_labels)}}}  (degree {an.c_degree})")
        lines.append(f"    B ∩ C: {len(an.report.intersection_points)} rational points")
        lines.append(
            f"    curves of degree {an.system.degree} through them: "
            f"projective dimension {an.system.projective_dimension}"
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
    for ax in cert.axioms_used:
        lines.append(f"    - {ax}")
    return "\n".join(lines) + "\n"
