"""Realization-space connectivity certificates and the minimality driver.

A combinatorics class whose realization space is connected cannot split
into a Zariski pair.  Two certification routes are used, both recorded as
explicit assumptions in the reports:

  * pure line arrangements with at most 9 lines never form a Zariski pair
    (cited classification result);
  * for a conic with at most two tangent lines as base, adding the
    remaining lines one at a time so that each new line meets the previous
    curve with at most two points of local multiplicity >= 2 keeps the
    realization space irreducible (cited sufficient criterion).

The build order is found by peeling.  n_value(c, l, prior) can only grow
as `prior` grows, so removing a line with n <= 2 against all the other
lines keeps every build order of the rest valid.  Peeling such lines off
the full set one at a time and placing each last (smallest-last ordering,
Matula & Beck, J. ACM 30, 1983) therefore finds an order whenever one
exists, in at most k(k+1)/2 n-value tests for k transversal lines.
Failure is reported as Unknown, never as "not minimal".

The minimality sweep groups sub-curves into classes by links: an
equivalence restricted to any sub-curve of its domain is an equivalence
of the restrictions, because restricting a point record and relabelling
it commute.  So each automorphism generator, and each equivalence found
between two sub-curves, joins every sub-curve of its domain to its
image with no restriction and no search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .arrangement import Arrangement, HypothesisError
from .incidence import Combinatorics, combinatorics, equivalences

AXIOM_LINES = (
    "line arrangements with at most 9 lines form no Zariski pair "
    "(Nazir-Yoshinaga / Fei classification; cited, not computed)"
)
AXIOM_BASE = (
    "a smooth conic together with its at most two tangent lines has an "
    "irreducible realization space (cited, not computed)"
)
AXIOM_ORDERING = (
    "adding a line transversal to the conic with n_t <= 2 keeps the "
    "realization space irreducible, so connected realization spaces admit "
    "no Zariski pair (cited sufficient criterion, not computed)"
)


@dataclass(frozen=True)
class OrderingCertificate:
    """A certified build order for a (k,1) or pure-line combinatorics.

    For `ConicWithTangents` the base is the conic plus its tangent lines
    and `order` lists the transversal lines in a verified order with their
    n-values.  For `PureLinesAtMost9` the base is the whole arrangement
    and the order is empty.
    """

    base: tuple[str, ...]
    order: tuple[str, ...]
    n_values: tuple[int, ...]
    base_rule: str  # "ConicWithTangents" | "PureLinesAtMost9"


def n_value(c: Combinatorics, line: str, prior: set[str] | frozenset[str]) -> int:
    """Points where the line meets the prior sub-arrangement with multiplicity >= 2.

    A point counts when it carries at least two prior branches, or when
    the line is tangent there to a prior conic (pairwise multiplicity 2).
    Purely combinatorial: only the point records of c are consulted.
    """
    labels = set(c.labels)
    prior = frozenset(prior)
    if line not in labels:
        raise KeyError(f"unknown label {line!r}")
    unknown = prior - labels
    if unknown:
        raise KeyError(f"unknown label {sorted(unknown)[0]!r}")
    if line in prior:
        raise ValueError(f"line {line} is already in the prior set")
    count = 0
    for rec in c.points:
        if line not in rec.branches:
            continue
        prior_branches = rec.branches & prior
        if len(prior_branches) >= 2 or any(rec.mult(line, p) >= 2 for p in prior_branches):
            count += 1
    return count


def _tangent_lines(c: Combinatorics, conic: str) -> list[str]:
    tangencies = {pair for r in c.points for pair, m in r.pair_mults if m >= 2 and conic in pair}
    return sorted(l for pair in tangencies for l in pair if l != conic)


def connectivity_certificate(c: Combinatorics) -> OrderingCertificate | None:
    """Certify that the realization space of c is connected, or return None.

    None means Unknown: the sufficient criterion did not apply, which
    claims nothing either way.
    """
    conics = [l for l, d in c.degrees if d == 2]
    lines = [l for l, d in c.degrees if d == 1]
    if len(conics) > 1:
        raise ValueError("at most one conic is supported")
    if not conics:
        if len(lines) <= 9:
            return OrderingCertificate(
                base=tuple(lines), order=(), n_values=(), base_rule="PureLinesAtMost9"
            )
        return None

    conic = conics[0]
    tangents = _tangent_lines(c, conic)
    if len(tangents) > 2:
        return None
    base = (conic, *tangents)
    rest = sorted(set(lines) - set(tangents), reverse=True)

    # peel from the top: a line with n <= 2 against every other placed line
    # can come last, and `top - {l}` is then exactly its prior set
    top = {conic, *lines}
    order, n_values = [], []
    while rest:
        for l in rest:
            n = n_value(c, l, top - {l})
            if n <= 2:
                break
        else:
            return None
        rest.remove(l)
        top.remove(l)
        order.insert(0, l)
        n_values.insert(0, n)
    return OrderingCertificate(
        base=base, order=tuple(order), n_values=tuple(n_values), base_rule="ConicWithTangents"
    )


def replay_certificate(c: Combinatorics, cert: OrderingCertificate) -> bool:
    """Re-validate a certificate against the combinatorics it claims to certify.

    A malformed certificate (a label missing, unknown or listed twice, or
    an n-value count that differs from the order's length) is rejected.
    """
    if sorted((*cert.base, *cert.order)) != sorted(c.labels):
        return False
    if len(cert.order) != len(cert.n_values):
        return False
    if cert.base_rule == "PureLinesAtMost9":
        return all(d == 1 for _, d in c.degrees) and len(c.degrees) <= 9 and not cert.order
    conics = [l for l, d in c.degrees if d == 2]
    if len(conics) != 1 or list(cert.base[:1]) != conics:
        return False
    if set(cert.base[1:]) != set(_tangent_lines(c, conics[0])) or len(cert.base) > 3:
        return False
    prior = set(cert.base)
    for line, expected in zip(cert.order, cert.n_values):
        if n_value(c, line, prior) != expected or expected > 2:
            return False
        prior.add(line)
    return True


@dataclass(frozen=True)
class DeletionResult:
    deleted: str
    partner: str
    certificate: OrderingCertificate | None


@dataclass(frozen=True)
class SharedClassResult:
    """One combinatorics class of proper sub-curves occurring on both sides."""

    representative: tuple[str, ...]  # labels in arrangement 1
    count: int  # sub-curves in the class, on each side
    certificate: OrderingCertificate | None


@dataclass(frozen=True)
class MinimalityReport:
    deletions: tuple[DeletionResult, ...]
    shared_classes: tuple[SharedClassResult, ...]

    @property
    def overall(self) -> str:
        """Minimal when every shared class is certified, else Unknown."""
        certified = all(s.certificate is not None for s in self.shared_classes)
        return "Minimal" if certified else "Unknown"

    @property
    def axioms_used(self) -> tuple[str, ...]:
        """The axioms the found certificates rest on, sorted."""
        axioms: set[str] = set()
        for result in (*self.deletions, *self.shared_classes):
            cert = result.certificate
            if cert is not None:
                axioms.add(AXIOM_LINES if cert.base_rule == "PureLinesAtMost9" else AXIOM_BASE)
                if cert.order:
                    axioms.add(AXIOM_ORDERING)
        return tuple(sorted(axioms))


def minimality_check(a1: Arrangement, a2: Arrangement) -> MinimalityReport:
    """Certify that no pair of proper sub-curves can form a Zariski pair.

    Every proper sub-curve of arrangement 1 is enumerated, from n-1
    components down to 1, and grouped into classes of equivalent
    combinatorics, each certified via `connectivity_certificate`.  A
    sub-curve linked to an earlier one (see the module docstring) joins
    its class unrestricted; any other is restricted and looked up.  Each
    class keeps its first sub-curve in `itertools.combinations` order.
    Arrangement 2 needs no sweep of its own:
    an equivalence maps every sub-curve S of arrangement 1 to one of
    arrangement 2 with equivalent combinatorics, so each class occurs on
    both sides, equally often.  The result is Minimal only when every
    shared class is certified; any failure yields Unknown (an honest
    "could not certify", never "not minimal").
    """
    c_full1, c_full2 = combinatorics(a1), combinatorics(a2)
    eqs = equivalences(c_full1, c_full2)
    if not eqs:
        raise HypothesisError("minimality requires combinatorially equivalent arrangements")
    labels = c_full1.labels
    whole = frozenset(labels)

    # headline: single-component deletions, matched through φ; the sweep reuses them
    dropped = {whole - {l}: c_full1.restrict(whole - {l}) for l in labels}
    certs = {sub: connectivity_certificate(comb) for sub, comb in dropped.items()}
    deletions = [DeletionResult(l, eqs.phi[l], certs[whole - {l}]) for l in labels]

    # each sub-curve a bit mask over `labels`; φ is a bijection, so `link`
    # joins sub-curves of one size only, and a map found at size r links the
    # sizes below r before they are swept.  Buckets are keyed by the multiset
    # of label fingerprints, an invariant `equivalences` checks first
    bit = {l: 1 << i for i, l in enumerate(labels)}
    parent: dict[int, int] = {}  # non-root mask -> a mask nearer its root

    def find(m: int) -> int:
        while m in parent:
            parent[m] = parent.get(parent[m], parent[m])  # path halving
            m = parent[m]
        return m

    def link(phi: Mapping[str, str]):
        masks, images = [0], [0]  # every subset of the domain, and its image
        for l, image in phi.items():
            masks += [m | bit[l] for m in masks]
            images += [m | bit[image] for m in images]
        for m, im in zip(masks, images):
            if m != im:  # a subset φ fixes needs no link
                root, image_root = find(m), find(im)
                if root != image_root:
                    parent[root] = image_root

    for g in eqs.generators:
        link(g)
    buckets: dict[tuple, list[dict]] = {}  # key -> [{comb, labels, count}]
    owner: dict[int, dict] = {}  # union-find root -> its class
    for r in range(len(labels) - 1, 0, -1):
        for subset in itertools.combinations(labels, r):
            m = sum(bit[l] for l in subset)
            cls = owner.get(find(m))
            if cls is None:
                key = frozenset(subset)
                comb = dropped[key] if key in dropped else c_full1.restrict(subset)
                bucket = buckets.setdefault(tuple(sorted(comb.fingerprints.values())), [])
                for cls in bucket:
                    phi = equivalences(comb, cls["comb"], find_all=False).phi
                    if phi is not None:
                        link(phi)
                        break
                else:
                    cls = {"comb": comb, "labels": subset, "count": 0}
                    bucket.append(cls)
                    if key not in certs:
                        certs[key] = connectivity_certificate(comb)
                owner[find(m)] = cls
            cls["count"] += 1

    shared = [
        SharedClassResult(cls["labels"], cls["count"], certs[frozenset(cls["labels"])])
        for bucket in buckets.values()
        for cls in bucket
    ]
    shared.sort(key=lambda s: (len(s.representative), s.representative))
    return MinimalityReport(tuple(deletions), tuple(shared))


def minimality_report_text(report: MinimalityReport, name1: str, name2: str) -> str:
    lines = ["minimality report"]
    lines.append(f"  pair: {name1} / {name2}")
    lines.append("  single-component deletions:")
    for d in report.deletions:
        if d.certificate is None:
            verdict = "UNKNOWN (no certificate found)"
        elif d.certificate.base_rule == "PureLinesAtMost9":
            verdict = f"certified: {len(d.certificate.base)} lines, at-most-9-lines axiom"
        else:
            order = ", ".join(
                f"{l} (n={n})" for l, n in zip(d.certificate.order, d.certificate.n_values)
            )
            verdict = (
                f"certified: base {{{', '.join(d.certificate.base)}}}"
                + (f", order {order}" if order else ", no further lines")
            )
        lines.append(f"    delete {d.deleted} / {d.partner}: {verdict}")
    certified = sum(1 for s in report.shared_classes if s.certificate is not None)
    lines.append(
        f"  proper sub-curve classes shared by both arrangements: "
        f"{len(report.shared_classes)} ({certified} certified)"
    )
    for s in report.shared_classes:
        if s.certificate is None:
            lines.append(
                f"    UNKNOWN: class of {{{', '.join(s.representative)}}} "
                f"({s.count} / {s.count} sub-curves)"
            )
    lines.append(f"  overall: {report.overall}")
    lines.append("  axioms used:")
    for ax in report.axioms_used:
        lines.append(f"    - {ax}")
    return "\n".join(lines) + "\n"
