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

The ordering search is exhaustive backtracking; failure is reported as
Unknown, never as "not minimal".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .arrangement import Arrangement
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
    rest = sorted(set(lines) - set(tangents))

    # `remaining` is `rest` minus `prior`, so a state that failed once
    # fails again; remembering them bounds the search by 2^len(rest) states
    dead: set[frozenset[str]] = set()

    def extend(prior: frozenset[str], remaining: list[str]) -> tuple[list[str], list[int]] | None:
        if not remaining:
            return [], []
        if prior in dead:
            return None
        for l in remaining:
            n = n_value(c, l, prior)
            if n > 2:
                continue
            tail = extend(prior | {l}, [m for m in remaining if m != l])
            if tail is not None:
                return [l] + tail[0], [n] + tail[1]
        dead.add(prior)
        return None

    found = extend(frozenset(base), rest)
    if found is None:
        return None
    order, n_values = found
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

    @property
    def certified(self) -> bool:
        return self.certificate is not None


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
    overall: str  # "Minimal" | "Unknown"
    axioms_used: tuple[str, ...]


def minimality_check(a1: Arrangement, a2: Arrangement) -> MinimalityReport:
    """Certify that no pair of proper sub-curves can form a Zariski pair.

    Every proper sub-curve of arrangement 1 is enumerated and grouped into
    classes of equivalent combinatorics, each certified via
    `connectivity_certificate`.  Arrangement 2 needs no sweep of its own:
    an equivalence maps every sub-curve S of arrangement 1 to one of
    arrangement 2 with equivalent combinatorics, so each class occurs on
    both sides, equally often.  The result is Minimal only when every
    shared class is certified; any failure yields Unknown (an honest
    "could not certify", never "not minimal").
    """
    c_full1, c_full2 = combinatorics(a1), combinatorics(a2)
    eqs = equivalences(c_full1, c_full2)
    if not eqs:
        raise ValueError(
            "minimality requires combinatorially equivalent arrangements"
        )
    labels = c_full1.labels

    # headline: single-component deletions, matched through the equivalence φ
    deletions = [
        DeletionResult(l, eqs.phi[l], connectivity_certificate(c_full1.restrict(set(labels) - {l})))
        for l in labels
    ]

    # full sweep: every proper nonempty sub-curve of arrangement 1, grouped
    # into true combinatorial classes.  An automorphism g of arrangement 1
    # carries each sub-curve S onto g(S) with equivalent combinatorics, so
    # only the first sub-curve of each orbit is restricted and looked up,
    # and its class counts the whole orbit.  Classes are bucketed by the
    # multiset of label fingerprints, an invariant `equivalences` checks first
    buckets: dict[tuple, list[dict]] = {}  # key -> [{comb, labels, count}]
    seen: set[frozenset[str]] = set()
    for r in range(1, len(labels)):
        for subset in itertools.combinations(labels, r):
            if frozenset(subset) in seen:
                continue
            orbit = eqs.orbit(subset)
            seen |= orbit
            comb = c_full1.restrict(subset)
            bucket = buckets.setdefault(tuple(sorted(comb.fingerprints.values())), [])
            for cls in bucket:
                if equivalences(comb, cls["comb"], find_all=False):
                    cls["count"] += len(orbit)
                    break
            else:
                bucket.append({"comb": comb, "labels": subset, "count": len(orbit)})

    shared = [
        SharedClassResult(cls["labels"], cls["count"], connectivity_certificate(cls["comb"]))
        for bucket in buckets.values()
        for cls in bucket
    ]
    shared.sort(key=lambda s: (len(s.representative), s.representative))
    return MinimalityReport(
        deletions=tuple(deletions),
        shared_classes=tuple(shared),
        overall="Minimal" if all(s.certificate is not None for s in shared) else "Unknown",
        axioms_used=_axioms_used(d.certificate for d in (*deletions, *shared)),
    )


def _axioms_used(certificates: Iterable[OrderingCertificate | None]) -> tuple[str, ...]:
    """The axioms the found certificates rest on, sorted."""
    axioms: set[str] = set()
    for cert in certificates:
        if cert is not None:
            axioms.add(AXIOM_LINES if cert.base_rule == "PureLinesAtMost9" else AXIOM_BASE)
            if cert.order:
                axioms.add(AXIOM_ORDERING)
    return tuple(sorted(axioms))


def minimality_report_text(
    report: MinimalityReport, name1: str = "arrangement 1", name2: str = "arrangement 2"
) -> str:
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
