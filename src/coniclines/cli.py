"""Command-line interface.

Exit codes are a stable contract: 0 success (and CandidatePair), 1 input
error, 2 hypothesis violation, 3 inconclusive result, 4 internal error.
Commands raise; only `main` maps an exception to its exit code.
All output is deterministic, so every command is golden-file testable.
`main` can be called repeatedly in one process: the parser is built on the
first call, and commands are dispatched by name (`cmd_<command>`) at call time.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .arrangement import Arrangement, HypothesisError, parse, parse_rational
from .incidence import (
    ConjugatePair,
    LocalType,
    bezout_check,
    combinatorics,
    equivalences,
    singular_points,
)
from .moduli import minimality_check, minimality_report_text
from .poly import digits
from .render import WINDOW, render_svg
from .splitting import analyze_split, certificate_report, zariski_certificate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _load(path: str) -> Arrangement:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")
    return parse(text)


def _branch_set(labels, conic: str | None = None) -> str:
    # lines before the conic, as in the tables the reports are diffed against
    return "{" + ", ".join(sorted(labels, key=lambda l: (l == conic, l))) + "}"


def cmd_analyze(args) -> int:
    a = _load(args.file)
    out = []
    nlines = len(a.lines)
    head = ["1 conic"] if a.conic else []
    if nlines:
        head.append(f"{nlines} line{'s' if nlines != 1 else ''}")
    out.append(
        f"arrangement: {' + '.join(head) if head else 'empty'}"
        + (f", total degree {a.degree}" if a.components else "")
    )
    if a.components:
        out.append("components:")
        for c in a.components:
            out.append(f"  {c.label}: {c.kind}  {c.form}")
    if a.subcurves:
        out.append("sub-curves:")
        for name, members in a.subcurves.items():
            out.append(f"  {name} = {' '.join(members)}  (degree {a.degree_of(members)})")

    points = singular_points(a)
    conic = a.conic.label if a.conic else None
    if not points:
        out.append("no singular points")
    else:
        groups: dict[str, list] = {}
        for pt in points:
            groups.setdefault(pt.local_type.display(), []).append(pt)
        order = sorted(
            groups,
            key=lambda k: (
                {"tacnode": 1, "node": 2}.get(k, 0 if "ordinary" in k else 3),
                k,
            ),
        )
        out.append("singular points:")
        for key in order:
            pts = groups[key]
            count = sum(p.point_count for p in pts)
            name = pts[0].local_type.display(plural=True)
            if key == "node":
                rational = [p for p in pts if p.is_rational]
                conj = [p for p in pts if not p.is_rational]
                detail = f"{len(rational)} rational"
                if conj:
                    detail += f" + {len(conj)} conjugate pair{'s' if len(conj) != 1 else ''}"
                out.append(f"  {name} ({count}: {detail}):")
            else:
                out.append(f"  {name} ({count}):")
            for p in pts:
                if p.is_rational:
                    out.append(f"    {_branch_set(p.branches, conic)} at {p.location}")
                else:
                    loc: ConjugatePair = p.location
                    out.append(
                        f"    {_branch_set(p.branches, conic)} conjugate pair, "
                        f"discriminant {digits(loc.discriminant)}"
                    )
    if a.components:
        npairs = len(a.components) * (len(a.components) - 1) // 2
        verdict = "OK" if bezout_check(a, points) else "FAILED"
        out.append(f"bezout check: {verdict} ({npairs} component pairs)")
    print("\n".join(out))
    return EXIT_OK


def _count_summary(counts: dict[LocalType, int]) -> str:
    ordered = sorted(counts.items(), key=lambda kv: kv[0].display())
    return ", ".join(f"{v} {t.display(plural=v != 1)}" for t, v in ordered) or "no singular points"


def _mapping(m: dict[str, str]) -> str:
    return ", ".join(f"{k}->{v}" for k, v in m.items())


def cmd_compare(args) -> int:
    a1, a2 = _load(args.file1), _load(args.file2)
    c1, c2 = combinatorics(a1), combinatorics(a2)
    out = [f"comparing {args.file1} and {args.file2}"]
    for name, a, c in ((args.file1, a1, c1), (args.file2, a2, c2)):
        summary = _count_summary(Counter(rec.local_type for rec in c.points))
        n = len(a.components)
        out.append(f"  {name}: {n} component{'s' if n != 1 else ''}; {summary}")
    eqs = equivalences(c1, c2)
    out.append(f"equivalences: {len(eqs)}")
    if eqs:  # every equivalence is φ∘g for g in the group the generators span
        out.append(f"  phi: {_mapping(eqs.phi)}")
        out.append(f"  automorphism generators of {args.file1}: {len(eqs.generators)}")
        out += [f"    {_mapping(g)}" for g in eqs.generators]
    else:
        out.append("  the arrangements are combinatorially distinct")
    for name, a, c in ((args.file1, a1, c1), (args.file2, a2, c2)):
        conic = a.conic
        if conic is not None:
            _, entries = c.fingerprints[conic.label]
            type_counts = Counter(LocalType(*key) for key, _others in entries)
            out.append(f"conic fingerprint of {name}: {_count_summary(type_counts)}")
    print("\n".join(out))
    return EXIT_OK


def cmd_split(args) -> int:
    a = _load(args.file)
    analysis = analyze_split(a, a.subcurve(args.branch), a.subcurve(args.curve))
    # analyze_split raises unless every hypothesis holds
    out = [
        f"split of {args.file}",
        f"  B = {_branch_set(analysis.b_labels)}  (degree {analysis.b_degree})",
        f"  C = {_branch_set(analysis.c_labels)}  (degree {analysis.c_degree})",
        "hypotheses:",
        "  B has even degree: yes",
        "  C is nodal with smooth components: yes",
        "  B meets C outside the nodes of C: yes",
        "  every local intersection multiplicity of B and C is 2: yes",
        f"intersection points ({len(analysis.intersection_points)}):",
    ]
    for p in analysis.intersection_points:
        out.append(f"  {p}")
    out.append(
        f"curves of degree {analysis.b_degree // 2} through all of them: "
        f"vector dimension {len(analysis.kernel)}, "
        f"projective dimension {len(analysis.kernel) - 1}"
    )
    out.append(f"connected number of C in the double cover branched along B: {analysis.connected}")
    if analysis.witness is not None:
        out.append("witness curve (through all points, contains no component of C):")
        out.append(f"  {analysis.witness}")
    print("\n".join(out))
    return EXIT_OK


def cmd_zariski(args) -> int:
    a1, a2 = _load(args.file1), _load(args.file2)
    cert = zariski_certificate(a1, a2, (args.branch1, args.curve1), (args.branch2, args.curve2))
    sys.stdout.write(certificate_report(cert, args.file1, args.file2))
    return EXIT_OK if cert.conclusion == "CandidatePair" else EXIT_INCONCLUSIVE


def cmd_minimality(args) -> int:
    report = minimality_check(_load(args.file1), _load(args.file2))
    sys.stdout.write(minimality_report_text(report, args.file1, args.file2))
    return EXIT_OK if report.overall == "Minimal" else EXIT_INCONCLUSIVE


def cmd_render(args) -> int:
    a = _load(args.file)
    window = []
    for w in args.window or ():
        try:
            window.append(Fraction(*parse_rational(w)))
        except ValueError:
            raise ValueError(f"--window takes integers or fractions p/q, got {w!r}") from None
    # render_svg refuses a degenerate window with a ValueError, which main reports
    svg = render_svg(a, args.chart, tuple(window) or WINDOW)
    try:
        Path(args.output).write_text(svg, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: {exc.strerror}")
    print(f"wrote {args.output}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coniclines",
        description="Exact analysis of conic-line arrangements in the projective plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="components, singular points, Bezout checks")
    p.add_argument("file")

    p = sub.add_parser("compare", help="combinatorial equivalences of two arrangements")
    p.add_argument("file1")
    p.add_argument("file2")

    p = sub.add_parser("split", help="hypotheses, linear system and connected number")
    p.add_argument("file")
    p.add_argument("--branch", required=True, help="name of the branching sub-curve B")
    p.add_argument("--curve", required=True, help="name of the covered sub-curve C")

    p = sub.add_parser("zariski", help="candidate Zariski-pair certificate")
    p.add_argument("file1")
    p.add_argument("file2")
    for option in ("--branch1", "--curve1", "--branch2", "--curve2"):
        p.add_argument(option, required=True)

    p = sub.add_parser("minimality", help="certify that no proper sub-pair is a Zariski pair")
    p.add_argument("file1")
    p.add_argument("file2")

    p = sub.add_parser("render", help="SVG picture of the real points")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--window", nargs=4, metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.add_argument("--chart", choices=("x", "y", "z"), default="z")
    # argparse takes only -N and -N.N for negative numbers, so a bound such
    # as -1/2 would be read as an option; render has no option like -1.
    # This sets a private argparse attribute (the pattern Python 3.13 uses);
    # test_render_negative_fraction_window guards it
    p._negative_number_matcher = re.compile(r"^-\.?\d")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and point the descriptor
        # at devnull so the flush at interpreter exit cannot fail again;
        # like a failed write of a render, this is an exit-1 error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a fault of the program: one line (repr escapes newlines) naming where it was raised
        site = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(site.filename).name}:{site.lineno}"
        print(f"internal error: {exc!r} at {where}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
