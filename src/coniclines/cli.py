"""Command-line interface.

Exit codes are a stable contract: 0 success (and CandidatePair), 1 input
error, 2 hypothesis violation, 3 inconclusive result.  All output is
deterministic, so every command is golden-file testable.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .arrangement import Arrangement, parse
from .incidence import (
    ConjugatePair,
    LocalType,
    bezout_check,
    combinatorics,
    component_fingerprint,
    equivalences,
    singular_points,
)
from .moduli import minimality_check, minimality_report_text
from .render import RenderConfig, render_svg
from .splitting import (
    SplitHypothesisError,
    analyze_split,
    certificate_report,
    zariski_certificate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_INCONCLUSIVE = 3


def _load(path: str) -> Arrangement:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")
    return parse(text)


def _branch_set(labels, a: Arrangement | None = None) -> str:
    # lines before the conic, as in the tables the reports are diffed against
    if a is not None:
        key = lambda l: (a.component(l).kind == "conic", l)
    else:
        key = lambda l: l
    return "{" + ", ".join(sorted(labels, key=key)) + "}"


def cmd_analyze(args) -> int:
    a = _load(args.file)
    out = []
    nlines = len(a.lines)
    nconics = 1 if a.conic else 0
    head = []
    if nconics:
        head.append("1 conic")
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
            degree = a.subcurve(name).degree
            out.append(f"  {name} = {' '.join(members)}  (degree {degree})")

    points = singular_points(a)
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
                    out.append(f"    {_branch_set(p.branches, a)} at {p.location}")
                else:
                    loc: ConjugatePair = p.location
                    out.append(
                        f"    {_branch_set(p.branches, a)} conjugate pair, "
                        f"discriminant {loc.discriminant}"
                    )
    if a.components:
        npairs = len(a.components) * (len(a.components) - 1) // 2
        verdict = "OK" if bezout_check(a, points) else "FAILED"
        out.append(f"bezout check: {verdict} ({npairs} component pairs)")
    print("\n".join(out))
    return EXIT_OK


def _count_summary(counts: dict[LocalType, int]) -> str:
    ordered = sorted(counts.items(), key=lambda kv: kv[0].display())
    return ", ".join(f"{v} {t.display(plural=v != 1)}" for t, v in ordered)


def cmd_compare(args) -> int:
    a1, a2 = _load(args.file1), _load(args.file2)
    c1, c2 = combinatorics(a1), combinatorics(a2)
    out = [f"comparing {args.file1} and {args.file2}"]
    for name, a, c in ((args.file1, a1, c1), (args.file2, a2, c2)):
        summary = _count_summary(c.type_counts())
        n = len(a.components)
        out.append(f"  {name}: {n} component{'s' if n != 1 else ''}; {summary or 'no singular points'}")
    eqs = equivalences(c1, c2)
    out.append(f"equivalences: {len(eqs)}")
    for m in eqs:
        out.append("  " + ", ".join(f"{k}->{m[k]}" for k in c1.labels))
    if not eqs:
        out.append("  the arrangements are combinatorially distinct")
    for name, a, c in ((args.file1, a1, c1), (args.file2, a2, c2)):
        conic = a.conic
        if conic is not None:
            _, entries = component_fingerprint(c, conic.label)
            type_counts = Counter(LocalType(*key) for key, _others in entries)
            out.append(f"conic fingerprint of {name}: {_count_summary(type_counts)}")
    print("\n".join(out))
    return EXIT_OK


def cmd_split(args) -> int:
    a = _load(args.file)
    try:
        b = a.subcurve(args.branch)
        c = a.subcurve(args.curve)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    try:
        analysis = analyze_split(b, c)
    except SplitHypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    out = [
        f"split of {args.file}",
        f"  B = {_branch_set(analysis.b_labels)}  (degree {analysis.b_degree})",
        f"  C = {_branch_set(analysis.c_labels)}  (degree {analysis.c_degree})",
        "hypotheses:",
        f"  B has even degree: {'yes' if analysis.report.b_even_degree else 'no'}",
        f"  C is nodal with smooth components: {'yes' if analysis.report.c_nodal_smooth else 'no'}",
        "  B meets C outside the nodes of C: "
        + ("yes" if analysis.report.bc_disjoint_from_nodes_of_c else "no"),
        "  every local intersection multiplicity of B and C is 2: "
        + ("yes" if analysis.report.all_local_mults_two else "no"),
        f"intersection points ({len(analysis.report.intersection_points)}):",
    ]
    for p in analysis.report.intersection_points:
        out.append(f"  {p}")
    out.append(
        f"curves of degree {analysis.system.degree} through all of them: "
        f"vector dimension {analysis.system.kernel.dim}, "
        f"projective dimension {analysis.system.projective_dimension}"
    )
    out.append(f"connected number of C in the double cover branched along B: {analysis.connected}")
    if analysis.witness is not None:
        out.append("witness curve (through all points, contains no component of C):")
        out.append(f"  {analysis.witness}")
    print("\n".join(out))
    return EXIT_OK


def cmd_zariski(args) -> int:
    a1, a2 = _load(args.file1), _load(args.file2)
    try:
        cert = zariski_certificate(
            a1, a2, (args.branch1, args.curve1), (args.branch2, args.curve2)
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except SplitHypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    sys.stdout.write(certificate_report(cert, args.file1, args.file2))
    return EXIT_OK if cert.conclusion == "CandidatePair" else EXIT_INCONCLUSIVE


def cmd_minimality(args) -> int:
    a1, a2 = _load(args.file1), _load(args.file2)
    try:
        report = minimality_check(a1, a2)
    except ValueError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    sys.stdout.write(minimality_report_text(report, args.file1, args.file2))
    return EXIT_OK if report.overall == "Minimal" else EXIT_INCONCLUSIVE


def cmd_render(args) -> int:
    a = _load(args.file)
    window = []
    for w in args.window or ():
        try:
            window.append(Fraction(w))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--window takes integers or fractions p/q, got {w!r}") from None
    # RenderConfig rejects a degenerate window with a ValueError, which main reports
    cfg = (
        RenderConfig(chart=args.chart, window=tuple(window))
        if window
        else RenderConfig(chart=args.chart)
    )
    svg = render_svg(a, cfg)
    try:
        Path(args.output).write_text(svg, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coniclines",
        description="Exact analysis of conic-line arrangements in the projective plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="components, singular points, Bezout checks")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="combinatorial equivalences of two arrangements")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("split", help="hypotheses, linear system and connected number")
    p.add_argument("file")
    p.add_argument("--branch", required=True, help="name of the branching sub-curve B")
    p.add_argument("--curve", required=True, help="name of the covered sub-curve C")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("zariski", help="candidate Zariski-pair certificate")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--branch1", required=True)
    p.add_argument("--curve1", required=True)
    p.add_argument("--branch2", required=True)
    p.add_argument("--curve2", required=True)
    p.set_defaults(func=cmd_zariski)

    p = sub.add_parser("minimality", help="certify that no proper sub-pair is a Zariski pair")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_minimality)

    p = sub.add_parser("render", help="SVG picture of the real points")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--window", nargs=4, metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.add_argument("--chart", choices=("x", "y", "z"), default="z")
    p.set_defaults(func=cmd_render)
    # argparse takes only -N and -N.N for negative numbers, so a bound such
    # as -1/2 would be read as an option; render has no option like -1.
    # This sets a private argparse attribute (the pattern Python 3.13 uses);
    # test_render_negative_fraction_window guards it
    p._negative_number_matcher = re.compile(r"^-\.?\d")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
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
    except ValueError as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
