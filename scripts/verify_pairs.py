#!/usr/bin/env python3
"""End-to-end verification of both bundled degree-9 candidate Zariski pairs.

Runs the full pipeline on the four arrangement files in data/: singularity
tables, combinatorial equivalences, linear-system dimensions, connected
numbers, candidate-pair certificates, and the minimality sweep.  Everything
is exact; the run takes a few seconds.

Usage: python scripts/verify_pairs.py [--render OUTDIR]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coniclines import parse  # noqa: E402
from coniclines.moduli import minimality_check, minimality_report_text  # noqa: E402
from coniclines.render import render_svg  # noqa: E402
from coniclines.splitting import certificate_report, zariski_certificate  # noqa: E402


def load(name: str):
    return parse((ROOT / "data" / name).read_text(encoding="utf-8"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--render", metavar="OUTDIR", help="also write SVG pictures here")
    args = ap.parse_args()

    pairs = (
        ("pair 1", "pair1_B1.txt", "pair1_B2.txt"),
        ("pair 2", "pair2_B1.txt", "pair2_B2.txt"),
    )
    ok = True
    for title, f1, f2 in pairs:
        a1, a2 = load(f1), load(f2)
        print(f"=== {title}: {f1} vs {f2} ===")
        cert = zariski_certificate(a1, a2, ("B", "CC"), ("B", "CC"))
        sys.stdout.write(certificate_report(cert, f1, f2))
        ok &= cert.conclusion == "CandidatePair"
        report = minimality_check(a1, a2)
        sys.stdout.write(minimality_report_text(report, f1, f2))
        ok &= report.overall == "Minimal"
        print()

    if args.render:
        outdir = Path(args.render)
        outdir.mkdir(parents=True, exist_ok=True)
        for _, f1, f2 in pairs:
            for name in (f1, f2):
                svg = render_svg(load(name))
                target = outdir / (Path(name).stem + ".svg")
                target.write_text(svg, encoding="utf-8")
                print(f"wrote {target}")

    print("verdict:", "all certificates obtained" if ok else "SOME STEP FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
