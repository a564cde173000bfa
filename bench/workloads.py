"""The benchmark's workloads: the CLI jobs they run and how each job is checked.

A workload hands out its jobs one cycle at a time.  `paper` repeats the
same cycle; `corpus` writes fresh seeded inputs for every cycle, so no
input is seen twice in a run.  Each job carries a check
that returns None when the output is right, or a message saying what is
wrong.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Job:
    command: str
    argv: list[str]
    check: Check


def expect(rc: int, want: int = 0) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


def field(out: str, pattern: str) -> str | None:
    m = re.search(pattern, out, re.MULTILINE)
    return m.group(1) if m else None


# ---------------------------------------------------------------- paper

GOLDEN = Path("tests/golden")
PAIRS = {"pair1": (2, 1), "pair2": (1, 2)}  # connected numbers of B1, B2
SPLIT_ARGS = ["--branch", "B", "--curve", "CC"]
ZARISKI_ARGS = ["--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC"]


class Paper:
    """The four bundled files through all six commands, with the README's arguments."""

    def __init__(self, work: Path):
        self.work = work
        self.svgs: dict[str, bytes] = {}
        self.goldens = {
            ("analyze", "data/pair1_B1.txt"): "analyze_pair1_B1.txt",
            ("analyze", "data/pair2_B2.txt"): "analyze_pair2_B2.txt",
            ("split", "data/pair1_B1.txt"): "split_pair1_B1.txt",
            ("zariski", "data/pair1_B1.txt"): "zariski_pair1.txt",
            ("zariski", "data/pair2_B1.txt"): "zariski_pair2.txt",
            ("minimality", "data/pair1_B1.txt"): "minimality_pair1.txt",
        }
        self.jobs = []
        for pair, numbers in PAIRS.items():
            f1, f2 = f"data/{pair}_B1.txt", f"data/{pair}_B2.txt"
            self.jobs += [
                self.job(["analyze", f1], self.analyzed),
                self.job(["analyze", f2], self.analyzed),
                self.job(["compare", f1, f2], self.compared),
                self.job(["split", f1, *SPLIT_ARGS], self.connected(numbers[0])),
                self.job(["split", f2, *SPLIT_ARGS], self.connected(numbers[1])),
                self.job(["zariski", f1, f2, *ZARISKI_ARGS], self.candidate),
                self.job(["minimality", f1, f2], self.minimal),
                self.render_job(f1),
                self.render_job(f2),
            ]

    def inputs(self) -> list[str]:
        return [f"data/{pair}_{b}.txt" for pair in PAIRS for b in ("B1", "B2")]

    def cycle(self, k: int) -> list[Job]:
        return self.jobs

    def job(self, argv: list[str], check: Check) -> Job:
        golden = self.goldens.get((argv[0], argv[1]))
        if golden is None:
            return Job(argv[0], argv, check)
        expected = (GOLDEN / golden).read_text(encoding="utf-8")

        def against_golden(rc: int, out: str) -> str | None:
            if out != expected:
                return f"stdout differs from {GOLDEN / golden}"
            return expect(rc)

        return Job(argv[0], argv, against_golden)

    @staticmethod
    def analyzed(rc: int, out: str) -> str | None:
        if "bezout check: OK" not in out:
            return "no `bezout check: OK`"
        return expect(rc)

    @staticmethod
    def compared(rc: int, out: str) -> str | None:
        count = field(out, r"^equivalences: (\d+)$")
        if count is None or int(count) < 1:
            return f"expected at least one equivalence, got {count}"
        return expect(rc)

    @staticmethod
    def connected(number: int) -> Check:
        def check(rc: int, out: str) -> str | None:
            got = field(out, r"branched along B: (\d+)$")
            if got != str(number):
                return f"connected number {got}, expected {number}"
            return expect(rc)

        return check

    @staticmethod
    def candidate(rc: int, out: str) -> str | None:
        if field(out, r"^  conclusion: (\w+)$") != "CandidatePair":
            return "conclusion is not CandidatePair"
        return expect(rc)

    @staticmethod
    def minimal(rc: int, out: str) -> str | None:
        if field(out, r"^  overall: (\w+)$") != "Minimal":
            return "overall verdict is not Minimal"
        return expect(rc)

    def render_job(self, source: str) -> Job:
        target = str(self.work / (Path(source).stem + ".svg"))

        def check(rc: int, out: str) -> str | None:
            if out != f"wrote {target}\n":
                return f"unexpected stdout {out[:80]!r}"
            svg = Path(target).read_bytes()
            if target not in self.svgs:
                root = ET.fromstring(svg)
                if not root.tag.endswith("svg"):
                    return f"root element is {root.tag}, not svg"
                self.svgs[target] = svg
            elif svg != self.svgs[target]:
                return "SVG differs from the first pass"
            return expect(rc)

        return Job("render", ["render", source, "-o", target], check)


# ---------------------------------------------------------------- splits

POINT_RE = re.compile(r"^  \[(-?\d+) : (-?\d+) : (-?\d+)\]$", re.MULTILINE)


def evaluate_form(text: str, p: tuple[int, int, int]) -> Fraction:
    """Value at p of a form printed as `3*x^2 - x*y + (1/2)*z^2`."""
    total = Fraction(0)
    for term in text.replace(" - ", " + -").split(" + "):
        value = Fraction(-1 if term.startswith("-") else 1)
        for factor in term.lstrip("-").split("*"):
            var, _, power = factor.partition("^")
            if var in ("x", "y", "z"):
                value *= p["xyz".index(var)] ** int(power or 1)
            else:
                value *= Fraction(factor.strip("()"))
        total += value
    return total


class Splits:
    """A seeded conic with 2m rational tangent lines as B and the conic as CC, m = 2..7."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def inputs(self) -> list[str]:
        return [str(self.path(m)) for m in gen.SPLIT_MS]

    def path(self, m: int) -> Path:
        return self.work / f"tangents_{m}.txt"

    def cycle(self, k: int) -> list[Job]:
        jobs = []
        for case in gen.split_family(self.seed, k):
            path = self.path(case.m)
            path.write_text(case.text, encoding="utf-8")
            jobs.append(Job("split", ["split", str(path), *SPLIT_ARGS], self.checker(case)))
        return jobs

    @staticmethod
    def checker(case: gen.SplitCase) -> Check:
        def check(rc: int, out: str) -> str | None:
            dim = field(out, r"vector dimension (\d+),")
            if dim != str(case.expected_dim):
                return f"kernel dimension {dim}, expected {case.expected_dim}"
            if field(out, r"branched along B: (\d+)$") != "2":
                return "connected number is not 2"
            printed = {tuple(int(v) for v in m) for m in POINT_RE.findall(out)}
            if printed != set(case.tangency_points):
                return "printed intersection points are not the tangency points"
            witness = field(out, r"contains no component of C\):\n  (.+)$")
            if witness is None:
                return "no witness curve"
            if any(evaluate_form(witness, p) for p in case.tangency_points):
                return "witness does not vanish at every tangency point"
            return expect(rc)

        return check


# ---------------------------------------------------------------- corpus

SUMMARY_RE = r"^  {}: (\d+ components; .*)$"


def point_total(summary: str) -> int:
    """Number of singular points in `7 components; 9 nodes, 1 other (pairwise ...)`."""
    return sum(int(n) for n in re.findall(r"(?:; |, )(\d+) [a-z]", summary))


class Corpus:
    """Fresh seeded inputs, each used once: the split family, then arrangements
    each analysed and compared with a relabelled image of itself."""

    def __init__(self, seed: int, work: Path, main: Callable[[list[str]], tuple[int, str]]):
        self.seed = seed
        self.work = work
        self.main = main  # untimed reference call: (argv) -> (exit code, stdout)
        self.splits = Splits(seed, work)

    def inputs(self) -> list[str]:
        arrangements = [str(p) for case in gen.corpus_cycle(self.seed, 0) for p in self.paths(case)]
        return self.splits.inputs() + arrangements

    def paths(self, case: gen.CorpusCase) -> tuple[Path, Path]:
        return self.work / f"{case.name}.txt", self.work / f"{case.name}_image.txt"

    def cycle(self, k: int) -> list[Job]:
        jobs = self.splits.cycle(k)
        for case in gen.corpus_cycle(self.seed, k):
            original, image = (str(p) for p in self.paths(case))
            Path(original).write_text(case.original, encoding="utf-8")
            Path(image).write_text(case.copy, encoding="utf-8")
            ref = self.reference(case, original)
            if isinstance(ref, str):
                analyzed = compared = lambda rc, out, why=ref: why
            else:
                analyzed = self.analyzed(ref[1])
                compared = self.compared(original, image, *ref)
            jobs.append(Job("analyze", ["analyze", original], analyzed))
            jobs.append(Job("compare", ["compare", original, image], compared))
        return jobs

    def reference(self, case: gen.CorpusCase, path: str) -> tuple[int, str] | str:
        """Equivalence count and type summary of the original against itself.

        Returns a message instead when the reference call itself fails; the
        jobs on that input then fail with it.
        """
        if case.automorphisms is not None:
            n = len(case.original.splitlines())
            return case.automorphisms, f"{n} components; {math.comb(n, 2)} nodes"
        try:
            rc, out = self.main(["compare", path, path])
        except (Exception, SystemExit) as exc:
            return f"reference compare of {path} raised {exc!r}"
        count = field(out, r"^equivalences: (\d+)$")
        summary = field(out, SUMMARY_RE.format(re.escape(path)))
        if rc != 0 or count is None or summary is None:
            return f"reference compare of {path} failed with exit code {rc}"
        return int(count), summary

    @staticmethod
    def analyzed(summary: str) -> Check:
        expected = point_total(summary)

        def check(rc: int, out: str) -> str | None:
            if "bezout check: OK" not in out:
                return "no `bezout check: OK`"
            counted = sum(int(c) for c in re.findall(r"^  \S.*s \((\d+)[:)]", out, re.MULTILINE))
            if counted != expected:
                return f"{counted} singular points, expected {expected}"
            return expect(rc)

        return check

    @staticmethod
    def compared(original: str, image: str, count: int, summary: str) -> Check:
        def check(rc: int, out: str) -> str | None:
            got = field(out, r"^equivalences: (\d+)$")
            if got != str(count):
                return f"{got} equivalences with the image, {count} with itself"
            for path in (original, image):
                if field(out, SUMMARY_RE.format(re.escape(path))) != summary:
                    return f"type counts of {path} differ from the original's"
            prints = [
                field(out, rf"^conic fingerprint of {re.escape(p)}: (.*)$") for p in (original, image)
            ]
            if prints[0] != prints[1]:
                return "conic fingerprints differ"
            return expect(rc)

        return check
