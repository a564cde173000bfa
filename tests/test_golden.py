"""Byte-exact golden files for every report format.

The reports are part of the tool's interface: identical inputs must give
identical bytes.  Paths inside the reports are kept relative by running
from the repository root.
"""

from pathlib import Path

import pytest

from coniclines.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "analyze_pair1_B1.txt": ["analyze", "data/pair1_B1.txt"],
    "analyze_pair2_B2.txt": ["analyze", "data/pair2_B2.txt"],
    "zariski_pair1.txt": [
        "zariski", "data/pair1_B1.txt", "data/pair1_B2.txt",
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
    ],
    "zariski_pair2.txt": [
        "zariski", "data/pair2_B1.txt", "data/pair2_B2.txt",
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
    ],
    "minimality_pair1.txt": ["minimality", "data/pair1_B1.txt", "data/pair1_B2.txt"],
    "split_pair1_B1.txt": ["split", "data/pair1_B1.txt", "--branch", "B", "--curve", "CC"],
    "compare_pair1.txt": ["compare", "data/pair1_B1.txt", "data/pair1_B2.txt"],
    "compare_pair2.txt": ["compare", "data/pair2_B1.txt", "data/pair2_B2.txt"],
}


@pytest.mark.parametrize("golden_name", sorted(CASES))
def test_report_matches_golden(golden_name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    main(CASES[golden_name])
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")
