"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(root: Path, workload: str, trace: int, seed: int = 5) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> tuple[dict, dict]:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def test_traced_counts_repeat_for_the_same_seed():
    runs = []
    for _ in range(2):
        rc, out = bench(ROOT, "corpus", trace=1)
        assert rc == 0
        res, _ = result(out)
        assert res["correct"] and res["failed"] == 0
        assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        runs.append({k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "ms"})
    deterministic = {k: v for k, v in runs[0].items() if not k.startswith("trace.")}
    assert deterministic == {k: runs[1][k] for k in deterministic}
    assert deterministic["incidence.singular_points.calls"] > 0


def checkout_copy(tmp_path: Path) -> Path:
    for part in ("src/coniclines", "data", "tests/golden"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_corrupted_expected_output_raises_error_rate(tmp_path):
    root = checkout_copy(tmp_path)
    golden = root / "tests/golden/split_pair1_B1.txt"
    golden.write_text(golden.read_text(encoding="utf-8") + "corrupted\n", encoding="utf-8")
    rc, out = bench(root, "paper", trace=0)
    assert rc == 0
    res, report = result(out)
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert not res["correct"]
    # the split job fails once in the checked warm-up cycle and once per timed cycle
    assert res["failed"] == report["cycles"] + 1 > 1
    assert report["error_rate"] == res["failed"] / res["attempted"]
    assert report["failures"][0]["argv"][:2] == ["split", "data/pair1_B1.txt"]


def test_no_result_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, out = bench(tmp_path, "corpus", trace=0)
    assert rc != 0
    assert out == ""


def test_generators_are_seeded():
    assert gen.split_family(3, 1) == gen.split_family(3, 1)
    assert gen.split_family(3, 1) != gen.split_family(4, 1)
    assert gen.split_family(3, 1) != gen.split_family(3, 2)
    assert gen.corpus_cycle(3, 1) == gen.corpus_cycle(3, 1)
    assert gen.corpus_cycle(3, 1) != gen.corpus_cycle(4, 1)


def test_tangency_points_and_forms():
    case = gen.split_family(11, 0)[-1]
    conic = [int(v) for v in case.text.splitlines()[0].split(":")[1].split()]
    x2, y2, z2, xy, xz, yz = conic
    form = f"{x2}*x^2 + {y2}*y^2 + {z2}*z^2 + {xy}*x*y + {xz}*x*z + {yz}*y*z".replace("+ -", "- ")
    assert all(workloads.evaluate_form(form, p) == 0 for p in case.tangency_points)
    assert workloads.evaluate_form("-x^2*y + (1/2)*z^3", (1, 2, 2)) == 2


def test_tail_leaves_ten_samples_beyond():
    t = run.tail([float(v) for v in range(1, 101)])
    assert t == {"value": 90.0, "percentile": 90.0, "samples": 100}
    assert run.tail([1.0, 2.0])["value"] == 2.0
