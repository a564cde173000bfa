"""coniclines benchmark: end-to-end CLI latency and per-layer traced work.

Usage, from the repository root:

    python3 bench/run.py --workload paper|corpus --seed N --seconds S --trace 0|1

Every job is one in-process call to `coniclines.cli.main(argv)` with
stdout captured, run in a closed loop by one client in one thread, and
checked against known-correct output.  `--trace 0` runs one untimed,
checked warm-up cycle and then times whole cycles, printing the end-to-end
metrics; `--trace 1` alternates untraced and traced passes over one fixed
cycle of jobs and prints the per-layer metrics of one pass (counts from
the first traced pass, times as medians over the traced passes).  The
package is imported from `src/` of the checkout this file lives in, never
from elsewhere.  The second-last line of stdout is a JSON report (machine,
sample counts, per-command latencies, failures and, when traced, each
command's self time per layer); the last line is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_RUNS = 15
TAIL_BEYOND = 10
MAX_LISTED_FAILURES = 20

# a fresh interpreter up to the point where a CLI command would start its work
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import coniclines.cli
from coniclines import parse
for name in sys.argv[2:]:
    with open(name, encoding="utf-8") as f:
        parse(f.read())
"""


def load_package():
    """Import coniclines from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("coniclines.cli")
    except ImportError as exc:
        sys.exit(f"error: cannot import coniclines from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: coniclines was imported from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """Runs jobs through `cli.main`, timing and checking each one."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def call(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue()

    def run(self, job, tracer=None) -> float:
        self.attempted += 1
        problem = None
        start = time.perf_counter()
        try:
            if tracer is None:
                rc, out = self.call(job.argv)
            else:
                rc, out = tracer.run_job(lambda: self.call(job.argv), job.command)
        except (Exception, SystemExit) as exc:
            problem = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if problem is None:
            problem = job.check(rc, out)
        if problem is not None:
            self.failures.append({"argv": job.argv, "problem": problem})
        self.latencies.setdefault(job.command, []).append(elapsed * 1e3)
        return elapsed


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return {"value": max(samples), "percentile": 100.0, "samples": n}
    ordered = sorted(samples)
    return {
        "value": ordered[n - TAIL_BEYOND - 1],
        "percentile": round(100.0 * (n - TAIL_BEYOND) / n, 2),
        "samples": n,
    }


def measure_setup(inputs: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), *inputs],
        cwd=ROOT,
        check=True,
        stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def make_workload(name: str, seed: int, runner: Runner):
    (WORK / name).mkdir(parents=True, exist_ok=True)
    work = (WORK / name).relative_to(ROOT)  # reports print the paths they were given
    if name == "paper":
        return workloads.Paper(work)
    return workloads.Corpus(seed, work, runner.call)


def timed_run(workload, runner: Runner, seconds: float) -> tuple[dict, dict]:
    # warm-up: the first calls fill caches and finish lazy set-up
    warmup = workload.cycle(0)
    for job in warmup:
        runner.run(job)
    runner.latencies.clear()
    inputs = workload.inputs()
    setup, cycle_rates, cycle_medians = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        jobs = workload.cycle(len(cycle_rates) + 1)
        times = [runner.run(job) for job in jobs]
        cycle_rates.append(len(jobs) / sum(times))
        cycle_medians.append(statistics.median(times) * 1e3)
        # set-up probes are spread over the run, between cycles, so that
        # they see the same drift in the machine's speed as the jobs do
        now = time.perf_counter()
        done = 1.0 if now >= deadline else (now - start) / seconds
        while len(setup) < SETUP_RUNS * done:
            setup.append(measure_setup(inputs))
        if now >= deadline:
            break
    every = [ms for samples in runner.latencies.values() for ms in samples]
    job_tail = tail(every)
    # Throughput is jobs over busy seconds for the whole run: the machine's
    # speed shifts between spells of many seconds, and a whole-run figure
    # weighs each spell by its length where a median over cycles would jump
    # from one spell's speed to another's.
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(every) / sum(every) * 1e3, "1/s"),
        "job_ms": (statistics.median(cycle_medians), "ms"),
        "job_ms_tail": (job_tail["value"], "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    report = {
        "warmup_jobs": len(warmup),
        "cycles": len(cycle_rates),
        "cycle_jobs_per_s": cycle_rates,
        "setup_runs_s": setup,
        "job_ms_tail": {k: v for k, v in job_tail.items() if k != "value"},
        "commands": {
            f"{cmd}_ms": {"median": statistics.median(s), "tail": tail(s)}
            for cmd, s in sorted(runner.latencies.items())
        },
    }
    return metrics, report


COUNTS = {
    "incidence.singular_points.calls": "incidence.singular_points",
    "incidence.combinatorics.calls": "incidence.combinatorics",
    "incidence.equivalences.calls": "incidence.equivalences",
    "moduli.connectivity_certificate.calls": "moduli.connectivity_certificate",
    "moduli.n_value.calls": "moduli.n_value",
    "splitting.check_hypotheses.calls": "splitting.check_hypotheses",
    "splitting.through_points.calls": "splitting.through_points",
    "linalg.kernel_basis.calls": "linalg.kernel_basis",
    "linalg.rank.calls": "linalg.rank",
    "linalg.intersect_subspaces.calls": "linalg.intersect_subspaces",
    "linalg.in_span.calls": "linalg.in_span",
    "poly.monomial_row.calls": "poly.monomial_row",
    "poly.multiplication_image.calls": "poly.multiplication_image",
    "render.render_svg.calls": "render.render_svg",
    "arrangement.parse.calls": "arrangement.parse",
    "arrangement.restrict.calls": "arrangement.Arrangement.restrict",
}
SELF_TIMES = {
    "incidence.singular_points.self_ms": "incidence.singular_points",
    "incidence.equivalences.self_ms": "incidence.equivalences",
}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics of one traced pass: counts, ratios and self times."""
    calls = {name: rec["calls"] for name, rec in s["by_name"].items()}
    m = {metric: (calls.get(name, 0), "count") for metric, name in COUNTS.items()}
    m["incidence.intersections"] = (s["intersections"], "count")
    unique_pairs = s["unique"]["incidence.intersect_lines"] + s["unique"]["incidence.intersect_line_conic"]
    m["incidence.intersections.unique_ratio"] = (ratio(unique_pairs, s["intersections"]), "ratio")
    m["incidence.equivalences.found"] = (s["equivalences_found"], "count")
    m["moduli.certified_ratio"] = (
        ratio(s["certificates"], calls.get("moduli.connectivity_certificate", 0)),
        "ratio",
    )
    m["splitting.through_points.unique_ratio"] = (
        ratio(s["unique"]["splitting.through_points"], calls.get("splitting.through_points", 0)),
        "ratio",
    )
    m["linalg.kernel_basis.cells"] = (s["kernel_cells"], "count")
    return m


def layer_times(s: dict) -> dict:
    t = {metric: s["by_name"].get(name, {"self_ms": 0.0})["self_ms"] for metric, name in SELF_TIMES.items()}
    t.update({f"{layer}.self_ms": ms for layer, ms in s["layer_self_ms"].items()})
    return t


def traced_run(workload, runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    jobs = workload.cycle(0)
    tracer = Tracer()
    plain, traced, times, unaccounted = [], [], [], []
    counts = None
    deterministic = True
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(sum(runner.run(job) for job in jobs))
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(runner.run(job, tracer) for job in jobs))
        finally:
            tracer.uninstall()
        s = tracer.summary()
        if counts is None:
            counts = layer_metrics(s)
            first_pass_by_command = s["layer_self_ms_by_label"]
            tracer.write_spans(spans_path)
        elif layer_metrics(s) != counts:
            deterministic = False
        times.append(layer_times(s))
        unaccounted.append(ratio(s["unaccounted_ms"], s["job_ms"]))
        if time.perf_counter() >= deadline:
            break
    metrics = dict(counts)
    for name in times[0]:
        metrics[name] = (statistics.median(t[name] for t in times), "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    metrics["trace.unaccounted_ratio"] = (statistics.median(unaccounted), "ratio")
    report = {
        "passes": len(traced),
        "jobs_per_pass": len(jobs),
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "spans_per_pass": s["spans"],
        "layer_self_ms_by_command": first_pass_by_command,
        "unaccounted_max_job_ratio": s["unaccounted_max_job_ratio"],
        "counts_repeat_across_passes": deterministic,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    cli = load_package()
    runner = Runner(cli)
    workload = make_workload(args.workload, args.seed, runner)
    if args.trace:
        spans = WORK / f"{args.workload}.spans.tsv"
        metrics, report = traced_run(workload, runner, args.seconds, spans)
        correct = report["counts_repeat_across_passes"]
    else:
        metrics, report = timed_run(workload, runner, args.seconds)
        correct = True
    failed = len(runner.failures)
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        attempted=runner.attempted,
        error_rate=failed / runner.attempted,
        failures=runner.failures[:MAX_LISTED_FAILURES],
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.4f} {unit}")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct and failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
