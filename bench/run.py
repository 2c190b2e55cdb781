"""Benchmark of gammareg: one workload, end to end or traced.

    python3 bench/run.py --workload fem-pg-8193 --seed 1 --seconds 10 --trace 0

A run starts CLIENTS fresh client processes of the workload one after
another (see child.py), each with SECONDS / CLIENTS of passes, evenly
interleaved with its `cli_runs` fresh `python -m gammareg.cli run`
processes on the workload's CLI config. Every process gets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1. The run prints every metric as
`name value unit`, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import check_report, load_pinned
from instances import CLIENTS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")
DEADLINE_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s_p50": "s",
    "pass_s_p90": "s",
    "cli_run_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".mb", "kept_mb")):
        return "MB_computed"
    if name.endswith(".gram_gflop"):
        return "GFLOP_computed"
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("_ratio", "_share", "rss_over_kept", "overhead", "reports_identical")):
        return "1"
    return "count"


class BenchError(Exception):
    pass


class Clock:
    """Time left before the run must have ended."""

    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 1.0:
            raise BenchError("run exceeded its time budget")
        return left


def environment() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool, trace_out, clock) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "child.py"), workload, str(seed),
            repr(seconds), "1" if trace else "0"]
    if trace_out:
        argv.append(trace_out)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=environment(), stdout=subprocess.PIPE,
                              text=True, timeout=clock.left())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} client did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} client exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(workload: str, seed: int, tmp: str, trace: bool, clock) -> dict:
    w = WORKLOADS[workload]
    config_path = os.path.join(tmp, "study.ini")
    report_path = os.path.join(tmp, "report.csv")
    timings_path = os.path.join(tmp, "timings.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        handle.write(w.config_text(w.cli_instance, seed))
    for path in (report_path, timings_path):
        if os.path.exists(path):
            os.remove(path)
    args = ["run", "--config", config_path, "--out", report_path]
    if trace:
        argv = [sys.executable, os.path.join(BENCH, "cli_probe.py"), timings_path] + args
    else:
        argv = [sys.executable, "-m", "gammareg.cli"] + args
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=environment(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=clock.left())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} CLI run did not finish in time") from exc
    wall = time.perf_counter() - started
    result = {"wall": wall, "exit": proc.returncode, "stderr": proc.stderr, "report": ""}
    if os.path.exists(report_path):
        with open(report_path, "r", encoding="utf-8", newline="") as handle:
            result["report"] = handle.read()
    if trace:
        if not os.path.exists(timings_path):
            raise BenchError(f"{workload} traced CLI run wrote no timings: {proc.stderr}")
        with open(timings_path, "r", encoding="utf-8") as handle:
            result.update(json.load(handle))
    return result


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, at most p90.

    Below 20 samples no percentile above the median qualifies, and the
    median is returned. Linear interpolation between order statistics.
    """
    n = len(samples)
    q = min(0.9, max(0.5, 1.0 - 10.0 / n))
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), q


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "gammareg")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    clock = Clock()
    pinned_cli = load_pinned()["cli"][workload]
    os.makedirs(OUT, exist_ok=True)
    trace_out = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl") if trace else None
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    w = WORKLOADS[workload]
    order = sorted([((k + 0.5) / CLIENTS, 0, k) for k in range(CLIENTS)]
                   + [((k + 0.5) / w.cli_runs, 1, k) for k in range(w.cli_runs)])
    children, clis = [], []
    try:
        for _, is_cli, k in order:
            if is_cli:
                clis.append(run_cli(workload, seed, tmp, trace, clock))
            else:
                children.append(run_child(workload, seed, seconds / CLIENTS, trace,
                                          trace_out if k == 0 else None, clock))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(c["attempted"] for c in children) + len(clis)
    failed = sum(c["failed"] for c in children)
    incorrect = sum(c["incorrect"] for c in children)
    failures = {}
    for c in children:
        for key, count in c["failures"].items():
            failures[key] = failures.get(key, 0) + count
    for result in clis:
        problems = check_report(result["report"], result["exit"], pinned_cli)
        if problems:
            failed += 1
            incorrect += any(wrong for _, wrong in problems)
            key = f"cli: {problems[0][0]}"
            failures[key] = failures.get(key, 0) + 1

    info = {
        "workload": workload,
        "seed": seed,
        "env": dict(children[0]["env"], git_sha=git_sha(), src_sha256=source_digest()),
        "clients": CLIENTS,
        "cli_runs": w.cli_runs,
        "failed_ratio": failed / attempted,
        "failures": failures,
    }
    untraced = [wall for c in children for wall, traced in c["passes"] if not traced]
    if not trace:
        p90, q = tail(untraced)
        info["passes"] = len(untraced)
        info["pass_s_p90_percentile"] = round(100 * q, 1)
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "pass_s_p50": statistics.median(untraced),
            "pass_s_p90": p90,
            "cli_run_s": statistics.median(r["wall"] for r in clis),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    else:
        traced = [wall for c in children for wall, was_traced in c["passes"] if was_traced]
        metrics = {name: statistics.median(c["layers"][name] for c in children)
                   for name in children[0]["layers"]}
        metrics["cli.import.s"] = statistics.median(r["import_s"] for r in clis)
        metrics["cli.render.s"] = statistics.median(r["render_s"] for r in clis)
        metrics["cli.reports_identical"] = float(all(
            hashlib.sha256(r["report"].encode()).hexdigest() == pinned_cli["sha256"]
            for r in clis))
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        counts = [json.dumps(p, sort_keys=True) for c in children for p in c["pass_counts"]]
        if len(set(counts)) != 1:
            incorrect += 1
            failures["trace: span and call counts differ between passes"] = 1
        info["trace_file"] = os.path.relpath(trace_out, ROOT)
        units = {name: per_layer_unit(name) for name in metrics}
    return {
        "info": info,
        "result": {
            "correct": incorrect == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if not os.path.isfile(os.path.join(SRC, "gammareg", "__init__.py")):
        print(f"no gammareg package under {SRC}", file=sys.stderr)
        return 2
    try:
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("info " + json.dumps(out["info"], sort_keys=True))
    for name, metric in out["result"]["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
