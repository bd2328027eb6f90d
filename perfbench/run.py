"""Benchmark of `nonautodyn.report.run_comparison`, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from `src/` as it
stands; nothing is installed. The run makes the workload's scenario
documents from the seed, produces the workload's reports in rounds for
about S seconds in one process, times set-up in that process and in fresh
set-up-only processes before and after it, checks every report with
checks.py, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, wall_s and peak_rss_mb; with
--trace 1 they are the per-layer metrics of tracer.py plus the tracing
overhead. Problems found by the checks go to standard error. Every workload
process runs single-threaded: BLAS and OpenMP pools are held to one thread.
The exit code is 0 only when a result line was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import OPS_PER_REPORT, check_report  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up is timed in this many processes, half before and half after the
#: measured one, and reported as their median
SETUP_SAMPLES = 9
#: a run gives up, without a result, once this much time has passed
DEADLINE_S = 170.0
RUNS_DIR = ROOT / ".perfbench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(work: Path, docs: Path, deadline: float, *extra: str) -> dict:
    out = work / "result.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--docs", str(docs), "--out", str(out)]
    t0 = time.monotonic_ns()
    cmd += ["--t0-ns", str(t0), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before a workload process could start")
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"workload process passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not out.is_file():
        raise RunError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def _check(docs: list[dict], result: dict) -> tuple[int, int, list[str]]:
    """Check the first round's reports; every later report must be byte-identical."""
    attempted = failed = 0
    problems: list[str] = []
    for doc, text in zip(docs, result["reports"]):
        try:
            r = check_report(doc, json.loads(text))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"{doc['label']}: malformed report: {type(exc).__name__}: {exc}")
            attempted += OPS_PER_REPORT
            continue
        attempted += r.attempted
        failed += r.failed
        problems += r.problems
    if len(result["reports"]) != len(docs):
        problems.append(f"expected {len(docs)} reports, got {len(result['reports'])}")
    if len(set(result["digests"])) != 1:
        problems.append("reports differ between rounds or between traced and untraced passes")
    passes = len(result["digests"])
    return attempted * passes, failed * passes, problems


def _layer_metrics(result: dict) -> dict:
    runs = result["layer_runs"]
    metrics = {}
    for name, unit in METRICS.items():
        values = [run[name] for run in runs]
        if unit == "count":
            if len(set(values)) != 1:
                raise RunError(f"count {name} differs between traced rounds: {values}")
            metrics[name] = {"value": values[0], "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced = statistics.median(result["traced_walls"])
    untraced = statistics.median(result["walls"])
    metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "nonautodyn" / "__init__.py").is_file():
        raise RunError(f"no program source under {ROOT / 'src'}")
    docs = WORKLOADS[workload](seed)
    work = RUNS_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        docs_path = work / "docs.json"
        docs_path.write_text(json.dumps(docs))
        probes = (SETUP_SAMPLES - 1) // 2
        setups = [_worker(work, docs_path, deadline, "--setup-only")["setup_s"] for _ in range(probes)]
        extra = ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            extra += ["--trace-file", str(RUNS_DIR / f"trace-{workload}-seed{seed}.json")]
        result = _worker(work, docs_path, deadline, *extra)
        setups.append(result["setup_s"])
        setups += [
            _worker(work, docs_path, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES - 1 - probes)
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems = _check(docs, result)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if trace:
        metrics = _layer_metrics(result)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of run_comparison")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
