"""Steadiness command: run workloads repeatedly and print the spread of each metric.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]
        [--seconds 10] [--trace 0|1] [--json OUT]

Each run is one `run.py` process with its own seed (first-seed, first-seed + 1,
...). For every metric the command prints the median, the first and third
quartiles as `statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median, next to the bound BENCHMARK.json fixes for it. It also
prints the share of failed operations, which must be the same in every run.
With --trace 1 it instead checks that each count repeats exactly across the
runs of one seed; use --runs 2 --first-seed N with --same-seed for that.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.monotonic() - t0
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="spread of each metric over repeated runs")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true", help="use first-seed for every run")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write every run's result here")
    args = ap.parse_args(argv)
    bounds = _bounds() if (ROOT / "BENCHMARK.json").is_file() else {}

    everything = {}
    ok = True
    for workload in args.workload or list(WORKLOADS):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed if args.same_seed else args.first_seed + i
            out = run_once(workload, seed, args.seconds, args.trace)
            runs.append(out)
            print(f"{workload} seed={seed} correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} elapsed={out['elapsed_s']:.1f}s",
                  file=sys.stderr, flush=True)
        everything[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"== {workload}: {len(runs)} runs, correct={correct}, failed shares={sorted(shares)}, "
              f"elapsed median {statistics.median(r['elapsed_s'] for r in runs):.1f}s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            if args.trace:
                if unit == "count" and len(set(values)) != 1:
                    ok = False
                    print(f"  {name:36} count differs between runs: {values}")
                continue
            s = summarize(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] <= bound / 3 else ("WITHIN BOUND" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {name:14} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.2%}  bound {bound}  {flag}")
    if args.json is not None:
        args.json.write_text(json.dumps(everything, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
