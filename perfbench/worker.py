"""One workload process: set up, then produce every report of the workload in rounds.

Run by run.py, never by hand:

    python3 perfbench/worker.py --docs DOCS.json --t0-ns T --out RESULT.json
        [--setup-only] [--seconds S] [--trace 0|1] [--trace-file FILE]

`--t0-ns` is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so set-up time covers interpreter start, `import
nonautodyn`, parsing the scenario documents with `ScenarioSpec.from_json`,
building the families and `CheckConfig.validate`.

A round runs `run_comparison` plus `ComparisonReport.to_json_text` for every
scenario. Rounds repeat, at least one, and stop at the round boundary nearest
to `--seconds`: another round starts only while less than `--seconds` minus
half a round has passed. So a run measures about `--seconds` whatever the
machine's speed, and always whole rounds. With `--trace 1` every round is an
untraced pass followed by a traced pass. The result file holds the round
times, peak resident memory, the first round's report texts and a digest of
every report of every round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _setup(docs_path: Path, t0_ns: int):
    import nonautodyn
    from nonautodyn import report

    if not Path(nonautodyn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"nonautodyn imported from {nonautodyn.__file__}, not from {SRC}")
    docs = json.loads(docs_path.read_text())
    specs = [report.ScenarioSpec.from_json(doc) for doc in docs]
    for spec in specs:
        spec.check.validate(spec.build_family().space)
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9
    return report, specs, setup_s


def _round(report, specs) -> tuple[float, list[str]]:
    texts = []
    t0 = time.perf_counter()
    for spec in specs:
        texts.append(report.run_comparison(spec).to_json_text())
    return time.perf_counter() - t0, texts


def _digest(texts: list[str]) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--docs", type=Path, required=True)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)

    report, specs, setup_s = _setup(args.docs, args.t0_ns)
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        args.out.write_text(json.dumps(result))
        return 0

    from tracer import Tracer

    walls, traced_walls, digests, layer_runs = [], [], [], []
    first_texts = None
    dump = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, texts = _round(report, specs)
        walls.append(wall)
        digests.append(_digest(texts))
        if first_texts is None:
            first_texts = texts
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                wall, texts = _round(report, specs)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            digests.append(_digest(texts))
            layer_runs.append(tracer.metrics())
            if dump is None:
                dump = tracer.dump()
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= args.seconds:
            break

    result.update(
        walls=walls,
        traced_walls=traced_walls,
        layer_runs=layer_runs,
        digests=digests,
        reports=first_texts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if dump is not None and args.trace_file is not None:
        args.trace_file.write_text(json.dumps(dump))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
