"""Check that the benchmark is steady enough to judge changes by.

Runs ``run.py`` once per seed on one workload, each run in a fresh
process with ``BENCHMARK.json``'s run length, and prints each end-to-end
metric's median and its spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the bound in ``BENCHMARK.json``. With
``--exact`` it also runs the traced benchmark twice on the first seed and
requires the counts that must repeat bit-for-bit to be identical.

    python3 perfbench/steadiness.py --workload artifacts-cold --seeds 1 2 3 4 5

Exits non-zero when a run fails, a spread exceeds its bound, or an exact
count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {done.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--exact", action="store_true",
                        help="also compare the exact counts of two traced runs")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds, 0)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: output checks failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)
    status = 0
    print(f"{'metric':14s} {'median':>10s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values[name]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
        if verdict == "OVER":
            status = 1
        print(f"{name:14s} {median:10.4g} {spread:8.3f} {bound:6.2f} {verdict}")
    if args.exact:
        exact = (tracing.EXACT_SERVE_COUNTS if args.workload == "serve-mixed"
                 else tracing.EXACT_ARTIFACT_COUNTS)
        first, second = (run_once(args.workload, args.seeds[0], seconds, 1)
                         for _ in range(2))
        for name in exact:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            same = a == b
            status = status if same else 1
            print(f"exact {name}: {a!r} vs {b!r} {'same' if same else 'DIFFERENT'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
