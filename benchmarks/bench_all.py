"""Run every ``bench_*.py`` and consolidate the numbers in one file.

Each benchmark module is executed as its own pytest run (so a failure or
a missing optional dependency in one cannot poison the others) and timed
end to end. The consolidated ``benchmarks/results/summary.json`` then
holds, per module, the wall time, pass/fail status, and the speedup
against the recorded baseline wall time in
``benchmarks/results/baselines.json`` — plus whatever headline
comparisons the modules themselves recorded through
``_support.record_summary`` (e.g. the batched-vs-serial frontier-grid
speedup from ``bench_figure1.py``).

Usage::

    python benchmarks/bench_all.py                 # everything
    python benchmarks/bench_all.py --only figure1 table2
    python benchmarks/bench_all.py --skip-slow     # drop @slow benchmarks
    python benchmarks/bench_all.py --rebaseline    # record current walls

No function here is named ``test_*``: under pytest this module collects
zero tests, so ``pytest benchmarks/`` never recurses into itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from _support import (
    BASELINES_PATH,
    RESULTS_DIR,
    SUMMARY_PATH,
    environment,
    load_baselines,
    load_summary,
    record_summary,
)

BENCH_DIR = Path(__file__).parent


def discover_benchmarks() -> list[Path]:
    """Every ``bench_*.py`` in this directory, except this driver."""
    return sorted(
        path
        for path in BENCH_DIR.glob("bench_*.py")
        if path.name != Path(__file__).name
    )


def run_benchmark(path: Path, skip_slow: bool = False,
                  timeout_s: float = 3600.0) -> dict:
    """One timed pytest run of ``path``; never raises on benchmark failure.

    Skipped and timed-out modules carry a ``reason`` string alongside the
    status, so ``repro report`` can say *why* a number is missing instead
    of leaving a bare "skipped" in summary.json.
    """
    # pyproject's addopts already passes -q; a second -q would go fully
    # silent and swallow the "N deselected" line the skip reason reads.
    command = [sys.executable, "-m", "pytest", str(path), "-s"]
    if skip_slow:
        command += ["-m", "not slow"]
    reason = None
    start = time.perf_counter()
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout_s,
            cwd=BENCH_DIR.parent,
        )
        status = "passed" if completed.returncode == 0 else "failed"
        # "no tests ran" (all deselected by -m) exits 5; that's a skip.
        if completed.returncode == 5:
            status = "skipped"
            if skip_slow and "deselected" in completed.stdout:
                reason = ("every benchmark in the module is marked @slow; "
                          "deselected by --skip-slow")
            else:
                reason = "module collected no benchmarks"
    except subprocess.TimeoutExpired:
        status = "timeout"
        reason = f"exceeded the {timeout_s:.0f}s per-module timeout"
    wall = time.perf_counter() - start
    entry = {"status": status, "wall_s": round(wall, 3)}
    if reason is not None:
        entry["reason"] = reason
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="*", default=None,
                        help="run only benchmarks matching these substrings "
                        "(e.g. 'figure1' for bench_figure1.py)")
    parser.add_argument("--skip-slow", action="store_true",
                        help="deselect @pytest.mark.slow benchmarks")
    parser.add_argument("--rebaseline", action="store_true",
                        help="write this run's wall times to baselines.json")
    parser.add_argument("--timeout", type=float, default=3600.0,
                        help="per-module timeout in seconds")
    args = parser.parse_args(argv)

    benchmarks = discover_benchmarks()
    if args.only:
        benchmarks = [
            path for path in benchmarks
            if any(token in path.stem for token in args.only)
        ]
    if not benchmarks:
        print("no benchmarks selected", file=sys.stderr)
        return 2

    record_summary("environment", **environment())
    baselines = load_baselines()
    failures = 0
    for path in benchmarks:
        print(f"== {path.name} ...", flush=True)
        entry = run_benchmark(path, skip_slow=args.skip_slow,
                              timeout_s=args.timeout)
        baseline = baselines.get(path.stem)
        if baseline and entry["wall_s"] > 0:
            entry["baseline_s"] = baseline
            entry["speedup_vs_baseline"] = round(baseline / entry["wall_s"], 3)
        record_summary(path.stem, **entry)
        if entry["status"] == "failed":
            failures += 1
        extra = (f", {entry['speedup_vs_baseline']}x vs baseline"
                 if "speedup_vs_baseline" in entry else "")
        if "reason" in entry:
            extra += f" ({entry['reason']})"
        print(f"   {entry['status']} in {entry['wall_s']:.1f}s{extra}")

    if args.rebaseline:
        summary = load_summary()
        for path in benchmarks:
            entry = summary.get(path.stem, {})
            if entry.get("status") == "passed":
                baselines[path.stem] = entry["wall_s"]
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINES_PATH.write_text(
            json.dumps(baselines, indent=2, sort_keys=True) + "\n"
        )
        print(f"baselines written to {BASELINES_PATH}")

    print(f"consolidated summary written to {SUMMARY_PATH}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
