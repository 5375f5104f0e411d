"""Shared helpers for the benchmark suite (not a benchmark itself).

``record_summary`` merges one benchmark's numbers into the consolidated
``benchmarks/results/summary.json`` that ``bench_all.py`` assembles —
individual ``bench_*`` modules call it for the headline comparisons
(e.g. batched-vs-serial speedups) so a single file answers "how fast is
the repo right now".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
SUMMARY_PATH = RESULTS_DIR / "summary.json"
BASELINES_PATH = RESULTS_DIR / "baselines.json"


def load_summary() -> dict:
    if SUMMARY_PATH.exists():
        try:
            return json.loads(SUMMARY_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    return {}


def environment() -> dict:
    """The interpreter and NumPy versions the recorded numbers ran on."""
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy_version": numpy.__version__,
    }


def record_summary(name: str, **numbers: object) -> None:
    """Merge ``{name: numbers}`` into ``results/summary.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    summary = load_summary()
    summary[name] = numbers
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def load_baselines() -> dict:
    """The recorded per-benchmark baseline wall times (seconds)."""
    if BASELINES_PATH.exists():
        try:
            return json.loads(BASELINES_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    return {}
