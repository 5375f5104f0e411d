"""Benchmark for the performance layer (``repro.perf``).

Times the trace cache against its baseline and archives the wall-clock
numbers in ``benchmarks/results/perf.json``: a Table-2 grid run cold
(cache empty) vs warm (every simulation replayed from disk). The warm
run must reproduce the cold results exactly and take under 25% of the
cold wall time.

Runs standalone (``python benchmarks/bench_perf.py``) or under pytest,
where the test is marked ``slow``::

    pytest benchmarks/bench_perf.py -m "not slow"   # deselects it
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.experiments.table2 import run_table2
from repro.perf import cache_enabled

pytestmark = pytest.mark.slow

RESULTS_PATH = Path(__file__).parent / "results" / "perf.json"

_CACHE_KWARGS = dict(senders=(2, 3), bandwidths_mbps=(20, 30), steps=1500)


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _write_results(section: str, payload: dict) -> None:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    existing = {}
    if RESULTS_PATH.exists():
        try:
            existing = json.loads(RESULTS_PATH.read_text())
        except (OSError, ValueError):
            existing = {}
    existing["cpu_count"] = os.cpu_count()
    existing[section] = payload
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def bench_trace_cache() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        with cache_enabled(tmp) as cache:
            cold, cold_s = _timed(lambda: run_table2(**_CACHE_KWARGS))
            warm, warm_s = _timed(lambda: run_table2(**_CACHE_KWARGS))
            hits, entries = cache.hits, cache.stats()["entries"]

    def tuples(result):
        return [(c.n_senders, c.bandwidth_mbps, c.friendliness_robust_aimd,
                 c.friendliness_pcc) for c in result.cells]

    payload = {
        "grid_cells": (len(_CACHE_KWARGS["senders"])
                       * len(_CACHE_KWARGS["bandwidths_mbps"])),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_over_cold": warm_s / cold_s if cold_s else None,
        "cache_entries": entries,
        "warm_hits": hits,
        "identical": tuples(cold) == tuples(warm),
    }
    _write_results("trace_cache", payload)
    return payload


def test_trace_cache_replay_is_cheap_and_exact():
    payload = bench_trace_cache()
    assert payload["identical"]
    assert payload["warm_hits"] == payload["cache_entries"] > 0
    assert payload["warm_over_cold"] < 0.25
    print(f"\ntrace cache: cold {payload['cold_s']:.2f}s, "
          f"warm {payload['warm_s']:.2f}s "
          f"({payload['warm_over_cold']:.1%} of cold)")


def main() -> None:
    cache = bench_trace_cache()
    print(json.dumps({"cpu_count": os.cpu_count(),
                      "trace_cache": cache}, indent=2))
    print(f"\nwrote {RESULTS_PATH}")


if __name__ == "__main__":
    main()
