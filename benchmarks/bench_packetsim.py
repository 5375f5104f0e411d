"""Benchmark for the packet-level engine rework.

Times the two tentpole optimizations against their baselines and
archives the numbers in ``benchmarks/results/packetsim.json``:

- **slotted engine** — events/sec through the pre-refactor closure-heapq
  scheduler (a verbatim copy embedded below) vs the slotted rails engine,
  on the same bounce-pattern workload (a few fixed delay classes, many
  sources — the shape of real packet runs), timed in back-to-back pairs
  whose order alternates. Each run has a fresh interpreter to itself:
  the claim is about an engine in a new process, and within one process
  the legacy engine speeds up after its first run (a warm allocator is
  the likely cause). Asserts that the median per-pair speedup is >= 3x.
- **packet-run cache** — one scenario simulated cold, then replayed from
  the content-addressed cache. The warm run must reproduce the statistics
  and take under a tenth of the cold wall time.

Runs standalone (``python benchmarks/bench_packetsim.py``) or under
pytest, where the tests are marked ``slow``::

    pytest benchmarks/bench_packetsim.py -m "not slow"   # deselects all
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import repro
from repro.exec import Executor, PacketScenarioJob
from repro.packetsim.engine import EventKind, EventScheduler
from repro.packetsim.scenario import PacketScenario
from repro.perf import cache_enabled
from repro.protocols import presets

pytestmark = pytest.mark.slow

RESULTS_PATH = Path(__file__).parent / "results" / "packetsim.json"

_ENGINE_EVENTS = 300_000
#: One pending event per in-flight packet: real runs hold O(BDP * flows).
_ENGINE_SOURCES = 600
#: Delay classes shaped like a packet run: serialization, RTT, loss delay.
_ENGINE_DELAYS = (0.0006, 0.042, 0.084)
#: Back-to-back (legacy, slotted) pairs, each pair's order the reverse of
#: the last one's.
_ENGINE_PAIRS = 11

_CACHE_SCENARIO = dict(
    bandwidth_mbps=60.0, rtt_ms=42.0, buffer_mss=100, duration=20.0
)


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


# ----------------------------------------------------------------------
# The pre-refactor engine, embedded verbatim as the baseline (the same
# code is frozen in tests/property/reference_packetsim.py; duplicated
# here so the benchmark stays importable on its own).
# ----------------------------------------------------------------------
class _LegacyScheduler:
    """The seed's closure-based heapq event loop (do not optimise)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def processed_events(self) -> int:
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0 or not math.isfinite(delay):
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        heapq.heappush(self._heap, (self._now + delay, next(self._sequence), callback))

    def run_until(self, end_time: float, max_events: int | None = None) -> None:
        budget = math.inf if max_events is None else max_events
        while self._heap and self._heap[0][0] <= end_time:
            if self._processed >= budget:
                raise RuntimeError(
                    f"exceeded max_events={max_events}; possible event storm"
                )
            when, _, callback = heapq.heappop(self._heap)
            self._now = when
            self._processed += 1
            callback()
        self._now = end_time


def _run_legacy_engine(total: int, sources: int) -> tuple[int, float]:
    scheduler = _LegacyScheduler()
    hops = total // sources

    # The seed idiom: every event is a *fresh* closure binding its context
    # (the production code captured the in-flight packet the same way).
    def arrive(delay: float, packet: int, remaining: int) -> None:
        if remaining:
            scheduler.schedule(
                delay, lambda: arrive(delay, packet + 1, remaining - 1)
            )

    for i in range(sources):
        delay = _ENGINE_DELAYS[i % len(_ENGINE_DELAYS)]
        scheduler.schedule(0.0, (lambda d, p: (lambda: arrive(d, p, hops)))(delay, i))
    _, elapsed = _timed(lambda: scheduler.run_until(math.inf))
    return scheduler.processed_events, elapsed


_ACK_KIND = int(EventKind.FLOW_ACK)


class _Bouncer:
    """A typed-event source: every dispatch re-arms itself on its rail."""

    __slots__ = ("rail", "remaining")

    def __init__(self, rail, remaining: int) -> None:
        self.rail = rail
        self.remaining = remaining

    def on_ack(self, packet: int) -> None:
        remaining = self.remaining
        if remaining:
            self.remaining = remaining - 1
            self.rail.push(_ACK_KIND, self, packet + 1)


def _run_slotted_engine(total: int, sources: int) -> tuple[int, float]:
    scheduler = EventScheduler()
    rails = [scheduler.rail(delay) for delay in _ENGINE_DELAYS]
    hops = total // sources
    for i in range(sources):
        bouncer = _Bouncer(rails[i % len(rails)], hops)
        scheduler.schedule_event(0.0, _ACK_KIND, bouncer, i)
    _, elapsed = _timed(lambda: scheduler.run_until(1e12))
    return scheduler.processed_events, elapsed


_ENGINES = {"legacy": _run_legacy_engine, "slotted": _run_slotted_engine}


def _run_engine_in_fresh_process(name: str) -> tuple[int, float]:
    """One run of engine ``name``, in a new interpreter (see ``main``)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, __file__, "--engine", name],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    events, seconds = json.loads(out)
    return events, seconds


def bench_engine() -> dict:
    # Time the engines in back-to-back pairs whose order alternates: a
    # clock shift within a pair falls on both sides, and the median of
    # the per-pair speedups sets aside the pairs it caught only half of.
    rates: dict[str, list[float]] = {name: [] for name in _ENGINES}
    for pair in range(_ENGINE_PAIRS):
        for name in _ENGINES if pair % 2 == 0 else reversed(_ENGINES):
            events, seconds = _run_engine_in_fresh_process(name)
            rates[name].append(events / seconds)
    speedups = [
        slotted / legacy
        for legacy, slotted in zip(rates["legacy"], rates["slotted"])
    ]
    q1, _, q3 = statistics.quantiles(speedups, n=4)
    payload = {
        "events": _ENGINE_EVENTS,
        "sources": _ENGINE_SOURCES,
        "pairs": _ENGINE_PAIRS,
        "process": "fresh per run",
        "legacy_events_per_s": statistics.median(rates["legacy"]),
        "slotted_events_per_s": statistics.median(rates["slotted"]),
        "speedup": statistics.median(speedups),
        "speedup_q1": q1,
        "speedup_q3": q3,
    }
    _write_results("engine", payload)
    return payload


def bench_packet_cache() -> dict:
    scenario = PacketScenario.from_mbps(
        _CACHE_SCENARIO["bandwidth_mbps"],
        _CACHE_SCENARIO["rtt_ms"],
        _CACHE_SCENARIO["buffer_mss"],
        [presets.cubic(), presets.reno(), presets.reno()],
        duration=_CACHE_SCENARIO["duration"],
    )
    # Stored packet results come through an executor job, the only store
    # reader and writer.
    def run():
        return Executor().run([PacketScenarioJob(scenario)])[0]

    with tempfile.TemporaryDirectory() as tmp:
        with cache_enabled(tmp) as cache:
            cold, cold_s = _timed(run)
            warm, warm_s = _timed(run)
            hits, misses = cache.hits, cache.misses

    def bits(stats):
        return (
            stats.packets_sent, stats.packets_acked, stats.packets_lost,
            np.asarray(stats.ack_times).view(np.uint64).tolist(),
            np.asarray(stats.rtt_samples).view(np.uint64).tolist(),
        )

    payload = {
        "scenario": _CACHE_SCENARIO,
        "events": cold.events,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_over_cold": warm_s / cold_s if cold_s else None,
        "speedup": cold_s / warm_s if warm_s else None,
        "hits": hits,
        "misses": misses,
        "identical": all(
            bits(a) == bits(b) for a, b in zip(cold.flows, warm.flows)
        ),
    }
    _write_results("packet_cache", payload)
    return payload


def test_slotted_engine_is_3x_faster():
    payload = bench_engine()
    assert payload["speedup"] >= 3.0
    print(f"\nengine: legacy {payload['legacy_events_per_s']/1e6:.2f} M ev/s, "
          f"slotted {payload['slotted_events_per_s']/1e6:.2f} M ev/s "
          f"({payload['speedup']:.2f}x, quartiles {payload['speedup_q1']:.2f}"
          f"-{payload['speedup_q3']:.2f})")


def test_warm_packet_cache_is_10x_faster_and_exact():
    payload = bench_packet_cache()
    assert payload["identical"]
    # The executor reads a key once: the cold run is one miss.
    assert payload["hits"] == 1 and payload["misses"] == 1
    assert payload["speedup"] >= 10.0
    print(f"\npacket cache: cold {payload['cold_s']:.3f}s, "
          f"warm {payload['warm_s']:.3f}s ({payload['speedup']:.1f}x)")


def main() -> None:
    engine = bench_engine()
    cache = bench_packet_cache()
    print(json.dumps({"cpu_count": os.cpu_count(), "engine": engine,
                      "packet_cache": cache}, indent=2))
    print(f"\nwrote {RESULTS_PATH}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--engine"]:
        # One timed engine run for _run_engine_in_fresh_process.
        print(json.dumps(_ENGINES[sys.argv[2]](_ENGINE_EVENTS, _ENGINE_SOURCES)))
    else:
        main()
