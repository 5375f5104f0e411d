"""Benchmark for the performance layer (``repro.perf``).

Times the store against its baseline and archives the numbers in
``benchmarks/results/perf.json``, with the headline ones in
``summary.json``:

- a Table-2 grid run cold (store empty) vs warm (every simulation
  replayed from disk). The warm run must reproduce the cold results
  exactly and take under 25% of the cold wall time;
- one Emulab-sized packet scenario (four staggered Reno flows, 10 s at
  20 Mbps), run cold and replayed warm through the executor. The warm
  run must reproduce the cold statistics exactly;
- ``repro emulab`` at its default horizon, cold on an empty temporary
  store and then warm on the store it filled, each in a fresh process
  that reports its own peak RSS (``ru_maxrss``). The warm run must print
  what the cold run printed;
- ``python -m repro serve`` on an empty temporary store, a fresh process
  per measurement: the seconds from launch to its listening banner, then
  one small fixed request per backend, then the server's peak RSS
  (``VmHWM``). Every request must come back with a trace.

The first two record the store's bytes per entry kind and the warm
replay seconds, the third its two peaks (``packet_memory``), the fourth
the server's start-up and peak (``serve_memory``), with no threshold on
any: they show what one entry layout costs against another, what the
packet engine's per-packet samples cost in memory, run and replayed, and
what the serving process loads.

Runs standalone (``python benchmarks/bench_perf.py``) or under pytest,
where the tests are marked ``slow``::

    pytest benchmarks/bench_perf.py -m "not slow"   # deselects them

``--parent-src DIR`` (standalone only) also measures the server of
another checkout's ``src`` directory, in alternating pairs with this
one, and records both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from _support import environment, record_summary

import repro
from repro.backends import ScenarioSpec
from repro.exec import Executor, PacketScenarioJob
from repro.exec.client import ServeClient
from repro.experiments.table2 import run_table2
from repro.perf import cache_enabled
from repro.perf.store import stats_by_kind
from repro.protocols import presets

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


def _replay(section: str, run, outcome, **extra) -> dict:
    """``run`` cold, then warm on the store it filled; records ``section``.

    ``outcome`` maps a result to what must match between the two runs.
    The bytes per entry kind and the warm seconds also go to
    ``summary.json``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        with cache_enabled(tmp) as cache:
            cold, cold_s = _timed(run)
            warm, warm_s = _timed(run)
            hits, entries = cache.hits, cache.stats()["entries"]
            by_kind = stats_by_kind(cache)
    payload = {
        **extra,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_over_cold": warm_s / cold_s if cold_s else None,
        "cache_entries": entries,
        "warm_hits": hits,
        "store_bytes_by_kind": by_kind,
        "identical": outcome(cold) == outcome(warm),
    }
    _write_results(section, payload)
    record_summary(
        f"perf_{section}", warm_s=round(warm_s, 4), store_bytes_by_kind=by_kind
    )
    return payload


def bench_trace_cache() -> dict:
    def cells(result):
        return [(c.n_senders, c.bandwidth_mbps, c.friendliness_robust_aimd,
                 c.friendliness_pcc) for c in result.cells]

    return _replay(
        "trace_cache",
        lambda: run_table2(**_CACHE_KWARGS),
        cells,
        grid_cells=len(_CACHE_KWARGS["senders"]) * len(_CACHE_KWARGS["bandwidths_mbps"]),
    )


def bench_packet_replay() -> dict:
    # One Emulab cell's homogeneous run: staggered starts, slow start.
    scenario = ScenarioSpec.from_mbps(
        20, 42, 100, [presets.reno()] * 4, duration=10.0,
        start_times=[0.0, 1.0, 2.0, 3.0], slow_start=True, seed=1,
    ).lower_packet()

    def statistics(result):
        return (result.events, result.throughputs(), result.tail_loss_rates(),
                [flow.window_samples for flow in result.flows])

    return _replay(
        "packet_replay",
        lambda: Executor().run([PacketScenarioJob(scenario)])[0],
        statistics,
    )


#: Runs one ``repro`` command, then prints the process's own peak RSS
#: (``ru_maxrss``, KiB on Linux) as the last line of its stdout.
_PEAK_RSS_CHILD = (
    "import resource, sys\n"
    "from repro.cli import main\n"
    "status = main(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    "sys.exit(status)\n"
)


def _repro_peak_rss(args: list[str], store: str) -> tuple[str, float, float]:
    """``repro *args`` in a fresh process on ``store``: (stdout, peak MB, seconds)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, *args],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "REPRO_SIM_CACHE": store},
    ).stdout
    seconds = time.perf_counter() - start
    printed, _, peak_kib = out.rstrip("\n").rpartition("\n")
    return printed, int(peak_kib) / 1024, seconds


def bench_packet_memory() -> dict:
    with tempfile.TemporaryDirectory() as store:
        cold, cold_mb, cold_s = _repro_peak_rss(["emulab"], store)
        warm, warm_mb, warm_s = _repro_peak_rss(["emulab"], store)
    peaks = {"cold_peak_rss_mb": round(cold_mb, 2), "warm_peak_rss_mb": round(warm_mb, 2)}
    payload = {
        "command": "repro emulab",
        **peaks,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "identical": cold == warm,
        "environment": environment(),
    }
    _write_results("packet_memory", payload)
    record_summary("perf_packet_memory", **peaks, environment=payload["environment"])
    return payload


_LINK = {"bandwidth_mbps": 20.0, "rtt_ms": 42.0, "buffer_mss": 100.0}

#: The one request per backend each measured server answers.
SERVE_REQUESTS = {
    "fluid": [{"protocols": ["reno", "cubic"], "steps": 500, **_LINK}],
    "network": [{"protocols": ["reno", "AIMD(2,0.5)"], "steps": 500, **_LINK}],
    "meanfield": [{"protocols": ["reno"], "flow_multiplicity": 200, "steps": 500, **_LINK}],
    "packet": [{"protocols": ["reno", "reno"], "duration": 2.0, "start_times": [0.0, 1.0],
                "slow_start": True, "seed": 1, **_LINK}],
}

_BANNER = re.compile(r"http://[\d.]+:(\d+)")


def _vm_hwm_mb(pid: int) -> float:
    """A live process's peak RSS (``VmHWM``, Linux), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def _serve_once(src: Path) -> dict:
    """One fresh ``python -m repro serve`` from ``src`` on an empty store."""
    with tempfile.TemporaryDirectory() as store:
        env = {**os.environ, "PYTHONPATH": str(src), "REPRO_SIM_CACHE": store}
        start = time.perf_counter()
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = server.stdout.readline()
            setup_s = time.perf_counter() - start
            match = _BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"no listening banner from the server: {banner!r}")
            client = ServeClient(port=int(match.group(1)), timeout=120.0)
            for backend, specs in SERVE_REQUESTS.items():
                client.run_specs(specs, backend)  # raises on an error line
            peak_rss_mb = _vm_hwm_mb(server.pid)
        finally:
            server.terminate()
            server.wait(timeout=30)
            server.stdout.close()
    return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}


def _side(runs: list[dict]) -> dict:
    setup = [run["setup_s"] for run in runs]
    peaks = [run["peak_rss_mb"] for run in runs]
    return {
        "setup_s": [round(value, 4) for value in setup],
        "peak_rss_mb": [round(value, 2) for value in peaks],
        "median_setup_s": round(statistics.median(setup), 4),
        "median_peak_rss_mb": round(statistics.median(peaks), 2),
    }


def bench_serve_memory(parent_src: Path | None, pairs: int) -> dict:
    """``pairs`` fresh servers of this checkout, alternating with the
    parent's when ``parent_src`` is given (each side first in turn)."""
    src = Path(repro.__file__).resolve().parents[1]
    trees = {"change": src} if parent_src is None else {"parent": parent_src, "change": src}
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    for index in range(pairs):
        order = list(trees) if index % 2 == 0 else list(reversed(trees))
        for label in order:
            runs[label].append(_serve_once(trees[label]))
    payload = {
        "command": "python -m repro serve",
        "requests": {backend: len(specs) for backend, specs in SERVE_REQUESTS.items()},
        "pairs": pairs,
        **{label: _side(side) for label, side in runs.items()},
        "environment": environment(),
    }
    _write_results("serve_memory", payload)
    record_summary(
        "perf_serve_memory",
        **{
            f"{label}_{name}": payload[label][f"median_{name}"]
            for label in runs for name in ("setup_s", "peak_rss_mb")
        },
        pairs=pairs,
        environment=payload["environment"],
    )
    return payload


def test_trace_cache_replay_is_cheap_and_exact():
    payload = bench_trace_cache()
    assert payload["identical"]
    assert payload["warm_hits"] == payload["cache_entries"] > 0
    assert payload["warm_over_cold"] < 0.25
    print(f"\ntrace cache: cold {payload['cold_s']:.2f}s, "
          f"warm {payload['warm_s']:.2f}s "
          f"({payload['warm_over_cold']:.1%} of cold)")


def test_packet_replay_is_exact():
    payload = bench_packet_replay()
    assert payload["identical"]
    assert payload["warm_hits"] == payload["cache_entries"] == 1
    print(f"\npacket replay: cold {payload['cold_s']:.2f}s, "
          f"warm {payload['warm_s'] * 1e3:.1f} ms, "
          f"{payload['store_bytes_by_kind']}")


def test_packet_memory_is_recorded():
    payload = bench_packet_memory()
    assert payload["identical"]
    print(f"\nrepro emulab peak RSS: cold {payload['cold_peak_rss_mb']:.1f} MB, "
          f"warm {payload['warm_peak_rss_mb']:.1f} MB")


def test_serve_memory_is_recorded():
    payload = bench_serve_memory(None, pairs=1)
    change = payload["change"]
    print(f"\nrepro serve: banner after {change['median_setup_s']:.2f}s, "
          f"peak RSS {change['median_peak_rss_mb']:.1f} MB")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, default=None,
                        help="also measure the server of this src directory")
    args = parser.parse_args()
    table2 = bench_trace_cache()
    packet = bench_packet_replay()
    memory = bench_packet_memory()
    serve = bench_serve_memory(args.parent_src, pairs=10)
    print(json.dumps({"cpu_count": os.cpu_count(), "trace_cache": table2,
                      "packet_replay": packet, "packet_memory": memory,
                      "serve_memory": serve}, indent=2))
    print(f"\nwrote {RESULTS_PATH}")


if __name__ == "__main__":
    main()
