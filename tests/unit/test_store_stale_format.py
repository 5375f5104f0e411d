"""A store entry with a stale format tag is a miss, is dropped and is rewritten.

One test per entry kind whose loader checks a format tag: unified traces
(``unified_format``), packet scenarios and packet workloads (``format``).
Each restamps a real entry with tag 0, then checks that the next run
recomputes and rewrites it and that the run after that is a store hit.
Runs go through the executor, which reads each key from the store once,
whether it computes the key or loads it.
"""

from __future__ import annotations

import numpy as np

from repro.backends import ScenarioSpec, run_spec
from repro.exec import Executor, PacketScenarioJob, WorkloadJob
from repro.model.link import Link
from repro.packetsim.scenario import PacketScenario
from repro.packetsim.workload import poisson_workload
from repro.perf import packet_cache, store
from repro.perf.cache import TraceCache, cache_enabled
from repro.perf.codec import pack_arrays, unpack_arrays
from repro.perf.store import unified_key
from repro.protocols import presets
from repro.protocols.aimd import AIMD


def _restamp(cache: TraceCache, tag: str) -> tuple:
    """Rewrite the store's only entry of ``tag``'s kind with ``tag = 0``."""
    for path in cache.entries():
        arrays = unpack_arrays(path.read_bytes())
        if tag in arrays:
            arrays[tag] = np.int64(0)
            path.write_bytes(pack_arrays(arrays))
            return path
    raise AssertionError(f"no entry carries {tag!r}")


def _tag(path, tag: str) -> int:
    return int(unpack_arrays(path.read_bytes())[tag])


def _reset(cache: TraceCache) -> None:
    cache.hits = cache.misses = 0


def test_stale_unified_entry(tmp_path):
    spec = ScenarioSpec(
        protocols=[AIMD(1, 0.5)] * 2, link=Link.from_mbps(20, 42, 100), steps=48
    )
    with cache_enabled(tmp_path) as cache:
        cold = run_spec(spec, "fluid")
        path = _restamp(cache, "unified_format")
        assert path.stem == unified_key("fluid", spec)
        _reset(cache)
        again = run_spec(spec, "fluid")
        assert (cache.hits, cache.misses) == (0, 1)
        assert _tag(path, "unified_format") == store._FORMAT_VERSION
        _reset(cache)
        warm = run_spec(spec, "fluid")
        assert (cache.hits, cache.misses) == (1, 0)
    for trace in (again, warm):
        assert trace.windows.tobytes() == cold.windows.tobytes()


def test_stale_packet_scenario_entry(tmp_path):
    scenario = PacketScenario.from_mbps(
        20.0, 42.0, 100, [presets.reno(), presets.reno()], duration=3.0, seed=1
    )
    def run():
        return Executor().run([PacketScenarioJob(scenario)])[0]

    with cache_enabled(tmp_path) as cache:
        cold = run()
        path = _restamp(cache, "format")
        _reset(cache)
        again = run()
        assert (cache.hits, cache.misses) == (0, 1)
        assert _tag(path, "format") == packet_cache._FORMAT_VERSION
        _reset(cache)
        warm = run()
        assert (cache.hits, cache.misses) == (1, 0)
    for result in (again, warm):
        assert result.events == cold.events
        assert result.throughputs() == cold.throughputs()


def test_stale_packet_workload_entry(tmp_path):
    link = Link.from_mbps(20, 42, 100)
    specs = poisson_workload(1.0, 30, 3.0, presets.reno(), seed=7)
    def run():
        return Executor().run([WorkloadJob(link, specs, duration=6.0)])[0]

    with cache_enabled(tmp_path) as cache:
        cold = run()
        path = _restamp(cache, "format")
        _reset(cache)
        again = run()
        assert (cache.hits, cache.misses) == (0, 1)
        assert _tag(path, "format") == packet_cache._FORMAT_VERSION
        _reset(cache)
        warm = run()
        assert (cache.hits, cache.misses) == (1, 0)
    for result in (again, warm):
        assert result.completion_times() == cold.completion_times()
