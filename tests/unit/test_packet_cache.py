"""Packet-run cache keying and round-tripping (repro.perf.packet_cache).

Stored packet results come only through executor jobs: the executor
reads each key from the store once, so a cold run counts one miss.
"""

import numpy as np
import pytest

from repro.exec import Executor, PacketScenarioJob, WorkloadJob
from repro.model.link import Link
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.packetsim.workload import FlowSpec, poisson_workload, run_workload
from repro.perf import packet_cache
from repro.perf.cache import TraceCache, cache_enabled
from repro.protocols import presets


def scenario(**overrides) -> PacketScenario:
    defaults = dict(
        bandwidth_mbps=20.0, rtt_ms=42.0, buffer_mss=100,
        protocols=[presets.reno(), presets.reno()],
        duration=5.0, seed=1,
    )
    defaults.update(overrides)
    return PacketScenario.from_mbps(
        defaults.pop("bandwidth_mbps"),
        defaults.pop("rtt_ms"),
        defaults.pop("buffer_mss"),
        defaults.pop("protocols"),
        **defaults,
    )


class TestScenarioKeying:
    def test_identical_scenarios_share_a_key(self):
        assert packet_cache.scenario_key(scenario()) == \
            packet_cache.scenario_key(scenario())

    @pytest.mark.parametrize("change", [
        dict(bandwidth_mbps=30.0),
        dict(buffer_mss=10),
        dict(seed=2),
        dict(duration=6.0),
        dict(random_loss_rate=0.01),
        dict(protocols=[presets.cubic(), presets.reno()]),
        dict(protocols=[presets.reno(), presets.reno(), presets.reno()]),
        dict(initial_window=2.0),
        dict(start_times=[0.0, 1.0]),
    ])
    def test_any_changed_parameter_changes_the_key(self, change):
        assert packet_cache.scenario_key(scenario()) != \
            packet_cache.scenario_key(scenario(**change))

    def test_protocol_parameters_are_keyed(self):
        from repro.protocols.aimd import AIMD

        a = scenario(protocols=[AIMD(1.0, 0.5), presets.reno()])
        b = scenario(protocols=[AIMD(1.0, 0.875), presets.reno()])
        assert packet_cache.scenario_key(a) != packet_cache.scenario_key(b)


class TestWorkloadKeying:
    def key(self, link=None, specs=None, duration=8.0, background=(),
            slow_start=True, initial_window=1.0):
        link = link or Link.from_mbps(20, 42, 100)
        if specs is None:
            specs = [FlowSpec(0.5, 10, presets.reno())]
        return packet_cache.workload_key(
            link, specs, duration, list(background), slow_start, initial_window
        )

    def test_identical_workloads_share_a_key(self):
        assert self.key() == self.key()

    def test_changed_inputs_miss(self):
        base = self.key()
        assert base != self.key(link=Link.from_mbps(30, 42, 100))
        assert base != self.key(specs=[FlowSpec(0.5, 11, presets.reno())])
        assert base != self.key(duration=9.0)
        assert base != self.key(background=[presets.cubic()])
        assert base != self.key(slow_start=False)
        assert base != self.key(initial_window=2.0)


def _flow_bits(stats):
    return (
        stats.packets_sent,
        stats.packets_acked,
        stats.packets_lost,
        stats.rounds_completed,
        stats.retransmissions,
        stats.completed_at,
        np.asarray(stats.ack_times).view(np.uint64).tolist(),
        np.asarray(stats.loss_times).view(np.uint64).tolist(),
        np.asarray(stats.rtt_samples).view(np.uint64).tolist(),
        np.asarray(stats.window_samples, dtype=np.float64)
        .reshape(-1).view(np.uint64).tolist(),
    )


def _run(job, **options):
    """One job through a fresh executor (no shared dedup state)."""
    return Executor().run([job], **options)[0]


class TestRoundTrip:
    def test_scenario_hit_round_trips_exactly(self, tmp_path):
        sc = scenario()
        with cache_enabled(tmp_path) as cache:
            cold = _run(PacketScenarioJob(sc))
            warm = _run(PacketScenarioJob(sc))
            assert cache.misses == 1
            assert cache.hits == 1
        assert warm.events == cold.events
        assert warm.duration == cold.duration
        for a, b in zip(warm.flows, cold.flows, strict=True):
            assert _flow_bits(a) == _flow_bits(b)
        assert warm.queue.enqueued == cold.queue.enqueued
        assert warm.queue.dropped == cold.queue.dropped
        assert warm.queue.departed == cold.queue.departed
        assert warm.queue.max_occupancy == cold.queue.max_occupancy
        # Derived statistics agree bit-for-bit too.
        assert warm.throughputs() == cold.throughputs()
        assert warm.mean_rtts() == cold.mean_rtts()

    def test_scenario_entry_holds_counters_and_flow_series(self, tmp_path):
        sc = scenario()
        with cache_enabled(tmp_path) as cache:
            result = _run(PacketScenarioJob(sc))
            arrays = cache.get_arrays(packet_cache.scenario_key(sc))
        flow_members = {
            f"flow{index}_{name}"
            for index in range(len(result.flows))
            for name in ("counters", "completed_at", "ack_times", "loss_times",
                         "rtt_samples", "window_samples")
        }
        assert set(arrays) == {
            "format", "meta", "duration", "queue_counters", *flow_members
        }
        assert arrays["queue_counters"].tolist() == [
            result.queue.enqueued, result.queue.dropped,
            result.queue.departed, result.queue.max_occupancy,
        ]

    def test_different_scenario_misses(self, tmp_path):
        with cache_enabled(tmp_path) as cache:
            _run(PacketScenarioJob(scenario()))
            _run(PacketScenarioJob(scenario(seed=2)))
            assert cache.misses == 2
            assert cache.hits == 0

    def test_workload_hit_round_trips_exactly(self, tmp_path):
        link = Link.from_mbps(20, 42, 100)
        specs = poisson_workload(1.0, 30, 4.0, presets.reno(), seed=7)
        with cache_enabled(tmp_path) as cache:
            cold = _run(WorkloadJob(link, specs, duration=8.0))
            warm = _run(WorkloadJob(link, specs, duration=8.0))
            assert cache.misses == 1
            assert cache.hits == 1
        for a, b in zip(warm.flows, cold.flows, strict=True):
            assert _flow_bits(a) == _flow_bits(b)
        assert warm.completion_times() == cold.completion_times()
        assert warm.completed == cold.completed

    def test_use_cache_false_bypasses_the_cache(self, tmp_path):
        with cache_enabled(tmp_path) as cache:
            _run(PacketScenarioJob(scenario()), use_cache=False)
            assert cache.misses == 0
            assert cache.hits == 0
            assert cache.entries() == []

    def test_engines_never_touch_the_store(self, tmp_path):
        link = Link.from_mbps(20, 42, 100)
        specs = poisson_workload(1.0, 30, 4.0, presets.reno(), seed=7)
        with cache_enabled(tmp_path) as cache:
            run_scenario(scenario())
            run_workload(link, specs, duration=8.0)
            assert cache.misses == 0
            assert cache.entries() == []

    def test_no_active_cache_simulates_normally(self):
        result = run_scenario(scenario())
        assert result.events > 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        sc = scenario()
        with cache_enabled(tmp_path) as cache:
            _run(PacketScenarioJob(sc))
            (entry,) = cache.entries()
            entry.write_bytes(b"not an npz archive")
            result = _run(PacketScenarioJob(sc))
            assert result.events > 0
            assert cache.misses == 2
            assert cache.hits == 0

    def test_raw_array_api_round_trips(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = "ab" + "0" * 62
        arrays = {
            "ints": np.arange(5, dtype=np.int64),
            "floats": np.linspace(0.0, 1.0, 7),
        }
        assert cache.get_arrays(key) is None
        cache.put_arrays(key, arrays)
        loaded = cache.get_arrays(key)
        assert set(loaded) == {"ints", "floats"}
        assert (loaded["ints"] == arrays["ints"]).all()
        assert loaded["floats"].view(np.uint64).tolist() == \
            arrays["floats"].view(np.uint64).tolist()
