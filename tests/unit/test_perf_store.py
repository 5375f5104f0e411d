"""The unified store (repro.perf.store): keys, round-trips, accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import ScenarioSpec, run_spec
from repro.model.link import Link
from repro.perf.cache import TraceCache, cache_enabled
from repro.perf.store import (
    classify_entry,
    load_unified_trace,
    stats_by_kind,
    store_unified_trace,
    unified_key,
)
from repro.protocols.aimd import AIMD


@pytest.fixture
def spec() -> ScenarioSpec:
    return ScenarioSpec(
        protocols=[AIMD(1, 0.5)] * 2, link=Link.from_mbps(20, 42, 100),
        steps=48,
    )


class TestUnifiedKey:
    def test_deterministic_and_backend_scoped(self, spec):
        a = unified_key("fluid", spec)
        b = unified_key("fluid", spec)
        assert a == b
        assert isinstance(a, str) and len(a) == 64
        assert unified_key("packet", spec) != a

    def test_key_sees_every_dynamics_knob(self, spec):
        base = unified_key("fluid", spec)
        tweaked = ScenarioSpec(
            protocols=spec.protocols, link=spec.link, steps=48, seed=7
        )
        assert unified_key("fluid", tweaked) != base

    def test_uncanonicalizable_spec_is_uncacheable(self, spec):
        spec.topology = object()  # no fields, no clone: cannot be keyed
        assert unified_key("network", spec) is None


class TestStoreRoundTrip:
    @pytest.mark.parametrize("backend", ["fluid", "meanfield", "network",
                                         "packet"])
    def test_round_trip_is_bit_identical(self, tmp_path, spec, backend):
        run_input = spec
        if backend == "packet":
            run_input = ScenarioSpec(
                protocols=spec.protocols, link=spec.link, duration=4.0, seed=1
            )
        trace = run_spec(run_input, backend, use_cache=False)
        cache = TraceCache(tmp_path)
        key = unified_key(backend, run_input)
        store_unified_trace(cache, key, trace)
        loaded = load_unified_trace(cache, key)
        assert loaded is not None
        assert loaded.backend == backend
        for name in ("windows", "observed_loss", "congestion_loss", "rtts",
                     "capacities", "pipe_limits", "base_rtts", "flow_rtts"):
            assert np.array_equal(
                getattr(loaded, name), getattr(trace, name), equal_nan=True
            ), name
        if trace.times is None:
            assert loaded.times is None
        else:
            assert np.array_equal(loaded.times, trace.times)

    def test_miss_returns_none(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert load_unified_trace(cache, "0" * 64) is None


class TestAccounting:
    def test_classify_and_stats_by_kind(self, tmp_path, spec):
        from repro.exec import PacketScenarioJob, default_executor

        packet_spec = ScenarioSpec(protocols=spec.protocols, link=spec.link,
                                   duration=4.0, seed=1)
        with cache_enabled(tmp_path) as cache:
            run_spec(spec, "fluid")
            run_spec(packet_spec, "packet")
            # Drivers that reduce raw event statistics submit native jobs.
            default_executor().run([PacketScenarioJob(packet_spec.lower_packet())])
            breakdown = stats_by_kind(cache)
            kinds = {
                classify_entry(path) for path in cache.entries()
            }
        # One unified entry per run_spec and one native entry per packet
        # job, all in the same directory; the engines write none of their own.
        assert kinds == {"unified:fluid", "unified:packet", "packet"}
        for kind in kinds:
            assert breakdown[kind]["entries"] == 1
            assert breakdown[kind]["bytes"] > 0
        assert list(breakdown) == sorted(breakdown)

    def test_unknown_entry_kind(self, tmp_path):
        cache = TraceCache(tmp_path)
        bogus = tmp_path / "ab" / ("ab" + "0" * 62 + ".npz")
        bogus.parent.mkdir(parents=True, exist_ok=True)
        bogus.write_bytes(b"not an npz archive")
        assert classify_entry(bogus) == "unknown"
        assert stats_by_kind(cache).get("unknown", {}).get("entries") == 1


class TestPruneCache:
    def _fill(self, tmp_path, count=4):
        import os
        import time

        from repro.perf.store import store_unified_trace as store

        cache = TraceCache(tmp_path)
        keys = []
        for i in range(count):
            spec_i = ScenarioSpec(
                protocols=[AIMD(1 + i, 0.5)] * 2,
                link=Link.from_mbps(20, 42, 100), steps=32,
            )
            trace = run_spec(spec_i, "fluid", use_cache=False)
            key = unified_key("fluid", spec_i)
            store(cache, key, trace)
            # Distinct mtimes so eviction order (oldest first) is observable.
            stamp = time.time() - (count - i) * 100
            path = cache._path(key)
            os.utime(path, (stamp, stamp))
            keys.append(key)
        return cache, keys

    def test_prunes_oldest_first_and_reports_reclaimed(self, tmp_path):
        from repro.perf.store import prune_cache

        cache, keys = self._fill(tmp_path)
        sizes = [path.stat().st_size for path in cache.entries()]
        keep = sum(sizes) - min(sizes)  # forces out at least one entry
        report = prune_cache(cache, max_bytes=keep)
        assert report["removed"] >= 1
        assert report["reclaimed_bytes"] > 0
        assert report["remaining_bytes"] <= keep
        assert report["remaining_entries"] == len(list(cache.entries()))
        # The oldest entry went; the newest survived.
        assert load_unified_trace(cache, keys[0]) is None
        assert load_unified_trace(cache, keys[-1]) is not None

    def test_zero_cap_empties_the_store(self, tmp_path):
        from repro.perf.store import prune_cache

        cache, _ = self._fill(tmp_path, count=2)
        report = prune_cache(cache, max_bytes=0)
        assert report["remaining_entries"] == 0
        assert list(cache.entries()) == []

    def test_dry_run_reports_the_same_plan_without_deleting(self, tmp_path):
        from repro.perf.store import prune_cache

        cache, keys = self._fill(tmp_path)
        sizes = [path.stat().st_size for path in cache.entries()]
        keep = sum(sizes) - min(sizes)
        rehearsal = prune_cache(cache, max_bytes=keep, dry_run=True)
        assert rehearsal["removed"] >= 1
        assert rehearsal["reclaimed_bytes"] > 0
        # Nothing was actually unlinked: every entry still loads.
        assert len(list(cache.entries())) == len(keys)
        for key in keys:
            assert load_unified_trace(cache, key) is not None
        # A real prune with the same cap matches the rehearsal's report.
        assert prune_cache(cache, max_bytes=keep) == rehearsal
        assert rehearsal["remaining_entries"] == len(list(cache.entries()))

    def test_no_cap_is_a_noop(self, tmp_path, monkeypatch):
        from repro.perf.store import CACHE_MAX_MB_ENV, prune_cache

        monkeypatch.delenv(CACHE_MAX_MB_ENV, raising=False)
        cache, _ = self._fill(tmp_path, count=2)
        before = len(list(cache.entries()))
        report = prune_cache(cache)
        assert report["removed"] == 0
        assert len(list(cache.entries())) == before

    def test_env_cap_applies_by_default(self, tmp_path, monkeypatch):
        from repro.perf.store import CACHE_MAX_MB_ENV, prune_cache

        cache, _ = self._fill(tmp_path, count=2)
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "0")
        report = prune_cache(cache)
        assert report["remaining_entries"] == 0

    def test_size_cap_parsing(self, monkeypatch):
        from repro.perf.store import CACHE_MAX_MB_ENV, size_cap_bytes

        monkeypatch.setattr("repro.perf.store._warned_cap_value", None)
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "2")
        assert size_cap_bytes() == 2 * 1024 * 1024
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "not-a-number")
        with pytest.warns(RuntimeWarning, match="not a number"):
            assert size_cap_bytes() is None
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "-1")
        with pytest.warns(RuntimeWarning, match="negative"):
            assert size_cap_bytes() is None
        for raw in ("nan", "inf"):  # int() of either raised out of every prune
            monkeypatch.setenv(CACHE_MAX_MB_ENV, raw)
            with pytest.warns(RuntimeWarning, match="not finite"):
                assert size_cap_bytes() is None
        monkeypatch.delenv(CACHE_MAX_MB_ENV)
        assert size_cap_bytes() is None


class TestExtractBatchTrace:
    def test_extracted_row_round_trips_through_the_cache(self, tmp_path):
        from repro.backends import run_specs
        from repro.perf.store import extract_batch_trace  # noqa: F401 (API)

        specs = [
            ScenarioSpec(protocols=[AIMD(1 + i, 0.5)] * 2,
                         link=Link.from_mbps(20, 42, 100), steps=32)
            for i in range(3)
        ]
        with cache_enabled(tmp_path) as cache:
            batched = run_specs(specs, "fluid", batch=True)
            assert cache.stats()["entries"] >= len(specs)
            # Warm rerun: serial run_spec reads the batched runs' entries.
            for spec_i, trace in zip(specs, batched):
                again = run_spec(spec_i, "fluid")
                for name in ("windows", "observed_loss", "congestion_loss",
                             "rtts", "capacities", "pipe_limits", "base_rtts",
                             "flow_rtts"):
                    a = np.ascontiguousarray(getattr(trace, name))
                    b = np.ascontiguousarray(getattr(again, name))
                    assert np.array_equal(
                        a.view(np.uint64), b.view(np.uint64)
                    ), name
