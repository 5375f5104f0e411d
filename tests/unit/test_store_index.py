"""The sharded store's entry-kind index, flat migration, and race guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import ScenarioSpec, run_spec
from repro.model.link import Link
from repro.perf.cache import TraceCache, kind_from_members
from repro.perf.store import (
    prune_cache,
    stats_by_kind,
    store_unified_trace,
    unified_key,
)
from repro.protocols.aimd import AIMD

FLUID_KEY = "ab" * 32
PACKET_KEY = "cd" * 32


def _spec(alpha: float = 1.0) -> ScenarioSpec:
    return ScenarioSpec(
        protocols=[AIMD(alpha, 0.5)] * 2,
        link=Link.from_mbps(20, 42, 100),
        steps=32,
    )


def _populate(tmp_path) -> tuple[TraceCache, str]:
    """A store holding one entry of each kind; returns it plus the unified key."""
    cache = TraceCache(tmp_path)
    spec = _spec()
    trace = run_spec(spec, "fluid", use_cache=False)
    key = unified_key("fluid", spec)
    assert key is not None
    store_unified_trace(cache, key, trace)
    cache.put(FLUID_KEY, trace)
    cache.put_arrays(
        PACKET_KEY, {"format": np.array(1), "meta": np.zeros(3)}
    )
    return cache, key


class TestKindFromMembers:
    def test_recognized_kinds(self):
        assert kind_from_members({"unified_backend", "windows"}, "fluid") == \
            "unified:fluid"
        assert kind_from_members({"format_version", "windows"}) == "fluid"
        assert kind_from_members({"format", "meta"}) == "packet"
        assert kind_from_members({"mystery"}) == "unknown"
        # A unified entry whose backend member the caller did not decode.
        assert kind_from_members({"unified_backend"}) == "unknown"


class TestIndex:
    def test_puts_write_index_records(self, tmp_path):
        cache, key = _populate(tmp_path)
        index = cache.read_index()
        assert index[key] == "unified:fluid"
        assert index[FLUID_KEY] == "fluid"
        assert index[PACKET_KEY] == "packet"

    def test_stats_by_kind_opens_no_payloads(self, tmp_path, monkeypatch):
        cache, key = _populate(tmp_path)

        def _boom(*args, **kwargs):
            raise AssertionError("stats_by_kind opened a payload")

        monkeypatch.setattr("repro.perf.store.unpack_arrays", _boom)
        breakdown = stats_by_kind(cache)
        assert breakdown["unified:fluid"]["entries"] == 1
        assert breakdown["fluid"]["entries"] == 1
        assert breakdown["packet"]["entries"] == 1
        assert all(info["bytes"] > 0 for info in breakdown.values())

    def test_missing_index_self_heals(self, tmp_path, monkeypatch):
        cache, _ = _populate(tmp_path)
        cache.index_path.unlink()
        first = stats_by_kind(cache)  # classifies payloads, re-appends
        assert sum(info["entries"] for info in first.values()) == 3
        monkeypatch.setattr(
            "repro.perf.store.unpack_arrays",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("reopened")),
        )
        assert stats_by_kind(cache) == first

    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        cache, key = _populate(tmp_path)
        with open(cache.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "aa", "kind":\n')   # torn mid-record
            handle.write('[1, 2, 3]\n')               # valid JSON, wrong shape
            handle.write("\n")
        index = cache.read_index()
        assert index[key] == "unified:fluid"
        assert "aa" not in index

    def test_prune_compacts_stale_records(self, tmp_path):
        cache, _ = _populate(tmp_path)
        assert len(cache.read_index()) == 3
        report = prune_cache(cache, max_bytes=0)
        assert report["remaining_entries"] == 0
        assert cache.read_index() == {}

    def test_dry_run_prune_leaves_index_alone(self, tmp_path):
        cache, _ = _populate(tmp_path)
        before = cache.index_path.read_bytes()
        prune_cache(cache, max_bytes=0, dry_run=True)
        assert cache.index_path.read_bytes() == before


class TestFlatMigration:
    def _flatten(self, cache: TraceCache) -> list[str]:
        """Rewrite the store into the legacy flat layout (no index)."""
        keys = []
        for path in sorted(cache.directory.glob("*/*.npz")):
            path.rename(cache.directory / path.name)
            path.parent.rmdir()
            keys.append(path.stem)
        cache.index_path.unlink(missing_ok=True)
        return keys

    def test_lookup_relocates_flat_entry(self, tmp_path):
        cache, key = _populate(tmp_path)
        self._flatten(cache)
        arrays = cache.get_arrays(key)
        assert arrays is not None and "unified_backend" in arrays
        assert (cache.directory / key[:2] / f"{key}.npz").is_file()
        assert not (cache.directory / f"{key}.npz").exists()

    def test_entries_sweeps_stragglers(self, tmp_path):
        cache, _ = _populate(tmp_path)
        keys = self._flatten(cache)
        entries = cache.entries()
        assert sorted(path.stem for path in entries) == sorted(keys)
        assert all(path.parent != cache.directory for path in entries)
        assert cache.migrate_flat_entries() == 0  # nothing left to move

    def test_flat_store_survives_stats_and_get(self, tmp_path):
        cache, key = _populate(tmp_path)
        spec_trace = cache.get(FLUID_KEY)
        self._flatten(cache)
        breakdown = stats_by_kind(cache)
        assert sum(info["entries"] for info in breakdown.values()) == 3
        again = cache.get(FLUID_KEY)
        assert again is not None
        assert np.array_equal(
            np.asarray(spec_trace.windows), np.asarray(again.windows)
        )

    def test_temp_files_are_not_migrated(self, tmp_path):
        cache, _ = _populate(tmp_path)
        junk = cache.directory / ".tmp-999-deadbeef.npz"
        junk.write_bytes(b"partial write")
        cache.migrate_flat_entries()
        assert junk.is_file()  # left where the writer put it


class TestRaceGuards:
    def test_stats_by_kind_skips_vanished_entries(self, tmp_path, monkeypatch):
        cache, _ = _populate(tmp_path)
        real = cache.entries()
        ghost = cache.directory / "ee" / ("ee" * 32 + ".npz")
        monkeypatch.setattr(
            TraceCache, "entries", lambda self: real + [ghost]
        )
        breakdown = stats_by_kind(cache)
        assert sum(info["entries"] for info in breakdown.values()) == len(real)

    def test_prune_skips_vanished_entries(self, tmp_path, monkeypatch):
        cache, _ = _populate(tmp_path)
        real = cache.entries()
        ghost = cache.directory / "ee" / ("ee" * 32 + ".npz")
        monkeypatch.setattr(
            TraceCache, "entries", lambda self: real + [ghost]
        )
        report = prune_cache(cache, max_bytes=0)
        assert report["removed"] == len(real)

    def test_index_append_survives_unwritable_store(self, tmp_path):
        cache = TraceCache(tmp_path / "nope" / "deeper")
        cache.index_append("aa" * 32, "fluid", 1)  # no directory: no raise
        assert cache.read_index() == {}


class TestCapWarning:
    def test_bad_values_warn_once_per_value(self, monkeypatch):
        from repro.perf.store import CACHE_MAX_MB_ENV, size_cap_bytes

        monkeypatch.setattr("repro.perf.store._warned_cap_value", None)
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "lots")
        with pytest.warns(RuntimeWarning, match="not a number"):
            assert size_cap_bytes() is None
        import warnings as _warnings

        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            assert size_cap_bytes() is None  # same value: silent
        assert caught == []
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "-3")
        with pytest.warns(RuntimeWarning, match="negative"):
            assert size_cap_bytes() is None

    def test_valid_values_do_not_warn(self, monkeypatch):
        import warnings as _warnings

        from repro.perf.store import CACHE_MAX_MB_ENV, size_cap_bytes

        monkeypatch.setenv(CACHE_MAX_MB_ENV, "8")
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            assert size_cap_bytes() == 8 * 1024 * 1024
        assert caught == []
