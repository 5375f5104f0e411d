"""The sharded store's entry-kind index, temp files, and race guards."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.backends import ScenarioSpec, run_spec
from repro.model.link import Link
from repro.perf.cache import TraceCache, kind_from_members
from repro.perf.store import (
    STALE_TEMP_SECONDS,
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

    def test_record_after_a_torn_tail_survives(self, tmp_path):
        # A writer died mid-append: the last line has no newline.
        cache, key = _populate(tmp_path)
        with open(cache.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"bytes": 12, "ke')
        cache.index_append("b" * 64, "packet", 20)
        index = cache.read_index()
        assert index["b" * 64] == "packet"
        assert index[key] == "unified:fluid"
        assert cache.index_path.read_text(encoding="utf-8").endswith("\n")

    def test_entry_lost_in_a_torn_line_is_reclassified(self, tmp_path, monkeypatch):
        # The packet entry's record is the torn line: stats_by_kind
        # classifies the entry itself and re-appends a whole record.
        cache, _ = _populate(tmp_path)
        lines = cache.index_path.read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if PACKET_KEY not in line]
        torn = next(line for line in lines if PACKET_KEY in line)[:-12]
        cache.index_path.write_text("\n".join(kept) + "\n" + torn, encoding="utf-8")
        assert PACKET_KEY not in cache.read_index()
        breakdown = stats_by_kind(cache)
        assert breakdown["packet"]["entries"] == 1
        assert cache.read_index()[PACKET_KEY] == "packet"
        monkeypatch.setattr(
            "repro.perf.store.unpack_arrays",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("reopened")),
        )
        assert stats_by_kind(cache) == breakdown

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


class TestTempFiles:
    """A writer killed between write and rename leaves a ``.tmp-*`` file."""

    def _plant(self, cache: TraceCache, key: str, age_s: float):
        shard = cache._path(key).parent
        shard.mkdir(parents=True, exist_ok=True)
        tmp = shard / f".tmp-99999-{key[:16]}.npz"
        tmp.write_bytes(b"partial write")
        stamp = time.time() - age_s
        os.utime(tmp, (stamp, stamp))
        return tmp

    def test_scans_skip_temp_files_and_prune_reclaims_stale_ones(self, tmp_path):
        cache, key = _populate(tmp_path)
        fresh = self._plant(cache, key, age_s=1.0)
        stale = self._plant(cache, "ab" + "1" * 62, age_s=STALE_TEMP_SECONDS + 60)
        assert [p.name for p in cache.entries()] == sorted(
            f"{k}.npz" for k in (key, FLUID_KEY, PACKET_KEY)
        )
        assert cache.stats()["entries"] == 3
        assert "unknown" not in stats_by_kind(cache)
        rehearsal = prune_cache(cache, max_bytes=10**9, dry_run=True)
        assert rehearsal["stale_temp_files"] == 1 and stale.is_file()
        report = prune_cache(cache, max_bytes=10**9)
        assert report["stale_temp_files"] == 1
        assert report["removed"] == 0 and report["remaining_entries"] == 3
        assert fresh.is_file()  # may belong to a live writer
        assert not stale.exists()


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
