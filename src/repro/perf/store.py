"""The unified content-addressed store behind every backend.

One on-disk :class:`TraceCache` directory holds every entry kind; this
module defines the unified kind and the store-wide maintenance:

- :func:`unified_key` keys a run by ``(backend.name, canonical spec)`` —
  the one addressing scheme every spec job uses, whichever backend runs
  it (packet scenarios and workloads submitted natively keep the
  :mod:`repro.perf.packet_cache` keys, because their callers need the raw
  event statistics);
- :func:`store_unified_trace` / :func:`load_unified_trace` archive the
  :class:`~repro.backends.trace.UnifiedTrace` a backend produced, so a
  stored trace is bit-identical to a fresh one; the executor is their
  only caller. The layout (:func:`trace_to_arrays`, format 2) stores
  each value once: the per-flow copies of one synchronized feedback
  column and the constant link columns are rebuilt on load, and the
  window and RTT series are word deltas zlib can compress;
- :func:`classify_entry` / :func:`stats_by_kind` break the directory down
  per entry kind (unified-per-backend / packet, plus ``fluid`` for native
  fluid entries, which only stores written by older versions hold), which
  is what ``repro cache stats`` prints and ``repro cache clear`` reports;
- :func:`extract_batch_trace` slices one scenario's per-spec
  :class:`~repro.backends.trace.UnifiedTrace` out of a stacked
  :class:`~repro.model.batch.BatchResult`, so batched runs populate the
  same content-addressed entries a serial ``run_spec`` would;
- :func:`prune_cache` bounds the directory: entries are evicted oldest
  first until the store fits under a byte cap (``--max-mb`` on the CLI,
  or the ``REPRO_CACHE_MAX_MB`` environment default), reporting how many
  bytes were reclaimed; it also deletes the temp files killed writers
  left behind.

Like every key in :mod:`repro.perf.cache`, an input that cannot be
canonically keyed makes the run uncacheable (``None``) rather than wrongly
cacheable.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from pathlib import Path
from typing import Any

import numpy as np

from repro.perf.cache import (
    TEMP_PREFIX,
    CacheKeyError,
    TraceCache,
    _canonical,
    kind_from_members,
    sha256_hex,
)
from repro.perf.codec import unpack_arrays, word_deltas, word_sums

__all__ = [
    "unified_key",
    "trace_to_arrays",
    "trace_from_arrays",
    "store_unified_trace",
    "load_unified_trace",
    "extract_batch_trace",
    "classify_entry",
    "stats_by_kind",
    "prune_cache",
    "size_cap_bytes",
]

#: Environment variable holding the default size cap in megabytes.
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: A temp file older than this is a dead writer's leftover (a live write
#: takes milliseconds); :func:`prune_cache` deletes it.
STALE_TEMP_SECONDS = 600.0

#: Bump when the spec canonicalization or the stored layout changes.
_KEY_VERSION = 2
_FORMAT_VERSION = 2

#: Per-step link columns, stored as one scalar when every step has the
#: same bits.
_LINK_FIELDS = ("capacities", "pipe_limits", "base_rtts")


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def unified_key(backend_name: str, spec) -> str | None:
    """A stable content hash of ``(backend, spec)``, or ``None``.

    The spec is canonicalized exactly like the native cache inputs
    (floats by bit pattern, protocols by their reset attribute dict), so
    two specs collide iff they describe the same simulation on the same
    backend.
    """
    try:
        payload = {
            "kind": "unified",
            "version": _KEY_VERSION,
            "backend": str(backend_name),
            "spec": _canonical(spec),
        }
    except CacheKeyError:
        return None
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256_hex(blob.encode("utf-8"))


# ----------------------------------------------------------------------
# UnifiedTrace <-> arrays
# ----------------------------------------------------------------------
def trace_to_arrays(trace: Any) -> dict[str, np.ndarray]:
    """The archived array form of a UnifiedTrace (format 2).

    The one encoding shared by the on-disk store and the serve layer's
    wire format, so the two can never drift. Each value is stored once,
    decided by comparing bit patterns (never floats, whose ``==`` equates
    -0.0 with 0.0 and no NaN with itself):

    - ``windows``, ``rtts`` and a per-flow ``flow_rtts`` are word deltas
      (:func:`repro.perf.codec.word_deltas`);
    - ``observed_loss`` is one column when all its columns have the same
      bits;
    - a ``flow_rtts`` with the bits of ``rtts`` in every column is not
      stored: the ``flow_rtts_from_rtts`` flag records it;
    - a link column whose steps all have the same bits is one scalar;
    - ``congestion_loss`` and ``times`` are stored as they are.
    """
    arrays: dict[str, np.ndarray] = {
        "unified_format": np.int64(_FORMAT_VERSION),
        "unified_backend": np.array(trace.backend),
        "windows": word_deltas(trace.windows),
        "rtts": word_deltas(trace.rtts),
        "observed_loss": _collapse(trace.observed_loss),
        "congestion_loss": trace.congestion_loss,
        **{name: _collapse(getattr(trace, name)) for name in _LINK_FIELDS},
    }
    if trace.flow_rtts is not None:
        if (_bits(trace.flow_rtts) == _bits(trace.rtts)[:, None]).all():
            arrays["flow_rtts_from_rtts"] = np.array(True)
        else:
            arrays["flow_rtts"] = word_deltas(trace.flow_rtts)
    if trace.times is not None:
        arrays["times"] = trace.times
    return arrays


def _bits(values: np.ndarray) -> np.ndarray:
    # int64 words compare equal iff their bits do, as uint64 words would;
    # the engines already run int64 comparisons, and a first uint64 one
    # pages in code that raised a serving process's peak RSS.
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def _collapse(values: np.ndarray) -> np.ndarray:
    """``values`` without its last axis if every entry along it has the same bits."""
    bits = _bits(values)
    if bits.shape[-1] and (bits == bits[..., :1]).all():
        return values[..., 0]
    return values


def _expand(stored: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The array of ``shape`` that :func:`_collapse` stored, in fresh memory.

    Entries come from disk or the network: a column that does not fit
    ``shape`` is refused before it is repeated, not after.
    """
    if stored.ndim == len(shape):
        return stored.copy()
    if stored.shape != shape[:-1]:
        raise ValueError(f"a stored {stored.shape} column does not fit {shape}")
    return np.repeat(stored[..., None], shape[-1], axis=-1)


def trace_from_arrays(arrays: dict[str, np.ndarray]) -> Any | None:
    """Rebuild a UnifiedTrace from :func:`trace_to_arrays` output.

    Every field is a fresh array, never a view into ``arrays``: a view
    would keep the whole decoded bundle alive. Returns ``None`` on a
    format-version mismatch: an entry written by a different layout
    revision is a miss (and is dropped), not an error.
    """
    from repro.backends.trace import UnifiedTrace

    if int(arrays.get("unified_format", -1)) != _FORMAT_VERSION:
        return None
    windows = word_sums(arrays["windows"])
    rtts = word_sums(arrays["rtts"])
    if "flow_rtts" in arrays:
        flow_rtts = word_sums(arrays["flow_rtts"])
    elif "flow_rtts_from_rtts" in arrays:
        flow_rtts = _expand(rtts, windows.shape)
    else:
        flow_rtts = None
    times = arrays.get("times")
    return UnifiedTrace(
        windows=windows,
        observed_loss=_expand(arrays["observed_loss"], windows.shape),
        congestion_loss=arrays["congestion_loss"].copy(),
        rtts=rtts,
        **{name: _expand(arrays[name], rtts.shape) for name in _LINK_FIELDS},
        backend=str(arrays["unified_backend"]),
        flow_rtts=flow_rtts,
        times=None if times is None else times.copy(),
    )


def store_unified_trace(cache: TraceCache, key: str, trace: Any) -> None:
    """Archive a :class:`~repro.backends.trace.UnifiedTrace` under ``key``."""
    cache.put_arrays(key, trace_to_arrays(trace))


def load_unified_trace(cache: TraceCache, key: str) -> Any | None:
    """The cached UnifiedTrace for ``key``, or ``None`` on a miss."""
    return cache.get_arrays(key, decode=trace_from_arrays)


# ----------------------------------------------------------------------
# Batch-result extraction
# ----------------------------------------------------------------------
def extract_batch_trace(
    result,
    row: int,
    capacity: float,
    pipe_limit: float,
    base_rtt: float,
    backend: str = "fluid",
):
    """Scenario ``row``'s :class:`~repro.backends.trace.UnifiedTrace` from
    a stacked :class:`~repro.model.batch.BatchResult`.

    The per-flow arrays are copied out of the batch (so the trace owns its
    data once the batch buffers are released), and the shared per-step
    feedback is expanded across flows exactly as the serial engine records
    it — the extracted trace is field-for-field what ``run_spec`` on the
    serial path returns for the same scenario.
    """
    from repro.backends.trace import UnifiedTrace

    steps, _, n = result.windows.shape
    rtts = np.ascontiguousarray(result.rtts[:, row])
    return UnifiedTrace(
        windows=np.ascontiguousarray(result.windows[:, row, :]),
        observed_loss=np.repeat(result.observed_loss[:, row][:, None], n, axis=1),
        congestion_loss=np.ascontiguousarray(result.congestion_loss[:, row]),
        rtts=rtts,
        capacities=np.full(steps, capacity),
        pipe_limits=np.full(steps, pipe_limit),
        base_rtts=np.full(steps, base_rtt),
        backend=backend,
        flow_rtts=np.repeat(rtts[:, None], n, axis=1),
    )


# ----------------------------------------------------------------------
# Size cap / pruning
# ----------------------------------------------------------------------
#: The last ``REPRO_CACHE_MAX_MB`` value already warned about, so a
#: misconfigured cap is reported once per process, not once per call.
_warned_cap_value: str | None = None


def _warn_bad_cap(raw: str, reason: str) -> None:
    global _warned_cap_value
    if raw == _warned_cap_value:
        return
    _warned_cap_value = raw
    warnings.warn(
        f"ignoring {CACHE_MAX_MB_ENV}={raw!r}: {reason}; "
        "the cache size cap is OFF",
        RuntimeWarning,
        stacklevel=3,
    )


def size_cap_bytes() -> int | None:
    """The ``REPRO_CACHE_MAX_MB`` cap in bytes, or ``None`` when unset.

    A malformed, negative or non-finite value is rejected with a one-time
    :class:`RuntimeWarning` naming the value — a misconfigured cap would
    otherwise be an invisible no-op.
    """
    raw = os.environ.get(CACHE_MAX_MB_ENV)
    if not raw:
        return None
    try:
        mb = float(raw)
    except ValueError:
        _warn_bad_cap(raw, "not a number")
        return None
    if not math.isfinite(mb):
        _warn_bad_cap(raw, "not finite")
        return None
    if mb < 0:
        _warn_bad_cap(raw, "negative")
        return None
    return int(mb * 1024 * 1024)


def prune_cache(
    cache: TraceCache,
    max_bytes: int | None = None,
    dry_run: bool = False,
) -> dict[str, int]:
    """Evict entries, oldest first, until the store fits ``max_bytes``.

    ``max_bytes`` defaults to the ``REPRO_CACHE_MAX_MB`` environment cap;
    with neither set the call is a no-op. Age is the entry file's mtime
    (write time — entries are immutable once written), with the path as a
    deterministic tie-break. Returns the number of entries removed, the
    bytes reclaimed, what remains, and how many stale temp files (older
    than :data:`STALE_TEMP_SECONDS`) were deleted — whatever the cap. With
    ``dry_run`` nothing is deleted: the report describes what eviction
    *would* do (the "removed"/"remaining" numbers are the hypothetical
    outcome).
    """
    if max_bytes is None:
        max_bytes = size_cap_bytes()
    stale_before = time.time() - STALE_TEMP_SECONDS
    stale = 0
    for tmp in cache.directory.glob(f"*/{TEMP_PREFIX}*"):
        try:
            if tmp.stat().st_mtime < stale_before:
                if not dry_run:
                    tmp.unlink()
                stale += 1
        except OSError:
            continue  # finished or reclaimed concurrently
    entries = []
    for path in cache.entries():
        try:
            entries.append((path, path.stat()))
        except OSError:
            continue  # evicted by a concurrent prune mid-scan
    total = sum(stat.st_size for _, stat in entries)
    removed = 0
    reclaimed = 0
    if max_bytes is not None:
        for path, stat in sorted(
            entries, key=lambda item: (item[1].st_mtime, str(item[0]))
        ):
            if total - reclaimed <= max_bytes:
                break
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            removed += 1
            reclaimed += stat.st_size
    if removed and not dry_run:
        cache.compact_index()
    return {
        "removed": removed,
        "reclaimed_bytes": reclaimed,
        "remaining_entries": len(entries) - removed,
        "remaining_bytes": total - reclaimed,
        "stale_temp_files": stale,
    }


# ----------------------------------------------------------------------
# Per-kind accounting
# ----------------------------------------------------------------------
def classify_entry(path: Path) -> str:
    """The kind of one cache entry file, from its member names.

    Kinds: ``fluid`` (native fluid traces, which only older versions
    wrote), ``packet`` (native packet statistics), ``unified:<backend>``
    (unified-store traces), and ``unknown`` for anything unreadable or
    unrecognized. The kind follows
    from the member names plus, for unified entries, the one-string
    backend member; decoding the entry also verifies its checksum, so a
    corrupt entry is ``unknown``.
    """
    try:
        arrays = unpack_arrays(path.read_bytes())
    except (OSError, ValueError):
        return "unknown"
    backend = arrays.get("unified_backend")
    return kind_from_members(set(arrays), None if backend is None else str(backend))


def stats_by_kind(cache: TraceCache) -> dict[str, dict[str, Any]]:
    """Entry counts and on-disk bytes per entry kind, sorted by kind.

    Kinds come from the store's ``index.ndjson`` (written at put time),
    so no payload is opened on the steady-state path; an entry the index
    doesn't know (a pre-index store, say) is classified from its member
    names once and the record is appended, so the next scan is
    index-only. Entries another process evicts
    mid-iteration are skipped rather than crashing the scan.
    """
    index = cache.read_index()
    breakdown: dict[str, dict[str, Any]] = {}
    for path in cache.entries():
        try:
            nbytes = path.stat().st_size
        except OSError:
            continue  # evicted by a concurrent prune mid-scan
        kind = index.get(path.stem)
        if kind is None:
            kind = classify_entry(path)
            cache.index_append(path.stem, kind, nbytes)
        bucket = breakdown.setdefault(kind, {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += nbytes
    return dict(sorted(breakdown.items()))
