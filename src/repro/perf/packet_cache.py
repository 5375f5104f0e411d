"""Content-addressed caching of packet-level runs.

The packet simulator is deterministic: a :class:`PacketScenario` (or a
workload's ``(link, specs, duration, background, slow_start,
initial_window)`` tuple) fully determines every statistic it produces —
the RNG is seeded and the event order is fixed by the ``(time, seq)``
tie-break. That makes packet runs content-addressable exactly like the
fluid traces in :mod:`repro.perf.cache`: canonicalize the inputs (floats
by bit pattern, protocols by their reset attribute dict), hash, and
archive the resulting ``FlowStats``/``QueueStats`` as arrays under the
hash, in the store's array-bundle format (:mod:`repro.perf.codec`).

The stored payload is the *statistics*, not the event stream: each
flow's counters and completion time, and every ACK time, loss time, RTT
sample and window sample, plus the queue's counters. Format 2 stores
the four per-flow sample series as word deltas
(:func:`repro.perf.codec.word_deltas`), which zlib compresses where raw
float64 barely shrinks: an Emulab-sized run (four Reno flows, 10 s at
20 Mbps) is a 14 KB entry instead of 100 KB. Reloaded stats round-trip
bit-exactly into the ``array('d')`` buffers ``FlowStats`` holds, each
decoded with one bytes copy, so no sample becomes a Python float and no
series keeps the bundle alive; ``throughputs``, ``tail_loss_rates``, the
window reducers and :func:`~repro.backends.trace.from_packet_result`'s
histograms read the values the run produced. ``window_samples`` comes
back as the list of ``(time, window)`` tuples it was. An entry whose
format tag does not match this module's is a miss and is dropped, so the
next store rewrites it.

Entries live in the same :class:`~repro.perf.cache.TraceCache` directory
as fluid traces and obey the same activation rules (``REPRO_SIM_CACHE``
or :func:`~repro.perf.cache.configure_cache`); the key payloads carry a
``kind`` tag so packet entries can never collide with fluid ones.
"""

from __future__ import annotations

import json
import math
from array import array
from typing import Sequence

import numpy as np

from repro.model.link import Link
from repro.packetsim.host import SAMPLE_FIELDS, FlowStats
from repro.packetsim.queue import QueueStats
from repro.perf.cache import CacheKeyError, TraceCache, _canonical, sha256_hex
from repro.perf.codec import word_deltas, word_sums
from repro.protocols.base import Protocol

__all__ = [
    "scenario_key",
    "workload_key",
    "load_scenario_result",
    "store_scenario_result",
    "load_workload_result",
    "store_workload_result",
]

#: Bump when the canonicalization or the stored array layout changes.
_KEY_VERSION = 1
_FORMAT_VERSION = 2

#: ``completed_at`` is ``None`` for unfinished flows; NaN marks that in
#: the stored float64 scalar (a real completion time is never NaN).
_NO_COMPLETION = math.nan


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256_hex(blob.encode("utf-8"))


def scenario_key(scenario) -> str | None:
    """A stable content hash of one packet scenario, or ``None``.

    ``None`` means some input could not be canonically keyed and the run
    must not be cached (wrongly-shared entries are worse than misses).
    """
    try:
        payload = {
            "kind": "packet_scenario",
            "version": _KEY_VERSION,
            "scenario": _canonical(scenario),
        }
    except CacheKeyError:
        return None
    return _digest(payload)


def workload_key(
    link: Link,
    specs: Sequence,
    duration: float,
    background: Sequence[Protocol],
    slow_start: bool,
    initial_window: float,
) -> str | None:
    """A stable content hash of one finite-flow workload run, or ``None``."""
    try:
        payload = {
            "kind": "packet_workload",
            "version": _KEY_VERSION,
            "link": _canonical(link),
            "specs": [_canonical(spec) for spec in specs],
            "duration": _canonical(float(duration)),
            "background": [_canonical(p) for p in background],
            "slow_start": bool(slow_start),
            "initial_window": _canonical(float(initial_window)),
        }
    except CacheKeyError:
        return None
    return _digest(payload)


# ----------------------------------------------------------------------
# FlowStats / QueueStats <-> arrays
# ----------------------------------------------------------------------
def _pack_flow(index: int, stats: FlowStats, arrays: dict) -> None:
    prefix = f"flow{index}_"
    arrays[prefix + "counters"] = np.array(
        [
            stats.packets_sent,
            stats.packets_acked,
            stats.packets_lost,
            stats.rounds_completed,
            stats.retransmissions,
        ],
        dtype=np.int64,
    )
    arrays[prefix + "completed_at"] = np.float64(
        _NO_COMPLETION if stats.completed_at is None else stats.completed_at
    )
    for name in SAMPLE_FIELDS:
        arrays[prefix + name] = word_deltas(getattr(stats, name))
    window = np.asarray(stats.window_samples, dtype=np.float64)
    arrays[prefix + "window_samples"] = word_deltas(window.reshape(-1, 2))


def _series(words: np.ndarray) -> array:
    """One stored sample series as an ``array('d')``.

    The decoded words are copied in once, through a byte view: no Python
    float per sample, no intermediate bytes object, and no view that
    keeps the bundle alive.
    """
    series = array("d")
    series.frombytes(memoryview(word_sums(words)).cast("B"))
    return series


def _unpack_flow(index: int, arrays: dict) -> FlowStats:
    prefix = f"flow{index}_"
    sent, acked, lost, rounds, retrans = (
        int(v) for v in arrays[prefix + "counters"]
    )
    completed = float(arrays[prefix + "completed_at"])
    return FlowStats(
        packets_sent=sent,
        packets_acked=acked,
        packets_lost=lost,
        **{name: _series(arrays[prefix + name]) for name in SAMPLE_FIELDS},
        window_samples=list(
            map(tuple, word_sums(arrays[prefix + "window_samples"]).tolist())
        ),
        rounds_completed=rounds,
        completed_at=None if math.isnan(completed) else completed,
        retransmissions=retrans,
    )


# ----------------------------------------------------------------------
# Scenario results
# ----------------------------------------------------------------------
def store_scenario_result(cache: TraceCache, key: str, result) -> None:
    """Archive a :class:`~repro.packetsim.scenario.ScenarioResult`."""
    arrays: dict = {
        "format": np.int64(_FORMAT_VERSION),
        "meta": np.array(
            [len(result.flows), result.events], dtype=np.int64
        ),
        "duration": np.float64(result.duration),
    }
    for index, stats in enumerate(result.flows):
        _pack_flow(index, stats, arrays)
    queue = result.queue
    arrays["queue_counters"] = np.array(
        [queue.enqueued, queue.dropped, queue.departed, queue.max_occupancy],
        dtype=np.int64,
    )
    cache.put_arrays(key, arrays)


def load_scenario_result(cache: TraceCache, key: str, scenario):
    """The cached ScenarioResult for ``key``, or ``None`` on a miss."""
    from repro.packetsim.scenario import ScenarioResult

    def decode(arrays: dict):
        if int(arrays.get("format", -1)) != _FORMAT_VERSION:
            return None
        n_flows, events = (int(v) for v in arrays["meta"])
        return ScenarioResult(
            scenario=scenario,
            flows=[_unpack_flow(i, arrays) for i in range(n_flows)],
            queue=QueueStats(*(int(v) for v in arrays["queue_counters"])),
            duration=float(arrays["duration"]),
            events=events,
        )

    return cache.get_arrays(key, decode=decode)


# ----------------------------------------------------------------------
# Workload results
# ----------------------------------------------------------------------
def store_workload_result(cache: TraceCache, key: str, result) -> None:
    """Archive a :class:`~repro.packetsim.workload.WorkloadResult`."""
    arrays: dict = {
        "format": np.int64(_FORMAT_VERSION),
        "meta": np.array([len(result.flows)], dtype=np.int64),
        "duration": np.float64(result.duration),
    }
    for index, stats in enumerate(result.flows):
        _pack_flow(index, stats, arrays)
    cache.put_arrays(key, arrays)


def load_workload_result(cache: TraceCache, key: str, specs, duration: float):
    """The cached WorkloadResult for ``key``, or ``None`` on a miss."""
    from repro.packetsim.workload import WorkloadResult

    def decode(arrays: dict):
        if int(arrays.get("format", -1)) != _FORMAT_VERSION:
            return None
        (n_flows,) = (int(v) for v in arrays["meta"])
        if n_flows != len(specs):
            return None
        return WorkloadResult(
            specs=list(specs),
            flows=[_unpack_flow(i, arrays) for i in range(n_flows)],
            duration=float(arrays["duration"]),
        )

    return cache.get_arrays(key, decode=decode)
