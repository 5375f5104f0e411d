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

The stored payload is the *statistics*, not the event stream, so entries
are small (a few KB per run) while a warm hit skips the entire
simulation. Reloaded stats round-trip bit-exactly: every float travels as
float64 through the bundle and back into the same Python lists. An entry
whose format tag does not match this module's is a miss and is dropped,
so the next store rewrites it.

Entries live in the same :class:`~repro.perf.cache.TraceCache` directory
as fluid traces and obey the same activation rules (``REPRO_SIM_CACHE``
or :func:`~repro.perf.cache.configure_cache`); the key payloads carry a
``kind`` tag so packet entries can never collide with fluid ones.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Sequence

import numpy as np

from repro.model.link import Link
from repro.packetsim.host import FlowStats
from repro.packetsim.queue import OccupancyRing, QueueStats
from repro.perf.cache import CacheKeyError, TraceCache, _canonical
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
_FORMAT_VERSION = 1

#: ``completed_at`` is ``None`` for unfinished flows; NaN marks that in
#: the stored float64 scalar (a real completion time is never NaN).
_NO_COMPLETION = math.nan


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
    arrays[prefix + "ack_times"] = np.asarray(stats.ack_times, dtype=np.float64)
    arrays[prefix + "loss_times"] = np.asarray(stats.loss_times, dtype=np.float64)
    arrays[prefix + "rtt_samples"] = np.asarray(stats.rtt_samples, dtype=np.float64)
    window = np.asarray(stats.window_samples, dtype=np.float64)
    arrays[prefix + "window_samples"] = window.reshape(-1, 2)


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
        ack_times=arrays[prefix + "ack_times"].tolist(),
        loss_times=arrays[prefix + "loss_times"].tolist(),
        rtt_samples=arrays[prefix + "rtt_samples"].tolist(),
        window_samples=list(map(tuple, arrays[prefix + "window_samples"].tolist())),
        rounds_completed=rounds,
        completed_at=None if math.isnan(completed) else completed,
        retransmissions=retrans,
    )


def _pack_queue(stats: QueueStats, arrays: dict) -> None:
    arrays["queue_counters"] = np.array(
        [stats.enqueued, stats.dropped, stats.departed, stats.max_occupancy],
        dtype=np.int64,
    )
    ring = stats.occupancy_ring
    if ring is not None:
        times, values = ring.arrays()
        arrays["queue_ring_times"] = times
        arrays["queue_ring_values"] = values
        arrays["queue_ring_meta"] = np.array(
            [ring.budget, ring.stride, ring.seen], dtype=np.int64
        )


def _unpack_queue(arrays: dict) -> QueueStats:
    enqueued, dropped, departed, max_occ = (
        int(v) for v in arrays["queue_counters"]
    )
    ring = None
    if "queue_ring_meta" in arrays:
        budget, stride, seen = (int(v) for v in arrays["queue_ring_meta"])
        ring = OccupancyRing(budget)
        ring.restore(
            arrays["queue_ring_times"], arrays["queue_ring_values"], stride, seen
        )
    return QueueStats(
        enqueued=enqueued,
        dropped=dropped,
        departed=departed,
        max_occupancy=max_occ,
        occupancy_ring=ring,
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
    _pack_queue(result.queue, arrays)
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
            queue=_unpack_queue(arrays),
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
