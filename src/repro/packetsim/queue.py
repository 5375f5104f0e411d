"""The bottleneck's FIFO droptail queue with serialization.

Packets arriving while the buffer holds ``capacity`` packets are dropped
(droptail). Queued packets are serialized at the link rate (one MSS takes
``1 / bandwidth`` seconds) and then handed to a sink callback after the
one-way propagation delay, which the scenario wires to the receiver.
Dropped packets are reported to a drop callback so the sender can learn
of the loss (the scenario delays that notification by one RTT, standing
in for duplicate-ACK detection).

Serialization completions are scheduled on a fixed-delay
:class:`~repro.packetsim.engine.Rail` the caller passes in (one
``QUEUE_SERVICE`` record per packet, no closures), and occupancy
sampling goes through a bounded :class:`OccupancyRing` instead of an
unbounded Python list, so a queue's memory footprint no longer grows
with run length.

The two per-packet handlers, :meth:`BottleneckQueue.arrive` and
:meth:`BottleneckQueue._finish_service`, start the next service and take
the (optional) occupancy sample inline, so a packet costs one call into
the queue per event.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import debug
from repro.packetsim.engine import EventKind, EventScheduler, Rail
from repro.packetsim.packet import Packet

_QUEUE_SERVICE = int(EventKind.QUEUE_SERVICE)

#: Default cap on stored occupancy samples (see :class:`OccupancyRing`).
DEFAULT_SAMPLE_BUDGET = 4096


class OccupancyRing:
    """Bounded, decimating store of ``(time, occupancy)`` samples.

    Holds at most ``budget`` samples in NumPy arrays that grow lazily.
    While under budget every ``stride``-th observation is kept (stride
    starts at 1 — keep everything). On hitting the budget the ring keeps
    the even-indexed half of its samples and doubles the stride, so a run
    of any length retains between ``budget / 2`` and ``budget`` samples,
    evenly thinned over the whole run. The decimation is a pure function
    of the observation sequence — no randomness — so identical runs keep
    identical samples.
    """

    __slots__ = ("budget", "_times", "_values", "_count", "stride", "seen")

    def __init__(self, budget: int = DEFAULT_SAMPLE_BUDGET) -> None:
        if budget < 2:
            raise ValueError(f"sample budget must be at least 2, got {budget}")
        # An even budget keeps decimation phase-aligned: surviving samples
        # sit at observation indices that are multiples of the new stride.
        self.budget = budget - (budget % 2)
        initial = min(256, self.budget)
        self._times = np.empty(initial, dtype=np.float64)
        self._values = np.empty(initial, dtype=np.int64)
        self._count = 0
        self.stride = 1
        self.seen = 0

    def __len__(self) -> int:
        return self._count

    def push(self, time: float, value: int) -> None:
        """Observe one ``(time, occupancy)`` point (O(1) amortized)."""
        if self.seen % self.stride == 0:
            count = self._count
            if count == self.budget:
                kept = count // 2
                self._times[:kept] = self._times[0:count:2]
                self._values[:kept] = self._values[0:count:2]
                self._count = count = kept
                self.stride *= 2
            elif count == len(self._times):
                grown = min(self.budget, 2 * count)
                self._times = np.resize(self._times, grown)
                self._values = np.resize(self._values, grown)
            self._times[count] = time
            self._values[count] = value
            self._count = count + 1
        self.seen += 1

    def samples(self) -> list[tuple[float, int]]:
        """The retained samples as ``(time, occupancy)`` tuples, in order."""
        return list(
            zip(self._times[: self._count].tolist(), self._values[: self._count].tolist())
        )

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the retained sample arrays ``(times, occupancies)``."""
        return self._times[: self._count].copy(), self._values[: self._count].copy()

    def restore(self, times: np.ndarray, values: np.ndarray,
                stride: int, seen: int) -> None:
        """Reload ring contents (cache round-trips use this)."""
        count = len(times)
        if count > self.budget:
            raise ValueError(f"{count} samples exceed budget {self.budget}")
        if len(self._times) < count:
            self._times = np.empty(self.budget, dtype=np.float64)
            self._values = np.empty(self.budget, dtype=np.int64)
        self._times[:count] = times
        self._values[:count] = values
        self._count = count
        self.stride = int(stride)
        self.seen = int(seen)


@dataclass
class QueueStats:
    """Counters and occupancy extremes for one run."""

    enqueued: int = 0
    dropped: int = 0
    departed: int = 0
    max_occupancy: int = 0
    occupancy_ring: OccupancyRing | None = field(default=None, repr=False)

    @property
    def drop_rate(self) -> float:
        """Fraction of arrivals dropped."""
        arrivals = self.enqueued + self.dropped
        return self.dropped / arrivals if arrivals else 0.0

    @property
    def occupancy_samples(self) -> list[tuple[float, int]]:
        """Retained ``(time, occupancy)`` samples (empty if sampling was off)."""
        return self.occupancy_ring.samples() if self.occupancy_ring else []


class BottleneckQueue:
    """Droptail FIFO with rate-limited service.

    Parameters
    ----------
    scheduler:
        The shared event loop.
    bandwidth:
        Service rate in MSS per second.
    capacity:
        Buffer size in packets (the model's ``tau``). The packet currently
        being serialized does not occupy a buffer slot.
    on_departure:
        Called with each packet when its serialization finishes.
    on_drop:
        Called with each packet the droptail policy rejects.
    sample_occupancy:
        Record (time, occupancy) on every change — useful for latency
        analyses, off by default to save memory.
    sample_budget:
        Cap on retained occupancy samples; older samples are decimated
        (evenly thinned) once the budget is hit, so memory stays bounded
        on arbitrarily long runs.
    service_rail:
        The rail serialization completions are scheduled on. Service
        events carry the queue as their target, so queues of
        equal-bandwidth links share one rail: the merged runner
        (:mod:`repro.packetsim.batch`) gives every replication's queue the
        same one, which keeps the event loop's rail scan short. The rail's
        delay must equal this queue's serialization time.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        bandwidth: float,
        capacity: int,
        on_departure: Callable[[Packet], None],
        on_drop: Callable[[Packet], None],
        sample_occupancy: bool = False,
        sample_budget: int = DEFAULT_SAMPLE_BUDGET,
        *,
        service_rail: Rail,
    ) -> None:
        if bandwidth <= 0 or not math.isfinite(bandwidth):
            raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._scheduler = scheduler
        self._service_time = 1.0 / bandwidth
        if service_rail.delay != self._service_time:
            raise ValueError(
                f"service rail delay {service_rail.delay} does not "
                f"match the serialization time {self._service_time}"
            )
        self._service_rail = service_rail
        self.capacity = capacity
        self._on_departure = on_departure
        self._on_drop = on_drop
        self._buffer: deque[Packet] = deque()
        self._busy = False
        self.stats = QueueStats(
            occupancy_ring=OccupancyRing(sample_budget) if sample_occupancy else None
        )
        self._ring = self.stats.occupancy_ring

    @property
    def occupancy(self) -> int:
        """Packets currently waiting (excluding the one in service)."""
        return len(self._buffer)

    def arrive(self, packet: Packet) -> None:
        """A packet reaches the queue: enqueue or drop.

        An idle server takes the head of the buffer into service at once;
        every change of the buffer is sampled when sampling is on.
        """
        buffer = self._buffer
        stats = self.stats
        ring = self._ring
        busy = self._busy
        if busy and len(buffer) >= self.capacity:
            stats.dropped += 1
            if ring is not None:
                ring.push(self._scheduler._now, len(buffer))
            self._on_drop(packet)
            return
        stats.enqueued += 1
        buffer.append(packet)
        occupancy = len(buffer)
        if occupancy > stats.max_occupancy:
            stats.max_occupancy = occupancy
        if ring is not None:
            ring.push(self._scheduler._now, occupancy)
        if not busy:
            self._busy = True
            head = buffer.popleft()
            if ring is not None:
                ring.push(self._scheduler._now, len(buffer))
            self._service_rail.push(_QUEUE_SERVICE, self, head)
        if debug.active and len(buffer) > self.capacity:
            debug.fail(
                "queue-occupancy",
                f"buffer holds {len(buffer)} packets, capacity is "
                f"{self.capacity}",
            )

    def _finish_service(self, packet: Packet) -> None:
        """A packet's serialization finished (dispatched by the engine).

        Hands the packet on, then takes the next buffered packet into
        service, or leaves the server idle when the buffer is empty.
        """
        stats = self.stats
        stats.departed += 1
        buffer = self._buffer
        if debug.active:
            # Packet conservation: at this instant nothing is in service
            # (the finishing packet was just counted as departed), so every
            # enqueued packet is either departed or still buffered.
            waiting = len(buffer)
            if stats.enqueued != stats.departed + waiting:
                debug.fail(
                    "packet-conservation",
                    f"enqueued={stats.enqueued} != departed="
                    f"{stats.departed} + buffered={waiting}",
                )
        self._on_departure(packet)
        if buffer:
            head = buffer.popleft()
            ring = self._ring
            if ring is not None:
                ring.push(self._scheduler._now, len(buffer))
            self._service_rail.push(_QUEUE_SERVICE, self, head)
        else:
            self._busy = False
