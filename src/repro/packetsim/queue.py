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
``QUEUE_SERVICE`` record per packet, no closures). The queue keeps
counters, not a trace: :class:`QueueStats` holds the arrivals, drops,
departures and the deepest buffer of the run.

The two per-packet handlers, :meth:`BottleneckQueue.arrive` and
:meth:`BottleneckQueue._finish_service`, start the next service inline,
so a packet costs one call into the queue per event.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro import debug
from repro.packetsim.engine import EventKind, Rail
from repro.packetsim.packet import Packet

_QUEUE_SERVICE = int(EventKind.QUEUE_SERVICE)


@dataclass
class QueueStats:
    """Counters and occupancy extremes for one run."""

    enqueued: int = 0
    dropped: int = 0
    departed: int = 0
    max_occupancy: int = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of arrivals dropped."""
        arrivals = self.enqueued + self.dropped
        return self.dropped / arrivals if arrivals else 0.0


class BottleneckQueue:
    """Droptail FIFO with rate-limited service.

    Parameters
    ----------
    bandwidth:
        Service rate in MSS per second.
    capacity:
        Buffer size in packets (the model's ``tau``). The packet currently
        being serialized does not occupy a buffer slot.
    on_departure:
        Called with each packet when its serialization finishes.
    on_drop:
        Called with each packet the droptail policy rejects.
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
        bandwidth: float,
        capacity: int,
        on_departure: Callable[[Packet], None],
        on_drop: Callable[[Packet], None],
        *,
        service_rail: Rail,
    ) -> None:
        if bandwidth <= 0 or not math.isfinite(bandwidth):
            raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
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
        self.stats = QueueStats()

    @property
    def occupancy(self) -> int:
        """Packets currently waiting (excluding the one in service)."""
        return len(self._buffer)

    def arrive(self, packet: Packet) -> None:
        """A packet reaches the queue: enqueue or drop.

        An idle server takes the head of the buffer into service at once.
        """
        buffer = self._buffer
        stats = self.stats
        busy = self._busy
        if busy and len(buffer) >= self.capacity:
            stats.dropped += 1
            self._on_drop(packet)
            return
        stats.enqueued += 1
        buffer.append(packet)
        occupancy = len(buffer)
        if occupancy > stats.max_occupancy:
            stats.max_occupancy = occupancy
        if not busy:
            self._busy = True
            self._service_rail.push(_QUEUE_SERVICE, self, buffer.popleft())
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
            self._service_rail.push(_QUEUE_SERVICE, self, buffer.popleft())
        else:
            self._busy = False
