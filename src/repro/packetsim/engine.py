"""Discrete-event core: slotted, typed event records on rails plus a heap.

The seed engine kept one heapq of ``(time, seq, closure)`` entries and
allocated a fresh closure per event — fine for correctness, but the
closure allocation and the O(log n) heap sifts dominated packet-level
runs. This engine keeps the exact same *semantics* (events execute in
``(time, seq)`` order, where ``seq`` is a global monotonically increasing
sequence number assigned at scheduling time) while restructuring the hot
path around two observations from ns-3-class simulators:

1. **Typed event records.** An event is a 5-tuple
   ``(time, seq, kind, target, payload)`` — no closure. ``kind`` is an
   :class:`EventKind` dispatched from a tight ``if/elif`` chain in
   :meth:`EventScheduler.run_until` straight onto the target's handler
   method (``on_ack`` / ``on_loss`` / ``_finish_service`` / ``_pump``),
   so the steady state allocates one tuple per event and nothing else.

2. **FIFO rails for fixed delays.** Almost every packet-level event has
   one of a handful of *fixed* delays (the queue's serialization time,
   the ACK's round trip, the loss-notification delay). Because simulation
   time never decreases while scheduling, a per-delay FIFO (:class:`Rail`,
   a deque) is sorted by construction: push is O(1) ``append`` and the
   loop only has to compare a few rail heads plus the heap head to find
   the global minimum. Irregular events (absolute-time starts, ad-hoc
   callbacks) still go through the heap.

The loop additionally drains *batches*: once a rail holds the minimum, it
keeps popping from that rail while its head stays below every other
head. A batch is only correct if no handler schedules an event that
should preempt it, so every push onto a *different* rail (or the heap)
compares the new entry against the active batch limit and cancels the
batch when it preempts — ordering therefore stays exactly the
``(time, seq)`` order of the seed engine (the property tests in
``tests/property/test_prop_packetsim_identity.py`` enforce this bit for
bit against a frozen copy of the pre-refactor simulator).

``run_until`` contract: events with ``time <= end_time`` are executed and
the clock then advances to exactly ``end_time`` **even when later events
remain pending** — a subsequent ``run_until`` with a larger horizon picks
them up. ``run_until`` is not re-entrant: calling it from inside an event
handler raises ``RuntimeError``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from enum import IntEnum
from typing import Callable

from repro import debug

__all__ = ["EventKind", "EventScheduler", "Rail"]


class EventKind(IntEnum):
    """Typed event records dispatched by :meth:`EventScheduler.run_until`.

    The payload conventions are fixed per kind:

    - ``CALLBACK``: ``target`` is a zero-argument callable (the seed
      engine's interface, kept for irregular events and tests).
    - ``FLOW_ACK`` / ``FLOW_LOSS``: ``target`` is a flow-like object with
      ``on_ack(packet)`` / ``on_loss(packet)``; ``payload`` is the packet.
    - ``QUEUE_SERVICE``: ``target`` is a queue-like object with
      ``_finish_service(packet)``; ``payload`` is the packet leaving.
    - ``FLOW_PUMP``: ``target`` is a flow-like object with ``_pump()``.
    """

    CALLBACK = 0
    FLOW_ACK = 1
    FLOW_LOSS = 2
    QUEUE_SERVICE = 3
    FLOW_PUMP = 4


_CALLBACK = int(EventKind.CALLBACK)
_FLOW_ACK = int(EventKind.FLOW_ACK)
_FLOW_LOSS = int(EventKind.FLOW_LOSS)
_QUEUE_SERVICE = int(EventKind.QUEUE_SERVICE)
_FLOW_PUMP = int(EventKind.FLOW_PUMP)

#: Sentinel "no batch active" limit — compares below every real event.
_NO_BATCH = (-math.inf,)
#: Sentinel head for an empty heap — compares above every real event.
_EMPTY = (math.inf,)


class Rail:
    """A FIFO of events that all share one fixed ``delay``.

    Because :attr:`EventScheduler.now` is nondecreasing, pushes land in
    nondecreasing time order and the deque stays sorted without sifting;
    :meth:`push` asserts this invariant cheaply against the tail. Create
    rails via :meth:`EventScheduler.rail` so the run loop sees them.
    """

    __slots__ = ("_scheduler", "delay", "_events", "_seq_next")

    def __init__(self, scheduler: "EventScheduler", delay: float) -> None:
        if delay < 0 or not math.isfinite(delay):
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        self._scheduler = scheduler
        self.delay = delay
        self._events: deque = deque()
        self._seq_next = scheduler._sequence.__next__

    def __len__(self) -> int:
        return len(self._events)

    def push(self, kind: int, target, payload=None) -> None:
        """Schedule a ``kind`` event at ``now + delay`` (O(1))."""
        scheduler = self._scheduler
        events = self._events
        when = scheduler._now + self.delay
        # Sorted-by-construction invariant: ``now`` is nondecreasing and
        # ``delay`` fixed, so the tail can only be later-or-equal (equal
        # times are already ordered by the monotonic sequence number).
        if events and when < events[-1][0]:
            raise RuntimeError(
                "rail ordering violated; was Rail.delay mutated mid-run?"
            )
        entry = (when, self._seq_next(), kind, target, payload)
        events.append(entry)
        # Cancel an in-flight batch on another rail if this entry preempts it.
        if events is not scheduler._active and entry < scheduler._batch_limit:
            scheduler._batch_limit = _NO_BATCH


class EventScheduler:
    """A deterministic discrete-event loop over rails plus a heap."""

    __slots__ = ("_heap", "_rails", "_sequence", "_now", "_processed",
                 "_running", "_batch_limit", "_active")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._rails: list[deque] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._running = False
        self._batch_limit: tuple = _NO_BATCH
        self._active: deque | None = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (updated when ``run_until`` returns)."""
        return self._processed

    def rail(self, delay: float) -> Rail:
        """Create a fixed-delay FIFO rail attached to this scheduler."""
        rail = Rail(self, delay)
        self._rails.append(rail._events)
        return rail

    def discard_pending(self) -> None:
        """Drop every event still pending after the last ``run_until``.

        Pending events reference flows and queues, which reference this
        scheduler back. A finished run calls this (and empties its
        ``flows`` list, which its delivery closures capture) so the
        simulation is freed by reference counting as soon as its result is
        extracted, instead of waiting for the cycle collector.
        """
        self._heap.clear()
        for events in self._rails:
            events.clear()

    # ------------------------------------------------------------------
    def schedule_event(self, delay: float, kind: int, target,
                       payload=None) -> None:
        """Schedule a typed event at ``now + delay`` through the heap."""
        if not (0.0 <= delay < math.inf):
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        self._push_heap(self._now + delay, kind, target, payload)

    def schedule_event_at(self, when: float, kind: int, target,
                          payload=None) -> None:
        """Schedule a typed event at absolute time ``when`` (>= now, finite)."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        if not math.isfinite(when):
            raise ValueError(f"event time must be finite, got {when}")
        self._push_heap(when, kind, target, payload)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay`` (delay >= 0)."""
        self.schedule_event(delay, _CALLBACK, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``when`` (>= now)."""
        self.schedule_event_at(when, _CALLBACK, callback)

    def _push_heap(self, when: float, kind: int, target, payload) -> None:
        entry = (when, next(self._sequence), kind, target, payload)
        heapq.heappush(self._heap, entry)
        if entry < self._batch_limit:
            self._batch_limit = _NO_BATCH

    # ------------------------------------------------------------------
    def run_until(self, end_time: float, max_events: int | None = None) -> None:
        """Process events in ``(time, seq)`` order up to ``end_time``.

        Contract: every event with ``time <= end_time`` runs; afterwards
        ``now == end_time`` exactly, even when later events stay pending
        (call ``run_until`` again with a larger horizon to resume them —
        the clock never moves backwards). ``max_events`` is a safety valve
        against runaway event storms, counted over the scheduler's
        lifetime; exceeding it raises rather than silently truncating.
        Not re-entrant: calling this from inside an event handler raises
        ``RuntimeError``.
        """
        if self._running:
            raise RuntimeError(
                "run_until is not re-entrant; it was called from inside "
                "an event handler"
            )
        if end_time < self._now:
            raise ValueError(f"end_time {end_time} is before now {self._now}")
        heap = self._heap
        rails = self._rails
        pop = heapq.heappop
        processed = self._processed
        # An int sentinel keeps the per-event budget compare int-vs-int.
        budget = (1 << 62) if max_events is None else max_events
        end_marker = (end_time, math.inf)
        flow_ack, flow_loss = _FLOW_ACK, _FLOW_LOSS
        queue_service, flow_pump = _QUEUE_SERVICE, _FLOW_PUMP
        sanitize = debug.enabled()
        self._running = True
        try:
            while True:
                # Find the earliest head across the heap and every rail.
                best = heap[0] if heap else _EMPTY
                best_rail = None
                for rail in rails:
                    if rail and rail[0] < best:
                        best = rail[0]
                        best_rail = rail
                if best[0] > end_time:
                    break
                if best_rail is None:
                    if processed >= budget:
                        raise RuntimeError(
                            f"exceeded max_events={max_events}; "
                            "possible event storm"
                        )
                    pop(heap)
                    when, _, kind, a, b = best
                    if sanitize and when < self._now:
                        debug.fail(
                            "monotonic-clock",
                            f"heap event at t={when} precedes now={self._now}",
                        )
                    self._now = when
                    processed += 1
                    if kind == flow_ack:
                        a.on_ack(b)
                    elif kind == queue_service:
                        a._finish_service(b)
                    elif kind == flow_loss:
                        a.on_loss(b)
                    elif kind == flow_pump:
                        a._pump()
                    else:
                        a()
                    continue
                # Batch: drain this rail while it stays globally minimal.
                # Any push below the limit (onto another rail or the heap)
                # resets _batch_limit and stops the inner loop, so events
                # scheduled mid-batch can never be overtaken.
                limit = heap[0] if heap else end_marker
                for rail in rails:
                    if rail is not best_rail and rail and rail[0] < limit:
                        limit = rail[0]
                if limit > end_marker:
                    limit = end_marker
                self._batch_limit = limit
                self._active = best_rail
                popleft = best_rail.popleft
                while best_rail and best_rail[0] <= self._batch_limit:
                    if processed >= budget:
                        raise RuntimeError(
                            f"exceeded max_events={max_events}; "
                            "possible event storm"
                        )
                    when, _, kind, a, b = popleft()
                    if sanitize and when < self._now:
                        debug.fail(
                            "monotonic-clock",
                            f"rail event at t={when} precedes now={self._now}",
                        )
                    self._now = when
                    processed += 1
                    if kind == flow_ack:
                        a.on_ack(b)
                    elif kind == queue_service:
                        a._finish_service(b)
                    elif kind == flow_loss:
                        a.on_loss(b)
                    elif kind == flow_pump:
                        a._pump()
                    else:
                        a()
        finally:
            self._batch_limit = _NO_BATCH
            self._active = None
            self._processed = processed
            self._running = False
        self._now = end_time

    def pending(self) -> int:
        """Number of events still queued (heap plus every rail)."""
        return len(self._heap) + sum(len(rail) for rail in self._rails)
