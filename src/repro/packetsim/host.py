"""ACK-clocked flows driving fluid-model protocols at packet granularity.

A :class:`Flow` keeps a congestion window and sends one-MSS packets while
fewer than ``floor(cwnd)`` are in flight. Feedback is aggregated per
*RTT-round*: each round has a quota of ``round(cwnd)`` packets; when every
packet of the round has been either ACKed or reported lost, the flow
computes the round's loss rate and mean RTT and asks its
:class:`~repro.protocols.base.Protocol` — the very same object the fluid
model uses — for the next window. This is the packet-granular analogue of
the paper's per-RTT decision step, except that feedback is now per-flow
and unsynchronized, which is exactly the realism the Emulab validation
adds over the fluid model.

Every packet resolves (ACK or delayed loss notification), so rounds always
close and no retransmission-timeout machinery is needed for the paper's
long-lived-flow scenarios.

Packets are recycled through a shared
:class:`~repro.packetsim.packet.PacketPool` freelist: a packet returns to
the pool the moment its ACK/loss is processed, so a steady-state run
holds O(window) live packets regardless of how many it sends.

The three per-packet handlers (:meth:`Flow._pump`, :meth:`Flow.on_ack`,
:meth:`Flow.on_loss`) run once per event, so they are written flat: the
pool, the round lookup, the clock read and the sanitizer flag are inlined
as local-variable operations rather than helper calls. Only round
boundaries (once per RTT) call out: :meth:`Flow._open_round`,
:meth:`Flow._close_rounds` and the protocol.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from repro import debug
from repro.model.sender import Observation
from repro.packetsim.engine import EventKind, EventScheduler
from repro.packetsim.packet import Packet, PacketPool
from repro.protocols.base import Protocol

_FLOW_PUMP = int(EventKind.FLOW_PUMP)

#: The ``FlowStats`` fields that take one float per packet event.
SAMPLE_FIELDS = ("ack_times", "loss_times", "rtt_samples")


class _RoundRecord:
    """Accounting for one RTT-round: its send quota and what came back.

    A round is *complete* once its quota is sent and every sent packet is
    ACKed or lost: ``sent >= quota and acked + lost >= sent``.
    """

    __slots__ = ("quota", "sent", "acked", "lost", "rtt_sum")

    def __init__(self, quota: int) -> None:
        self.quota = quota
        self.sent = 0
        self.acked = 0
        self.lost = 0
        self.rtt_sum = 0.0


@dataclass
class FlowStats:
    """Per-flow outcome of a packet-level run.

    ``ack_times``, ``loss_times`` and ``rtt_samples`` hold one float per
    packet event, so they are ``array('d')`` buffers: 8 bytes a sample,
    where a list of Python floats takes about 33. Any other sequence
    given for one (a list, in tests) is stored as an ``array('d')`` of
    the same values. ``window_samples`` has one ``(time, window)`` pair
    per closed round and stays a list.

    ``ack_times`` and ``loss_times`` are appended at the scheduler's clock,
    which never runs backwards, so both series are nondecreasing;
    ``rtt_samples[i]`` belongs to the ACK at ``ack_times[i]``. The window
    reducers rely on that order: they find a window's ends by bisection.
    """

    packets_sent: int = 0
    packets_acked: int = 0
    packets_lost: int = 0
    ack_times: array = field(default_factory=partial(array, "d"))
    loss_times: array = field(default_factory=partial(array, "d"))
    rtt_samples: array = field(default_factory=partial(array, "d"))
    window_samples: list[tuple[float, float]] = field(default_factory=list)
    rounds_completed: int = 0
    completed_at: float | None = None
    retransmissions: int = 0

    def __post_init__(self) -> None:
        for name in SAMPLE_FIELDS:
            values = getattr(self, name)
            if not (type(values) is array and values.typecode == "d"):
                setattr(self, name, array("d", values))

    @property
    def loss_rate(self) -> float:
        """Overall fraction of sent packets lost."""
        return self.packets_lost / self.packets_sent if self.packets_sent else 0.0

    def loss_rate_between(self, start: float, stop: float) -> float:
        """Loss rate over a time window (by feedback arrival time).

        Excludes transients outside the window — notably the slow-start
        overshoot burst, which would otherwise dominate a whole-run rate.
        """
        if stop < start:
            raise ValueError(f"stop {stop} before start {start}")
        acked = self.delivered_between(start, stop)
        lost = _count_between(self.loss_times, start, stop)
        total = acked + lost
        return lost / total if total else 0.0

    def delivered_between(self, start: float, stop: float) -> int:
        """ACKed packets whose ACK arrived in ``[start, stop)``."""
        if stop < start:
            raise ValueError(f"stop {stop} before start {start}")
        return _count_between(self.ack_times, start, stop)

    def throughput_mss_per_s(self, start: float, stop: float) -> float:
        """Goodput in MSS/s over a window (by ACK arrival time)."""
        if stop <= start:
            raise ValueError("window must have positive length")
        return self.delivered_between(start, stop) / (stop - start)

    def mean_rtt_between(self, start: float, stop: float) -> float:
        """Mean measured RTT of ACKs in a window (NaN when empty)."""
        lo = bisect_left(self.ack_times, start)
        hi = bisect_left(self.ack_times, stop)
        samples = self.rtt_samples[lo:hi]
        return sum(samples) / len(samples) if samples else math.nan


def _count_between(times: Sequence[float], start: float, stop: float) -> int:
    """How many of the sorted ``times`` lie in ``[start, stop)``."""
    return max(0, bisect_left(times, stop) - bisect_left(times, start))


class Flow:
    """One ACK-clocked sender."""

    def __init__(
        self,
        flow_id: int,
        protocol: Protocol,
        scheduler: EventScheduler,
        transmit: Callable[[Packet], None],
        initial_window: float = 1.0,
        min_window: float = 1.0,
        max_window: float = 1e9,
        start_time: float = 0.0,
        size: int | None = None,
        pool: PacketPool | None = None,
    ) -> None:
        if initial_window < min_window:
            raise ValueError(
                f"initial window {initial_window} below minimum {min_window}"
            )
        if start_time < 0:
            raise ValueError(f"start_time must be non-negative, got {start_time}")
        if size is not None and size <= 0:
            raise ValueError(f"flow size must be positive, got {size}")
        self.flow_id = flow_id
        self.protocol = protocol
        self._scheduler = scheduler
        self._transmit = transmit
        self.cwnd = float(initial_window)
        self._min_window = min_window
        self._max_window = max_window
        self.start_time = start_time
        self.size = size
        # Distinct packets not yet first-sent (read only when ``size`` is set).
        self._remaining_new = 0 if size is None else size
        self._pending_retransmits = 0
        self.inflight = 0
        self._next_seq = 0
        self._send_round = 0
        self._decision_round = 0
        self._rounds: dict[int, _RoundRecord] = {}
        self._free = pool if pool is not None else PacketPool()
        self._min_rtt = math.inf
        self._last_rtt = math.nan
        self.stats = FlowStats()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (call once, at or after construction)."""
        self.protocol.reset()
        self._scheduler.schedule_event_at(
            max(self.start_time, self._scheduler.now), _FLOW_PUMP, self
        )

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Send while the window allows, advancing rounds as quotas fill.

        ``transmit`` only schedules events (the queue's service and drop
        notifications), so nothing reads this flow's counters while the
        loop runs; they live in locals and are stored once at the end.
        """
        stats = self.stats
        if stats.completed_at is not None:
            return
        cwnd = self.cwnd
        limit = int(cwnd)
        if limit < 1:
            limit = 1
        inflight = self.inflight
        size = self.size
        rounds = self._rounds
        free = self._free
        transmit = self._transmit
        now = self._scheduler._now
        flow_id = self.flow_id
        seq = self._next_seq
        send_round = self._send_round
        while inflight < limit:
            if size is not None:
                if self._pending_retransmits > 0:
                    self._pending_retransmits -= 1
                    stats.retransmissions += 1
                elif self._remaining_new > 0:
                    self._remaining_new -= 1
                else:
                    break
            record = rounds.get(send_round)
            while record is not None and record.sent >= record.quota:
                send_round += 1
                record = rounds.get(send_round)
            if record is None:
                record = self._open_round(send_round)
            packet = free.pop() if free else Packet.__new__(Packet)
            packet.flow_id = flow_id
            packet.sequence = seq
            packet.sent_at = now
            packet.round_index = send_round
            seq += 1
            record.sent += 1
            inflight += 1
            stats.packets_sent += 1
            transmit(packet)
        self.inflight = inflight
        self._next_seq = seq
        self._send_round = send_round

    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        """An ACK for ``packet`` arrived."""
        now = self._scheduler._now
        rtt = now - packet.sent_at
        inflight = self.inflight = self.inflight - 1
        if debug.active and (inflight < 0 or rtt < 0):
            debug.fail(
                "flow-accounting",
                f"flow {self.flow_id}: inflight={inflight}, rtt={rtt} "
                "after ACK (packet double-counted or clock ran backwards?)",
            )
        rounds = self._rounds
        index = packet.round_index
        record = rounds.get(index)
        if record is None:
            record = self._open_round(index)
        self._free.append(packet)
        record.acked += 1
        record.rtt_sum += rtt
        stats = self.stats
        acked = stats.packets_acked = stats.packets_acked + 1
        stats.ack_times.append(now)
        stats.rtt_samples.append(rtt)
        if rtt < self._min_rtt:
            self._min_rtt = rtt
        self._last_rtt = rtt
        size = self.size
        if size is not None and stats.completed_at is None and acked >= size:
            stats.completed_at = now
        head = rounds.get(self._decision_round)
        if head is not None and head.sent >= head.quota and \
                head.acked + head.lost >= head.sent:
            self._close_rounds()
        self._pump()

    def on_loss(self, packet: Packet) -> None:
        """The sender learned that ``packet`` was dropped."""
        inflight = self.inflight = self.inflight - 1
        if debug.active and inflight < 0:
            debug.fail(
                "flow-accounting",
                f"flow {self.flow_id}: inflight={inflight} after loss "
                "(packet double-counted?)",
            )
        rounds = self._rounds
        index = packet.round_index
        record = rounds.get(index)
        if record is None:
            record = self._open_round(index)
        self._free.append(packet)
        record.lost += 1
        stats = self.stats
        stats.packets_lost += 1
        stats.loss_times.append(self._scheduler._now)
        if self.size is not None:
            # The payload still has to get across: queue a retransmission.
            self._pending_retransmits += 1
        head = rounds.get(self._decision_round)
        if head is not None and head.sent >= head.quota and \
                head.acked + head.lost >= head.sent:
            self._close_rounds()
        self._pump()

    # ------------------------------------------------------------------
    def _open_round(self, index: int) -> _RoundRecord:
        """Open round ``index`` with a quota of the current window."""
        record = self._rounds[index] = _RoundRecord(max(1, int(round(self.cwnd))))
        return record

    def _close_rounds(self) -> None:
        """Close completed rounds in order, consulting the protocol once per round."""
        rounds = self._rounds
        stats = self.stats
        while True:
            record = rounds.get(self._decision_round)
            if record is None or not (
                record.sent >= record.quota
                and record.acked + record.lost >= record.sent
            ):
                return
            # A round only completes after its quota was fully sent, so a
            # later round may exist; close strictly in order regardless.
            fallback = self._last_rtt if math.isfinite(self._last_rtt) else 1.0
            observation = Observation(
                step=self._decision_round,
                window=self.cwnd,
                loss_rate=record.lost / record.sent if record.sent else 0.0,
                rtt=record.rtt_sum / record.acked if record.acked else fallback,
                min_rtt=self._min_rtt if math.isfinite(self._min_rtt) else fallback,
            )
            new_window = self.protocol.next_window(observation)
            if debug.active and not (
                math.isfinite(new_window) and new_window >= 0
            ):
                debug.fail(
                    "window-bounds",
                    f"flow {self.flow_id}: protocol {self.protocol.name} "
                    f"proposed window {new_window} for round "
                    f"{self._decision_round}",
                )
            self.cwnd = min(max(new_window, self._min_window), self._max_window)
            stats.rounds_completed += 1
            stats.window_samples.append((self._scheduler._now, self.cwnd))
            del rounds[self._decision_round]
            self._decision_round += 1
