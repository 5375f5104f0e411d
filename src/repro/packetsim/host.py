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

Packets and round records are recycled through freelists (a shared
:class:`~repro.packetsim.packet.PacketPool` and a per-flow round-record
pool): a packet returns to the pool the moment its ACK/loss is processed
and a round record returns when its round closes, so a steady-state run
holds O(window) live objects regardless of how many packets it sends.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

from repro import debug
from repro.model.sender import Observation
from repro.packetsim.engine import EventKind, EventScheduler
from repro.packetsim.packet import Packet, PacketPool
from repro.protocols.base import Protocol

_FLOW_PUMP = int(EventKind.FLOW_PUMP)


class _RoundRecord:
    """Accounting for one RTT-round (pooled: see ``Flow._round``)."""

    __slots__ = ("quota", "sent", "acked", "lost", "rtt_sum")

    def __init__(self, quota: int) -> None:
        self.reset(quota)

    def reset(self, quota: int) -> "_RoundRecord":
        self.quota = quota
        self.sent = 0
        self.acked = 0
        self.lost = 0
        self.rtt_sum = 0.0
        return self

    @property
    def accounted(self) -> int:
        return self.acked + self.lost

    @property
    def complete(self) -> bool:
        return self.sent >= self.quota and self.accounted >= self.sent

    @property
    def loss_rate(self) -> float:
        return self.lost / self.sent if self.sent else 0.0

    def mean_rtt(self, fallback: float) -> float:
        return self.rtt_sum / self.acked if self.acked else fallback


@dataclass
class FlowStats:
    """Per-flow outcome of a packet-level run.

    ``ack_times`` and ``loss_times`` are appended at the scheduler's clock,
    which never runs backwards, so both lists are nondecreasing;
    ``rtt_samples[i]`` belongs to the ACK at ``ack_times[i]``. The window
    reducers rely on that order: they find a window's ends by bisection.
    """

    packets_sent: int = 0
    packets_acked: int = 0
    packets_lost: int = 0
    ack_times: list[float] = field(default_factory=list)
    loss_times: list[float] = field(default_factory=list)
    rtt_samples: list[float] = field(default_factory=list)
    window_samples: list[tuple[float, float]] = field(default_factory=list)
    rounds_completed: int = 0
    completed_at: float | None = None
    retransmissions: int = 0

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


def _count_between(times: list[float], start: float, stop: float) -> int:
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
        self._remaining_new = size  # distinct packets not yet first-sent
        self._pending_retransmits = 0
        self.inflight = 0
        self._next_seq = 0
        self._send_round = 0
        self._decision_round = 0
        self._rounds: dict[int, _RoundRecord] = {}
        self._round_free: list[_RoundRecord] = []
        self._pool = pool if pool is not None else PacketPool()
        self._min_rtt = math.inf
        self._last_rtt = math.nan
        self.stats = FlowStats()

    @property
    def completed(self) -> bool:
        """Whether a finite flow has delivered all its packets."""
        return self.stats.completed_at is not None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (call once, at or after construction)."""
        self.protocol.reset()
        self._scheduler.schedule_event_at(
            max(self.start_time, self._scheduler.now), _FLOW_PUMP, self
        )

    # ------------------------------------------------------------------
    def _quota(self) -> int:
        return max(1, int(round(self.cwnd)))

    def _round(self, index: int) -> _RoundRecord:
        record = self._rounds.get(index)
        if record is None:
            free = self._round_free
            record = free.pop().reset(self._quota()) if free \
                else _RoundRecord(self._quota())
            self._rounds[index] = record
        return record

    def _has_data(self) -> bool:
        """Whether any payload (new or retransmit) is waiting to be sent."""
        if self.size is None:
            return True
        return self._pending_retransmits > 0 or (self._remaining_new or 0) > 0

    def _pump(self) -> None:
        """Send while the window allows, advancing rounds as quotas fill."""
        if self.completed:
            return
        while (self.inflight < int(self.cwnd) or self.inflight == 0) and \
                self._has_data():
            record = self._round(self._send_round)
            if record.sent >= record.quota:
                self._send_round += 1
                continue
            if self.size is not None:
                if self._pending_retransmits > 0:
                    self._pending_retransmits -= 1
                    self.stats.retransmissions += 1
                else:
                    self._remaining_new -= 1
            packet = self._pool.acquire(
                self.flow_id,
                self._next_seq,
                self._scheduler.now,
                self._send_round,
            )
            self._next_seq += 1
            record.sent += 1
            self.inflight += 1
            self.stats.packets_sent += 1
            self._transmit(packet)
            if self.inflight >= max(1, int(self.cwnd)):
                break

    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        """An ACK for ``packet`` arrived."""
        now = self._scheduler.now
        rtt = now - packet.sent_at
        self.inflight -= 1
        if debug.enabled() and (self.inflight < 0 or rtt < 0):
            debug.fail(
                "flow-accounting",
                f"flow {self.flow_id}: inflight={self.inflight}, rtt={rtt} "
                "after ACK (packet double-counted or clock ran backwards?)",
            )
        record = self._round(packet.round_index)
        self._pool.release(packet)
        record.acked += 1
        record.rtt_sum += rtt
        self.stats.packets_acked += 1
        self.stats.ack_times.append(now)
        self.stats.rtt_samples.append(rtt)
        self._min_rtt = min(self._min_rtt, rtt)
        self._last_rtt = rtt
        if (
            self.size is not None
            and not self.completed
            and self.stats.packets_acked >= self.size
        ):
            self.stats.completed_at = now
        self._maybe_close_rounds()
        self._pump()

    def on_loss(self, packet: Packet) -> None:
        """The sender learned that ``packet`` was dropped."""
        self.inflight -= 1
        if debug.enabled() and self.inflight < 0:
            debug.fail(
                "flow-accounting",
                f"flow {self.flow_id}: inflight={self.inflight} after loss "
                "(packet double-counted?)",
            )
        record = self._round(packet.round_index)
        self._pool.release(packet)
        record.lost += 1
        self.stats.packets_lost += 1
        self.stats.loss_times.append(self._scheduler.now)
        if self.size is not None:
            # The payload still has to get across: queue a retransmission.
            self._pending_retransmits += 1
        self._maybe_close_rounds()
        self._pump()

    # ------------------------------------------------------------------
    def _maybe_close_rounds(self) -> None:
        """Close completed rounds in order, consulting the protocol once per round."""
        while True:
            record = self._rounds.get(self._decision_round)
            if record is None or not record.complete:
                return
            # A round only completes after its quota was fully sent, so a
            # later round may exist; close strictly in order regardless.
            fallback = self._last_rtt if math.isfinite(self._last_rtt) else 1.0
            observation = Observation(
                step=self._decision_round,
                window=self.cwnd,
                loss_rate=record.loss_rate,
                rtt=record.mean_rtt(fallback),
                min_rtt=self._min_rtt if math.isfinite(self._min_rtt) else fallback,
            )
            new_window = self.protocol.next_window(observation)
            if debug.enabled() and not (
                math.isfinite(new_window) and new_window >= 0
            ):
                debug.fail(
                    "window-bounds",
                    f"flow {self.flow_id}: protocol {self.protocol.name} "
                    f"proposed window {new_window} for round "
                    f"{self._decision_round}",
                )
            self.cwnd = min(max(new_window, self._min_window), self._max_window)
            self.stats.rounds_completed += 1
            self.stats.window_samples.append((self._scheduler.now, self.cwnd))
            self._round_free.append(self._rounds.pop(self._decision_round))
            self._decision_round += 1
