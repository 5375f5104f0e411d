"""Frozen finite-flow packet simulator, kept as a bit-identity oracle.

``reference_packetsim`` predates finite flows: its sender has no
``size``, never retransmits and never completes. This module freezes the
finite-flow logic of ``repro.packetsim.host.Flow`` and
``repro.packetsim.workload.run_workload`` as they stood before the
packet engine's per-packet handlers were flattened — remaining-payload
and retransmission bookkeeping, the completion check, the early return
of a finished flow's pump — on top of the frozen closure scheduler and
droptail queue of ``reference_packetsim``. The property tests in
``test_prop_workload_identity.py`` run the same Poisson workloads through
this reference and through ``run_workload`` and compare every
``FlowStats`` field, float arrays as raw uint64 patterns.

Do not "improve" this file: its value is that it does NOT change when the
production simulator is optimised.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

from repro.model.link import Link
from repro.model.sender import Observation
from repro.packetsim.host import FlowStats
from repro.packetsim.workload import FlowSpec
from repro.protocols.base import Protocol
from repro.protocols.slow_start import SlowStartWrapper

from reference_packetsim import ReferencePacket, ReferenceQueue, ReferenceScheduler


@dataclass
class _Round:
    quota: int
    sent: int = 0
    acked: int = 0
    lost: int = 0
    rtt_sum: float = 0.0

    @property
    def complete(self) -> bool:
        return self.sent >= self.quota and self.acked + self.lost >= self.sent

    @property
    def loss_rate(self) -> float:
        return self.lost / self.sent if self.sent else 0.0

    def mean_rtt(self, fallback: float) -> float:
        return self.rtt_sum / self.acked if self.acked else fallback


class ReferenceFiniteFlow:
    """The pre-flattening ACK-clocked sender, finite-size logic included."""

    def __init__(
        self,
        flow_id: int,
        protocol: Protocol,
        scheduler: ReferenceScheduler,
        transmit: Callable[[ReferencePacket], None],
        initial_window: float = 1.0,
        min_window: float = 1.0,
        max_window: float = 1e9,
        start_time: float = 0.0,
        size: int | None = None,
    ) -> None:
        self.flow_id = flow_id
        self.protocol = protocol
        self._scheduler = scheduler
        self._transmit = transmit
        self.cwnd = float(initial_window)
        self._min_window = min_window
        self._max_window = max_window
        self.start_time = start_time
        self.size = size
        self._remaining_new = size
        self._pending_retransmits = 0
        self.inflight = 0
        self._next_seq = 0
        self._send_round = 0
        self._decision_round = 0
        self._rounds: dict[int, _Round] = {}
        self._min_rtt = math.inf
        self._last_rtt = math.nan
        self.stats = FlowStats()

    @property
    def completed(self) -> bool:
        return self.stats.completed_at is not None

    def start(self) -> None:
        self.protocol.reset()
        self._scheduler.schedule_at(
            max(self.start_time, self._scheduler.now), self._pump
        )

    def _quota(self) -> int:
        return max(1, int(round(self.cwnd)))

    def _round(self, index: int) -> _Round:
        if index not in self._rounds:
            self._rounds[index] = _Round(quota=self._quota())
        return self._rounds[index]

    def _has_data(self) -> bool:
        if self.size is None:
            return True
        return self._pending_retransmits > 0 or (self._remaining_new or 0) > 0

    def _pump(self) -> None:
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
            packet = ReferencePacket(
                flow_id=self.flow_id,
                sequence=self._next_seq,
                sent_at=self._scheduler.now,
                round_index=self._send_round,
            )
            self._next_seq += 1
            record.sent += 1
            self.inflight += 1
            self.stats.packets_sent += 1
            self._transmit(packet)
            if self.inflight >= max(1, int(self.cwnd)):
                break

    def on_ack(self, packet: ReferencePacket) -> None:
        now = self._scheduler.now
        rtt = now - packet.sent_at
        self.inflight -= 1
        record = self._round(packet.round_index)
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

    def on_loss(self, packet: ReferencePacket) -> None:
        self.inflight -= 1
        record = self._round(packet.round_index)
        record.lost += 1
        self.stats.packets_lost += 1
        self.stats.loss_times.append(self._scheduler.now)
        if self.size is not None:
            self._pending_retransmits += 1
        self._maybe_close_rounds()
        self._pump()

    def _maybe_close_rounds(self) -> None:
        while True:
            record = self._rounds.get(self._decision_round)
            if record is None or not record.complete:
                return
            fallback = self._last_rtt if math.isfinite(self._last_rtt) else 1.0
            observation = Observation(
                step=self._decision_round,
                window=self.cwnd,
                loss_rate=record.loss_rate,
                rtt=record.mean_rtt(fallback),
                min_rtt=self._min_rtt if math.isfinite(self._min_rtt) else fallback,
            )
            new_window = self.protocol.next_window(observation)
            self.cwnd = min(max(new_window, self._min_window), self._max_window)
            self.stats.rounds_completed += 1
            self.stats.window_samples.append((self._scheduler.now, self.cwnd))
            del self._rounds[self._decision_round]
            self._decision_round += 1


def reference_run_workload(
    link: Link,
    specs: list[FlowSpec],
    duration: float,
    background: list[Protocol] | None = None,
    slow_start: bool = True,
    initial_window: float = 1.0,
) -> list[FlowStats]:
    """The pre-flattening ``run_workload``, returning the finite flows' stats."""
    background = background or []
    scheduler = ReferenceScheduler()
    flows: list[ReferenceFiniteFlow] = []

    def deliver(packet: ReferencePacket) -> None:
        flow = flows[packet.flow_id]
        scheduler.schedule(2 * link.theta, lambda: flow.on_ack(packet))

    def drop(packet: ReferencePacket) -> None:
        flow = flows[packet.flow_id]
        scheduler.schedule(link.base_rtt, lambda: flow.on_loss(packet))

    queue = ReferenceQueue(
        scheduler,
        bandwidth=link.bandwidth,
        capacity=int(link.buffer_size),
        on_departure=deliver,
        on_drop=drop,
    )

    def wrap(protocol: Protocol) -> Protocol:
        fresh = copy.deepcopy(protocol)
        return SlowStartWrapper(fresh) if slow_start else fresh

    for index, spec in enumerate(specs):
        flows.append(
            ReferenceFiniteFlow(
                flow_id=index,
                protocol=wrap(spec.protocol),
                scheduler=scheduler,
                transmit=queue.arrive,
                initial_window=initial_window,
                start_time=spec.start_time,
                size=spec.size,
            )
        )
    for offset, protocol in enumerate(background):
        flows.append(
            ReferenceFiniteFlow(
                flow_id=len(specs) + offset,
                protocol=wrap(protocol),
                scheduler=scheduler,
                transmit=queue.arrive,
                initial_window=initial_window,
                start_time=0.0,
            )
        )
    for flow in flows:
        flow.start()
    scheduler.run_until(duration)
    return [flow.stats for flow in flows[: len(specs)]]
