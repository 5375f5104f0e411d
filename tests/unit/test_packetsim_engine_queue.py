"""Event scheduler and droptail queue (repro.packetsim.engine / .queue)."""

import pytest

from repro.packetsim.engine import EventKind, EventScheduler
from repro.packetsim.host import Flow
from repro.packetsim.packet import Packet, PacketPool
from repro.packetsim.queue import BottleneckQueue
from repro.protocols.aimd import AIMD


class TestScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(2.0, lambda: order.append("late"))
        scheduler.schedule(1.0, lambda: order.append("early"))
        scheduler.run_until(5.0)
        assert order == ["early", "late"]

    def test_ties_break_by_insertion_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(1.0, lambda: order.append("first"))
        scheduler.schedule(1.0, lambda: order.append("second"))
        scheduler.run_until(2.0)
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(3.5, lambda: seen.append(scheduler.now))
        scheduler.run_until(10.0)
        assert seen == [3.5]
        assert scheduler.now == 10.0

    def test_events_beyond_horizon_stay_pending(self):
        scheduler = EventScheduler()
        scheduler.schedule(5.0, lambda: None)
        scheduler.run_until(1.0)
        assert scheduler.pending() == 1

    def test_cascading_events(self):
        scheduler = EventScheduler()
        fired = []

        def first():
            fired.append("first")
            scheduler.schedule(1.0, lambda: fired.append("second"))

        scheduler.schedule(1.0, first)
        scheduler.run_until(3.0)
        assert fired == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until(2.0)
        with pytest.raises(ValueError):
            scheduler.schedule_at(1.5, lambda: None)

    def test_run_until_backwards_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(5.0)
        with pytest.raises(ValueError):
            scheduler.run_until(1.0)

    def test_event_storm_guard(self):
        scheduler = EventScheduler()

        def rearm():
            scheduler.schedule(0.0, rearm)

        scheduler.schedule(0.0, rearm)
        with pytest.raises(RuntimeError, match="max_events"):
            scheduler.run_until(1.0, max_events=100)

    def test_processed_counter(self):
        scheduler = EventScheduler()
        for _ in range(5):
            scheduler.schedule(0.5, lambda: None)
        scheduler.run_until(1.0)
        assert scheduler.processed_events == 5


class TestRunUntilContract:
    """The documented ``run_until`` contract and its regression cases."""

    def test_clock_reaches_end_time_with_events_still_pending(self):
        # The contract: _now advances to end_time even though an event
        # remains queued beyond the horizon; a later run_until resumes it.
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(5.0, lambda: fired.append(scheduler.now))
        scheduler.run_until(1.0)
        assert scheduler.now == 1.0
        assert scheduler.pending() == 1
        scheduler.run_until(10.0)
        assert fired == [5.0]
        assert scheduler.now == 10.0

    def test_reentrant_run_until_raises(self):
        scheduler = EventScheduler()
        caught = []

        def reenter():
            try:
                scheduler.run_until(100.0)
            except RuntimeError as exc:
                caught.append(str(exc))

        scheduler.schedule(1.0, reenter)
        scheduler.run_until(2.0)
        assert caught and "re-entrant" in caught[0]

    def test_scheduler_usable_after_reentrancy_error(self):
        scheduler = EventScheduler()

        def reenter():
            scheduler.run_until(100.0)

        scheduler.schedule(1.0, reenter)
        with pytest.raises(RuntimeError):
            scheduler.run_until(2.0)
        fired = []
        scheduler.schedule(1.0, lambda: fired.append(True))
        scheduler.run_until(5.0)
        assert fired == [True]


class TestRails:
    def test_rail_events_interleave_with_heap_in_time_order(self):
        scheduler = EventScheduler()
        rail = scheduler.rail(2.0)
        order = []
        scheduler.schedule(1.0, lambda: order.append("heap-1"))
        rail.push(int(EventKind.CALLBACK), lambda: order.append("rail-2"))
        scheduler.schedule(3.0, lambda: order.append("heap-3"))
        scheduler.run_until(5.0)
        assert order == ["heap-1", "rail-2", "heap-3"]

    def test_equal_time_ties_break_by_push_order_across_structures(self):
        scheduler = EventScheduler()
        rail = scheduler.rail(1.0)
        order = []
        scheduler.schedule(1.0, lambda: order.append("heap-first"))
        rail.push(int(EventKind.CALLBACK), lambda: order.append("rail-second"))
        scheduler.schedule(1.0, lambda: order.append("heap-third"))
        scheduler.run_until(2.0)
        assert order == ["heap-first", "rail-second", "heap-third"]

    def test_batch_preempted_by_push_to_other_rail(self):
        # Regression for the batching guard: while a rail batch drains, a
        # handler schedules an earlier event on a DIFFERENT rail; the
        # batch must stop so the new event runs in (time, seq) order.
        scheduler = EventScheduler()
        slow = scheduler.rail(10.0)
        fast = scheduler.rail(0.5)
        order = []

        def first_slow():
            order.append("slow-a")
            # now=10; lands at 10.5, before the batch-mate at time 11.
            fast.push(int(EventKind.CALLBACK), lambda: order.append("fast"))

        slow.push(int(EventKind.CALLBACK), first_slow)  # fires at 10
        scheduler.schedule(1.0, lambda: slow.push(
            int(EventKind.CALLBACK), lambda: order.append("slow-b")
        ))  # second slow event fires at 11
        scheduler.run_until(20.0)
        assert order == ["slow-a", "fast", "slow-b"]

    def test_batch_preempted_by_push_to_heap(self):
        scheduler = EventScheduler()
        slow = scheduler.rail(10.0)
        order = []

        def first_slow():
            order.append("slow-a")
            scheduler.schedule(0.5, lambda: order.append("heap"))

        slow.push(int(EventKind.CALLBACK), first_slow)
        scheduler.schedule(1.0, lambda: slow.push(
            int(EventKind.CALLBACK), lambda: order.append("slow-b")
        ))
        scheduler.run_until(20.0)
        assert order == ["slow-a", "heap", "slow-b"]

    def test_rail_rejects_invalid_delay(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.rail(-1.0)
        with pytest.raises(ValueError):
            scheduler.rail(float("inf"))

    def test_pending_counts_rail_events(self):
        scheduler = EventScheduler()
        rail = scheduler.rail(1.0)
        rail.push(int(EventKind.CALLBACK), lambda: None)
        scheduler.schedule(1.0, lambda: None)
        assert scheduler.pending() == 2


class TestPacketPool:
    """Flows pop packets from the pool to send and append them back once
    the ACK (or loss) is processed."""

    @staticmethod
    def _flow(pool, sent, window=1.0):
        scheduler = EventScheduler()
        flow = Flow(flow_id=0, protocol=AIMD(1, 0.5), scheduler=scheduler,
                    transmit=sent.append, initial_window=window, pool=pool)
        flow.start()
        scheduler.run_until(0.0)
        return scheduler, flow

    def test_acquire_recycles_released_packets(self):
        pool, sent = PacketPool(), []
        scheduler, flow = self._flow(pool, sent)
        first = sent[0]
        scheduler.run_until(3.0)
        flow.on_ack(first)  # back to the pool; the grown window sends two
        assert sent[1] is first
        assert (first.flow_id, first.sequence, first.sent_at) == (0, 1, 3.0)
        assert sent[2] is not first
        assert len(pool) == 0

    def test_pool_grows_only_when_empty(self):
        pool, sent = PacketPool(), []
        _scheduler, flow = self._flow(pool, sent, window=2.0)
        a, b = sent
        assert a is not b
        flow.on_loss(a)  # the resend takes ``a`` back instead of allocating
        assert sent == [a, b, a]
        flow.on_loss(b)  # round 0 closes, the window halves to 1: no send
        assert sent == [a, b, a]
        assert list(pool) == [b]


def pkt(seq: int, flow: int = 0) -> Packet:
    return Packet(flow_id=flow, sequence=seq, sent_at=0.0, round_index=0)


class TestQueue:
    def make(self, scheduler, capacity=2, bandwidth=10.0):
        departed, dropped = [], []
        queue = BottleneckQueue(
            bandwidth=bandwidth,
            capacity=capacity,
            on_departure=departed.append,
            on_drop=dropped.append,
            service_rail=scheduler.rail(1 / bandwidth),
        )
        return queue, departed, dropped

    def test_packets_depart_at_service_rate(self):
        scheduler = EventScheduler()
        queue, departed, _ = self.make(scheduler, bandwidth=10.0)
        queue.arrive(pkt(0))
        queue.arrive(pkt(1))
        scheduler.run_until(0.15)
        assert [p.sequence for p in departed] == [0]
        scheduler.run_until(0.25)
        assert [p.sequence for p in departed] == [0, 1]

    def test_fifo_order(self):
        scheduler = EventScheduler()
        queue, departed, _ = self.make(scheduler, capacity=10)
        for seq in range(5):
            queue.arrive(pkt(seq))
        scheduler.run_until(10.0)
        assert [p.sequence for p in departed] == list(range(5))

    def test_droptail_when_full(self):
        scheduler = EventScheduler()
        queue, departed, dropped = self.make(scheduler, capacity=2)
        # One in service + two buffered; the fourth arrival is dropped.
        for seq in range(4):
            queue.arrive(pkt(seq))
        assert [p.sequence for p in dropped] == [3]
        scheduler.run_until(10.0)
        assert [p.sequence for p in departed] == [0, 1, 2]

    def test_stats_counters(self):
        scheduler = EventScheduler()
        queue, _, _ = self.make(scheduler, capacity=1)
        for seq in range(5):
            queue.arrive(pkt(seq))
        scheduler.run_until(10.0)
        assert queue.stats.enqueued == 2
        assert queue.stats.dropped == 3
        assert queue.stats.departed == 2
        assert queue.stats.drop_rate == pytest.approx(0.6)

    def test_zero_capacity_allows_only_in_service(self):
        scheduler = EventScheduler()
        queue, departed, dropped = self.make(scheduler, capacity=0)
        queue.arrive(pkt(0))
        queue.arrive(pkt(1))
        scheduler.run_until(10.0)
        assert len(departed) == 1
        assert len(dropped) == 1

    def test_max_occupancy_tracks_the_deepest_buffer(self):
        scheduler = EventScheduler()
        queue, departed, _ = self.make(scheduler, capacity=5)
        for seq in range(4):  # one into service, three buffered
            queue.arrive(pkt(seq))
        assert queue.occupancy == 3
        scheduler.run_until(10.0)
        queue.arrive(pkt(4))  # the idle server takes it at once
        scheduler.run_until(20.0)
        assert [p.sequence for p in departed] == list(range(5))
        assert queue.stats.max_occupancy == 3
        assert queue.occupancy == 0

    def test_validation(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            BottleneckQueue(bandwidth=0.0, capacity=1,
                            on_departure=lambda p: None, on_drop=lambda p: None,
                            service_rail=scheduler.rail(1.0))
        with pytest.raises(ValueError):
            BottleneckQueue(bandwidth=1.0, capacity=-1,
                            on_departure=lambda p: None, on_drop=lambda p: None,
                            service_rail=scheduler.rail(1 / 1.0))
        with pytest.raises(ValueError, match="service rail delay"):
            BottleneckQueue(bandwidth=1.0, capacity=1,
                            on_departure=lambda p: None, on_drop=lambda p: None,
                            service_rail=scheduler.rail(0.5))


class TestPacketValidation:
    @pytest.mark.parametrize("kwargs", [
        {"flow_id": -1, "sequence": 0, "sent_at": 0.0, "round_index": 0},
        {"flow_id": 0, "sequence": -1, "sent_at": 0.0, "round_index": 0},
        {"flow_id": 0, "sequence": 0, "sent_at": -1.0, "round_index": 0},
        {"flow_id": 0, "sequence": 0, "sent_at": 0.0, "round_index": -1},
    ])
    def test_rejects_negative_fields(self, kwargs):
        with pytest.raises(ValueError):
            Packet(**kwargs)
