"""Unit tests for the runtime sanitizer (``repro.debug``).

Each test corrupts one simulator invariant directly — a clock pushed into
the past, a leaky packet counter, a protocol proposing NaN — and asserts
that the matching named check trips with a :class:`DebugCheckError`.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

from repro import debug
from repro.model.dynamics import _validate_trace
from repro.model.sender import Observation
from repro.model.trace import SimulationTrace
from repro.packetsim.engine import EventKind, EventScheduler
from repro.packetsim.host import Flow
from repro.packetsim.packet import Packet
from repro.packetsim.queue import BottleneckQueue
from repro.protocols.base import Protocol

_CALLBACK = int(EventKind.CALLBACK)


def _noop(*_args) -> None:
    return None


# ---------------------------------------------------------------- debug API
def test_env_var_controls_default(monkeypatch):
    for value, expected in [("1", True), ("true", True), ("on", True),
                            ("", False), ("0", False), ("false", False),
                            ("off", False)]:
        monkeypatch.setenv(debug.ENV_VAR, value)
        assert debug._from_env() is expected, value
    monkeypatch.delenv(debug.ENV_VAR)
    assert debug._from_env() is False


def test_checks_context_manager_restores_state():
    assert debug.enabled()  # the suite-wide fixture turned them on
    with debug.checks(False):
        assert not debug.enabled()
        with debug.checks(True):
            assert debug.enabled()
        assert not debug.enabled()
    assert debug.enabled()


def test_fail_names_the_invariant():
    with pytest.raises(debug.DebugCheckError, match=r"\[some-invariant\]"):
        debug.fail("some-invariant", "details here")
    # DebugCheckError is an AssertionError so plain pytest.raises works too.
    assert issubclass(debug.DebugCheckError, AssertionError)


# ------------------------------------------------------------- clock checks
def test_corrupted_rail_event_trips_monotonic_clock():
    scheduler = EventScheduler()
    rail = scheduler.rail(0.5)
    scheduler.run_until(1.0)
    # Bypass Rail.push (which guards ordering) and plant a past-time event.
    rail._events.append((0.25, 10**9, _CALLBACK, _noop, None))
    with pytest.raises(debug.DebugCheckError, match=r"\[monotonic-clock\]"):
        scheduler.run_until(2.0)


def test_corrupted_heap_event_trips_monotonic_clock():
    scheduler = EventScheduler()
    scheduler.run_until(1.0)
    heapq.heappush(scheduler._heap, (0.25, 10**9, _CALLBACK, _noop, None))
    with pytest.raises(debug.DebugCheckError, match=r"\[monotonic-clock\]"):
        scheduler.run_until(2.0)


# ------------------------------------------------------------- queue checks
def _queue(scheduler: EventScheduler, capacity: int = 2) -> BottleneckQueue:
    return BottleneckQueue(bandwidth=100.0, capacity=capacity,
                           on_departure=_noop, on_drop=_noop,
                           service_rail=scheduler.rail(1 / 100.0))


def test_corrupted_counter_trips_packet_conservation():
    scheduler = EventScheduler()
    queue = _queue(scheduler)
    queue.arrive(Packet(0, 0, 0.0, 0))
    queue.stats.enqueued += 5  # pretend packets entered that never did
    with pytest.raises(debug.DebugCheckError, match=r"\[packet-conservation\]"):
        scheduler.run_until(1.0)


def test_overfull_buffer_trips_queue_occupancy():
    scheduler = EventScheduler()
    queue = _queue(scheduler, capacity=2)
    # Stuff the buffer behind the droptail check's back, then arrive once.
    queue._buffer.extend(Packet(0, seq, 0.0, 0) for seq in range(3))
    with pytest.raises(debug.DebugCheckError, match=r"\[queue-occupancy\]"):
        queue.arrive(Packet(0, 99, 0.0, 0))


def test_clean_queue_run_passes_checks():
    scheduler = EventScheduler()
    queue = _queue(scheduler, capacity=2)
    for seq in range(5):
        queue.arrive(Packet(0, seq, 0.0, 0))
    scheduler.run_until(1.0)
    assert queue.stats.departed == queue.stats.enqueued


# -------------------------------------------------------------- flow checks
class _NaNProtocol(Protocol):
    def next_window(self, obs: Observation) -> float:
        return math.nan


def _flow(protocol: Protocol | None = None) -> tuple[EventScheduler, Flow]:
    scheduler = EventScheduler()
    flow = Flow(flow_id=0, protocol=protocol or _NaNProtocol(),
                scheduler=scheduler, transmit=_noop)
    return scheduler, flow


def test_double_counted_ack_trips_flow_accounting():
    _scheduler, flow = _flow()
    packet = Packet(0, 0, 0.0, 0)
    flow.inflight = 0  # an ACK with nothing in flight is double-counting
    with pytest.raises(debug.DebugCheckError, match=r"\[flow-accounting\]"):
        flow.on_ack(packet)


def test_negative_rtt_trips_flow_accounting():
    _scheduler, flow = _flow()
    packet = Packet(0, 0, 5.0, 0)  # "sent" in the future
    flow.inflight = 1
    with pytest.raises(debug.DebugCheckError, match=r"\[flow-accounting\]"):
        flow.on_ack(packet)


def test_double_counted_loss_trips_flow_accounting():
    _scheduler, flow = _flow()
    packet = Packet(0, 0, 0.0, 0)
    flow.inflight = 0
    with pytest.raises(debug.DebugCheckError, match=r"\[flow-accounting\]"):
        flow.on_loss(packet)


def test_nan_window_from_protocol_trips_window_bounds():
    sent = []
    scheduler = EventScheduler()
    flow = Flow(flow_id=0, protocol=_NaNProtocol(), scheduler=scheduler,
                transmit=sent.append)
    flow.start()
    scheduler.run_until(0.0)  # round 0's one-packet quota goes out
    assert len(sent) == 1
    with pytest.raises(debug.DebugCheckError, match=r"\[window-bounds\]"):
        flow.on_ack(sent[0])  # completes round 0: the protocol says NaN


def test_checks_off_lets_corruption_pass_silently():
    with debug.checks(False):
        _scheduler, flow = _flow()
        packet = Packet(0, 0, 0.0, 0)
        flow.inflight = 0
        flow.on_ack(packet)  # no DebugCheckError
        assert flow.stats.packets_acked == 1


# ------------------------------------------------------------- trace checks
def _trace(**overrides) -> SimulationTrace:
    steps, n = 4, 2
    values = dict(
        windows=np.ones((steps, n)),
        observed_loss=np.zeros((steps, n)),
        congestion_loss=np.zeros(steps),
        rtts=np.full(steps, 0.05),
        capacities=np.full(steps, 100.0),
        pipe_limits=np.full(steps, 5.0),
        base_rtts=np.full(steps, 0.05),
    )
    values.update(overrides)
    return SimulationTrace(**values)


def test_clean_trace_passes_validation():
    _validate_trace(_trace())
    # NaN windows are legal: senders that have not started yet.
    windows = np.ones((4, 2))
    windows[0, :] = np.nan
    _validate_trace(_trace(windows=windows, observed_loss=windows * 0))


@pytest.mark.parametrize("corruption,invariant", [
    ({"windows": np.full((4, 2), np.inf)}, "trace-finite"),
    ({"congestion_loss": np.array([0.0, 1.5, 0.0, 0.0])}, "trace-loss-range"),
    ({"congestion_loss": np.array([0.0, -0.1, 0.0, 0.0])}, "trace-loss-range"),
    ({"observed_loss": np.full((4, 2), np.inf)}, "trace-loss-range"),
    ({"rtts": np.array([0.05, 0.0, 0.05, 0.05])}, "trace-finite"),
    ({"capacities": np.full(4, np.inf)}, "trace-finite"),
])
def test_corrupted_trace_trips_named_check(corruption, invariant):
    with pytest.raises(debug.DebugCheckError, match=rf"\[{invariant}\]"):
        _validate_trace(_trace(**corruption))
