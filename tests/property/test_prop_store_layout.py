"""The format-2 entry layouts round-trip bit for bit.

Format 2 (:mod:`repro.perf.store`, :mod:`repro.perf.packet_cache`)
stores each value once: equal per-flow columns as one column, a
``flow_rtts`` that repeats ``rtts`` as a flag, constant link columns as
one scalar, and time series as word deltas (:mod:`repro.perf.codec`).
Every choice compares bit patterns, so the draws aim at the values a
float comparison gets wrong: -0.0 against 0.0, NaN payloads, ±inf and
NaN lead-ins. Decoded fields must own their memory, because a view into
the decoded bundle would keep the whole buffer alive.
"""

from __future__ import annotations

import dataclasses
import itertools
import tempfile
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ScenarioSpec, run_spec
from repro.backends.trace import UnifiedTrace
from repro.exec.wire import decode_trace, encode_trace
from repro.model.link import Link
from repro.packetsim.host import FlowStats
from repro.packetsim.queue import QueueStats
from repro.packetsim.scenario import ScenarioResult
from repro.packetsim.workload import WorkloadResult
from repro.perf import packet_cache
from repro.perf.cache import TraceCache
from repro.perf.codec import pack_arrays, unpack_arrays
from repro.perf.store import trace_from_arrays, trace_to_arrays
from repro.protocols.aimd import AIMD

KEY = "cd" * 32

_ARRAY_FIELDS = tuple(
    field.name for field in dataclasses.fields(UnifiedTrace) if field.name != "backend"
)

#: Bit patterns that float comparison gets wrong, and a few it gets right.
_SPECIAL_BITS = (
    0x0000000000000000,  # 0.0
    0x8000000000000000,  # -0.0
    0x7FF8000000000000,  # the default quiet NaN
    0x7FF8000000000001,  # a quiet NaN with a payload
    0xFFF8000000000000,  # a negative NaN
    0x7FF0000000000001,  # a signalling NaN
    0x7FF0000000000000,  # inf
    0xFFF0000000000000,  # -inf
    0x3FF0000000000000,  # 1.0
)
_NAN = 0x7FF8000000000000

#: (most columns, one element of one column): different bits, yet equal
#: to ``==`` or NaN in both.
_TWINS = (
    (0x0000000000000000, 0x8000000000000000),
    (0x8000000000000000, 0x0000000000000000),
    (0x7FF8000000000000, 0x7FF8000000000001),
)

_BITS = (
    st.sampled_from(_SPECIAL_BITS)
    | st.integers(0, 2**64 - 1)
    | st.floats().map(lambda value: int(np.float64(value).view(np.uint64)))
)


def _column(draw, steps: int) -> np.ndarray:
    return np.array(
        draw(st.lists(_BITS, min_size=steps, max_size=steps)), dtype=np.uint64
    )


def _per_flow(draw, steps: int, n: int, column: np.ndarray | None = None) -> np.ndarray:
    """(steps, n) bits: ``column`` (or a drawn column) in every column,
    the same but for one twin element, or free.

    A twin row is written into ``column`` too, so a passed-in column and
    the result then differ in that one element only.
    """
    mode = draw(st.sampled_from(["equal", "twin", "free"]))
    if mode == "free":
        return _column(draw, steps * n).reshape(steps, n)
    own = column is None
    if own:
        column = _column(draw, steps)
    if mode == "twin" and steps and n > own:
        row = draw(st.integers(0, steps - 1))
        most, one = draw(st.sampled_from(_TWINS))
        column[row] = most
        bits = np.repeat(column[:, None], n, axis=1)
        bits[row, draw(st.integers(0, n - 1))] = one
        return bits
    return np.repeat(column[:, None], n, axis=1)


def _link_column(draw, steps: int) -> np.ndarray:
    """(steps,) bits: constant, constant but for one twin element, or free."""
    mode = draw(st.sampled_from(["constant", "twin", "free"]))
    if mode == "free":
        return _column(draw, steps)
    bits = np.full(steps, draw(_BITS), dtype=np.uint64)
    if mode == "twin" and steps > 1:
        most, one = draw(st.sampled_from(_TWINS))
        bits[:] = most
        bits[draw(st.integers(0, steps - 1))] = one
    return bits


def _lead_in(draw, bits: np.ndarray) -> np.ndarray:
    """``bits`` with NaN rows before each column's (staggered) start."""
    steps = bits.shape[0]
    for flow in range(bits.shape[1]):
        bits[: draw(st.integers(0, steps)), flow] = _NAN
    return bits


@st.composite
def traces(draw) -> UnifiedTrace:
    """A trace in the shape of any backend's, or of none."""
    steps = draw(st.integers(0, 6))
    n = draw(st.integers(0, 4))
    staggered = draw(st.booleans())
    rtts = _column(draw, steps)
    per_flow = {
        "windows": _lead_in(draw, _column(draw, steps * n).reshape(steps, n)),
        "observed_loss": _per_flow(draw, steps, n),
    }
    if staggered:
        per_flow["observed_loss"] = _lead_in(draw, per_flow["observed_loss"])
    flow_rtts = draw(st.sampled_from(["none", "rtts", "per-flow"]))
    if flow_rtts != "none":
        per_flow["flow_rtts"] = _per_flow(
            draw, steps, n, rtts if flow_rtts == "rtts" else None
        )
    per_step = {"rtts": rtts, "congestion_loss": _column(draw, steps)}
    for name in ("capacities", "pipe_limits", "base_rtts"):
        per_step[name] = _link_column(draw, steps)
    if draw(st.booleans()):
        per_step["times"] = _column(draw, steps)
    return UnifiedTrace(
        **{name: bits.view(np.float64) for name, bits in {**per_flow, **per_step}.items()},
        backend=draw(st.sampled_from(["fluid", "network", "packet", "meanfield"])),
    )


def _assert_same_trace(got: UnifiedTrace, want: UnifiedTrace) -> None:
    assert got.backend == want.backend
    for name in _ARRAY_FIELDS:
        value, expected = getattr(got, name), getattr(want, name)
        if expected is None:
            assert value is None, name
            continue
        assert value.dtype.str == expected.dtype.str, name
        assert value.shape == expected.shape, name
        assert np.array_equal(
            value.reshape(-1).view(np.uint64), expected.reshape(-1).view(np.uint64)
        ), name
        assert value.flags.writeable and value.flags.c_contiguous, name


def _assert_owns_memory(trace: UnifiedTrace, bundle: dict) -> None:
    fields = [getattr(trace, name) for name in _ARRAY_FIELDS]
    fields = [value for value in fields if value is not None]
    for a, b in itertools.combinations(fields, 2):
        assert not np.shares_memory(a, b)
    for value, member in itertools.product(fields, bundle.values()):
        assert not np.shares_memory(value, member)


# ----------------------------------------------------------------------
# Unified traces
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=400)
@given(trace=traces())
def test_trace_round_trips_bit_for_bit_in_fresh_memory(trace):
    bundle = unpack_arrays(pack_arrays(trace_to_arrays(trace)))
    again = trace_from_arrays(bundle)
    _assert_same_trace(again, trace)
    _assert_owns_memory(again, bundle)


def _spec() -> ScenarioSpec:
    return ScenarioSpec(
        protocols=[AIMD(1, 0.5), AIMD(2, 0.8)],
        link=Link.from_mbps(20, 42, 30),
        steps=60,
    )


@pytest.mark.parametrize("backend", ["fluid", "network", "packet", "meanfield"])
def test_wire_round_trip_on_every_backend(backend):
    trace = run_spec(_spec(), backend, use_cache=False)
    _assert_same_trace(decode_trace(encode_trace(trace)), trace)


def test_a_fluid_trace_stores_each_value_once():
    trace = run_spec(_spec(), "fluid", use_cache=False)
    arrays = trace_to_arrays(trace)
    assert arrays["windows"].dtype == arrays["rtts"].dtype == np.uint64
    assert arrays["observed_loss"].shape == (trace.steps,)
    assert "flow_rtts" not in arrays and bool(arrays["flow_rtts_from_rtts"])
    for name in ("capacities", "pipe_limits", "base_rtts"):
        assert arrays[name].shape == ()


def test_a_packet_trace_keeps_its_per_flow_columns():
    trace = run_spec(_spec(), "packet", use_cache=False)
    arrays = trace_to_arrays(trace)
    assert arrays["observed_loss"].shape == trace.windows.shape
    assert arrays["flow_rtts"].shape == trace.windows.shape
    assert "flow_rtts_from_rtts" not in arrays
    assert arrays["times"].tobytes() == trace.times.tobytes()


def test_a_column_that_does_not_fit_is_refused_before_it_is_repeated():
    # Zero steps of a billion flows take no bytes; repeating a 3-step
    # column across them would take 24 GB.
    arrays = trace_to_arrays(run_spec(_spec(), "fluid", use_cache=False))
    arrays["windows"] = np.zeros((0, 10**9), dtype=np.uint64)
    with pytest.raises(ValueError, match="does not fit"):
        trace_from_arrays(unpack_arrays(pack_arrays(arrays)))


# ----------------------------------------------------------------------
# Packet entries
# ----------------------------------------------------------------------
_FLOAT = _BITS.map(lambda bits: float(np.uint64(bits).view(np.float64)))
_SAMPLES = st.lists(_FLOAT, max_size=8)
_COUNT = st.integers(0, 2**40)


@st.composite
def flow_stats(draw) -> FlowStats:
    return FlowStats(
        packets_sent=draw(_COUNT),
        packets_acked=draw(_COUNT),
        packets_lost=draw(_COUNT),
        ack_times=draw(_SAMPLES),
        loss_times=draw(_SAMPLES),
        rtt_samples=draw(_SAMPLES),
        window_samples=draw(st.lists(st.tuples(_FLOAT, _FLOAT), max_size=6)),
        rounds_completed=draw(_COUNT),
        completed_at=draw(st.none() | st.floats(0.0, 1e6)),
        retransmissions=draw(_COUNT),
    )


@st.composite
def queue_stats(draw) -> QueueStats:
    return QueueStats(*(draw(_COUNT) for _ in range(4)))


def _bits_of(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64).tolist()


def _assert_same_flow(got: FlowStats, want: FlowStats) -> None:
    for field in dataclasses.fields(FlowStats):
        value, expected = getattr(got, field.name), getattr(want, field.name)
        if field.name == "window_samples":
            assert all(type(pair) is tuple and len(pair) == 2 for pair in value)
            value = [x for pair in value for x in pair]
            expected = [x for pair in expected for x in pair]
            assert all(type(x) is float for x in value), field.name
        if isinstance(expected, (list, array)):
            # The per-packet series are array('d') buffers on both sides.
            assert type(value) is type(expected), field.name
            assert _bits_of(value) == _bits_of(expected), field.name
        else:
            assert value == expected, field.name


def _assert_same_queue(got: QueueStats, want: QueueStats) -> None:
    assert (got.enqueued, got.dropped, got.departed, got.max_occupancy) == (
        want.enqueued, want.dropped, want.departed, want.max_occupancy
    )


@settings(deadline=None, max_examples=150)
@given(
    flows=st.lists(flow_stats(), max_size=3),
    queue=queue_stats(),
    events=_COUNT,
    duration=st.floats(0.0, 1e4),
)
def test_scenario_result_round_trips(flows, queue, events, duration):
    result = ScenarioResult(
        scenario=None, flows=flows, queue=queue, duration=duration, events=events
    )
    with tempfile.TemporaryDirectory() as directory:
        cache = TraceCache(directory)
        packet_cache.store_scenario_result(cache, KEY, result)
        again = packet_cache.load_scenario_result(cache, KEY, None)
    assert (again.events, again.duration) == (events, duration)
    assert len(again.flows) == len(flows)
    for got, want in zip(again.flows, flows):
        _assert_same_flow(got, want)
    _assert_same_queue(again.queue, queue)


@settings(deadline=None, max_examples=100)
@given(flows=st.lists(flow_stats(), max_size=3), duration=st.floats(0.0, 1e4))
def test_workload_result_round_trips(flows, duration):
    specs = [object() for _ in flows]
    result = WorkloadResult(specs=specs, flows=flows, duration=duration)
    with tempfile.TemporaryDirectory() as directory:
        cache = TraceCache(directory)
        packet_cache.store_workload_result(cache, KEY, result)
        again = packet_cache.load_workload_result(cache, KEY, specs, duration)
    assert again.specs == specs and again.duration == duration
    for got, want in zip(again.flows, flows, strict=True):
        _assert_same_flow(got, want)
