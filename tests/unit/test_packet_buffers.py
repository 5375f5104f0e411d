"""``FlowStats`` keeps its per-packet series in ``array('d')`` buffers.

``ack_times``, ``loss_times`` and ``rtt_samples`` take one float per
packet event, so every ``FlowStats`` holds them as ``array('d')`` (8 bytes
a sample), never as lists of Python floats: fresh from a solo scenario, a
merged group or a workload, loaded back from the store, and built by hand
from a list. A loaded series has the bits of the fresh one and owns its
memory, so no series keeps a decoded store bundle alive.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.exec import Executor, PacketScenarioJob, WorkloadJob
from repro.model.link import Link
from repro.packetsim.host import FlowStats
from repro.packetsim.scenario import PacketScenario
from repro.packetsim.workload import FlowSpec
from repro.perf.cache import TraceCache, cache_enabled
from repro.protocols import presets

SERIES = ("ack_times", "loss_times", "rtt_samples")


def _scenario(seed: int) -> PacketScenario:
    # A shallow buffer, so the flows lose packets and every series fills.
    return PacketScenario.from_mbps(
        10.0, 42.0, 8, [presets.reno(), presets.cubic()], duration=3.0, seed=seed
    )


#: Each case's jobs; one submission runs them in one merged call.
CASES = {
    "solo": lambda: [PacketScenarioJob(_scenario(1))],
    "merged": lambda: [PacketScenarioJob(_scenario(1)), PacketScenarioJob(_scenario(2))],
    "workload": lambda: [
        WorkloadJob(
            link=Link.from_mbps(10, 42, 8),
            specs=[FlowSpec(0.0, 150, presets.reno()), FlowSpec(0.2, 150, presets.reno())],
            duration=3.0,
        )
    ],
}


def _flows(values) -> list[FlowStats]:
    return [flow for value in values for flow in value.flows]


def _assert_float_buffers(flows) -> None:
    for flow in flows:
        for name in SERIES:
            series = getattr(flow, name)
            assert type(series) is array and series.typecode == "d", name


def _bits(series: array) -> list[int]:
    return np.frombuffer(series, dtype=np.uint64).tolist()


@pytest.mark.parametrize("case", sorted(CASES))
def test_fresh_and_loaded_series_are_float_buffers_with_equal_bits(case, tmp_path):
    jobs = CASES[case]()
    with cache_enabled(tmp_path):
        fresh = Executor().submit(jobs)
        loaded = Executor().submit(jobs)
    assert [outcome.source for outcome in fresh] == ["computed"] * len(jobs)
    assert [outcome.source for outcome in loaded] == ["cache"] * len(jobs)
    fresh_flows = _flows(outcome.value for outcome in fresh)
    loaded_flows = _flows(outcome.value for outcome in loaded)
    assert any(flow.loss_times for flow in fresh_flows)
    _assert_float_buffers(fresh_flows + loaded_flows)
    for want, got in zip(fresh_flows, loaded_flows, strict=True):
        for name in SERIES:
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_loaded_series_share_no_memory_with_the_bundle(case, tmp_path, monkeypatch):
    bundles: list[np.ndarray] = []
    get_arrays = TraceCache.get_arrays

    def keep_bundle(self, key, decode=None):
        def decode_and_keep(arrays):
            # Every member views the one buffer the bundle decoded into.
            bundles.append(np.frombuffer(arrays["meta"].base, dtype=np.uint8))
            return decode(arrays)

        return get_arrays(self, key, decode=decode_and_keep)

    jobs = CASES[case]()
    with cache_enabled(tmp_path):
        Executor().run(jobs)
        monkeypatch.setattr(TraceCache, "get_arrays", keep_bundle)
        flows = _flows(Executor().run(jobs))
    assert len(bundles) == len(jobs)
    _assert_float_buffers(flows)
    for flow in flows:
        for name in SERIES:
            view = np.asarray(getattr(flow, name))
            assert not any(np.shares_memory(view, bundle) for bundle in bundles), name


def test_a_list_given_to_flow_stats_is_stored_as_a_float_buffer():
    stats = FlowStats(ack_times=[0.1, 0.5], loss_times=[0.7], rtt_samples=[0.04, -0.0])
    _assert_float_buffers([stats])
    assert _bits(stats.ack_times) == np.array([0.1, 0.5]).view(np.uint64).tolist()
    assert _bits(stats.loss_times) == np.array([0.7]).view(np.uint64).tolist()
    assert _bits(stats.rtt_samples) == np.array([0.04, -0.0]).view(np.uint64).tolist()


def test_default_series_are_empty_float_buffers_of_their_own():
    first, second = FlowStats(), FlowStats()
    _assert_float_buffers([first, second])
    first.ack_times.append(1.0)
    assert len(second.ack_times) == 0


def test_a_float_buffer_given_to_flow_stats_is_kept_without_a_copy():
    buffer = array("d", [0.25])
    assert FlowStats(ack_times=buffer).ack_times is buffer
