"""Property: the optimised packet simulator is bit-identical to the seed.

The slotted engine, rails, packet pool and round-record freelist are pure
performance work — every statistic must match the frozen pre-refactor
reference (``reference_packetsim``) *bit for bit*, not approximately.
Float arrays are compared as raw uint64 patterns so even a last-ulp
divergence (a reordered addition, a changed RNG draw) fails loudly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.protocols import presets

from reference_packetsim import reference_run_scenario


def _bits(values) -> list[int]:
    array = np.asarray(values, dtype=np.float64)
    return array.reshape(-1).view(np.uint64).tolist()


def assert_scenario_matches_reference(scenario: PacketScenario) -> None:
    ref_flows, ref_queue, ref_events = reference_run_scenario(scenario)
    result = run_scenario(scenario)

    assert result.events == ref_events
    assert result.queue.enqueued == ref_queue.enqueued
    assert result.queue.dropped == ref_queue.dropped
    assert result.queue.departed == ref_queue.departed
    assert result.queue.max_occupancy == ref_queue.max_occupancy

    for stats, ref in zip(result.flows, ref_flows, strict=True):
        assert stats.packets_sent == ref.packets_sent
        assert stats.packets_acked == ref.packets_acked
        assert stats.packets_lost == ref.packets_lost
        assert stats.rounds_completed == ref.rounds_completed
        assert _bits(stats.ack_times) == _bits(ref.ack_times)
        assert _bits(stats.loss_times) == _bits(ref.loss_times)
        assert _bits(stats.rtt_samples) == _bits(ref.rtt_samples)
        assert _bits(stats.window_samples) == _bits(ref.window_samples)


PROTOCOL_FACTORIES = {
    "aimd": presets.reno,
    "cubic": presets.cubic,
    "robust-aimd": presets.robust_aimd_paper,
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
def test_homogeneous_pair_matches_reference(name):
    factory = PROTOCOL_FACTORIES[name]
    scenario = PacketScenario.from_mbps(
        20, 42, 100, [factory(), factory()], duration=10.0
    )
    assert_scenario_matches_reference(scenario)


@pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
def test_mixed_with_reno_matches_reference(name):
    factory = PROTOCOL_FACTORIES[name]
    scenario = PacketScenario.from_mbps(
        20, 42, 100, [factory(), presets.reno()],
        duration=10.0, start_times=[0.0, 1.0],
    )
    assert_scenario_matches_reference(scenario)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    n_flows=st.integers(min_value=1, max_value=4),
    bandwidth=st.sampled_from([10.0, 20.0, 60.0]),
    buffer_mss=st.sampled_from([10, 50, 100]),
    loss=st.sampled_from([0.0, 0.01, 0.05]),
    seed=st.integers(min_value=0, max_value=2**16),
    stagger=st.booleans(),
)
def test_random_scenarios_match_reference(
    name, n_flows, bandwidth, buffer_mss, loss, seed, stagger
):
    factory = PROTOCOL_FACTORIES[name]
    scenario = PacketScenario.from_mbps(
        bandwidth,
        42,
        buffer_mss,
        [factory() for _ in range(n_flows)],
        duration=6.0,
        random_loss_rate=loss,
        seed=seed,
        start_times=[0.5 * i for i in range(n_flows)] if stagger else None,
    )
    assert_scenario_matches_reference(scenario)


def test_window_decisions_carry_identical_floats():
    # The protocol consultation path (Observation fields, cwnd clamping)
    # runs through pooled round records; spot-check the decided windows.
    scenario = PacketScenario.from_mbps(
        20, 42, 50, [presets.cubic(), presets.reno()], duration=12.0
    )
    ref_flows, _, _ = reference_run_scenario(scenario)
    result = run_scenario(scenario)
    for stats, ref in zip(result.flows, ref_flows, strict=True):
        ours = [w for _, w in stats.window_samples]
        theirs = [w for _, w in ref.window_samples]
        assert _bits(ours) == _bits(theirs)
        assert all(math.isfinite(w) for w in ours)
