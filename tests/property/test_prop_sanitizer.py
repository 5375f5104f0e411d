"""Property: sanitizer checks never change results.

``repro.debug`` checks are observers — a run with ``REPRO_DEBUG_CHECKS=1``
must be *bit-identical* to a run without, for both the fluid model and
the packet simulator. Float arrays are compared as raw uint64 patterns so
even a last-ulp divergence fails loudly. This is the contract that lets
the test suite keep the sanitizer on everywhere without invalidating the
numbers it checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import debug
from repro.model.dynamics import _GENERAL_LOOP_MAX_FLOWS, FluidSimulator
from repro.model.link import Link
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.protocols import presets

PROTOCOL_FACTORIES = {
    "aimd": presets.reno,
    "cubic": presets.cubic,
    "robust-aimd": presets.robust_aimd_paper,
}


def _bits(values) -> list[int]:
    array = np.asarray(values, dtype=np.float64)
    return array.reshape(-1).view(np.uint64).tolist()


def _assert_traces_identical(checked, unchecked) -> None:
    for name in ("windows", "observed_loss", "congestion_loss", "rtts",
                 "capacities", "pipe_limits", "base_rtts"):
        a, b = getattr(checked, name), getattr(unchecked, name)
        assert _bits(a) == _bits(b), name


def _assert_scenarios_identical(checked, unchecked) -> None:
    assert checked.events == unchecked.events
    assert checked.queue.enqueued == unchecked.queue.enqueued
    assert checked.queue.dropped == unchecked.queue.dropped
    assert checked.queue.departed == unchecked.queue.departed
    assert checked.queue.max_occupancy == unchecked.queue.max_occupancy
    for a, b in zip(checked.flows, unchecked.flows, strict=True):
        assert a.packets_sent == b.packets_sent
        assert a.packets_acked == b.packets_acked
        assert a.packets_lost == b.packets_lost
        assert a.rounds_completed == b.rounds_completed
        assert _bits(a.ack_times) == _bits(b.ack_times)
        assert _bits(a.loss_times) == _bits(b.loss_times)
        assert _bits(a.rtt_samples) == _bits(b.rtt_samples)
        assert _bits(a.window_samples) == _bits(b.window_samples)


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    # Both sides of the cutoff, so both loops of a stateless run.
    n=st.integers(min_value=1, max_value=_GENERAL_LOOP_MAX_FLOWS + 3),
    steps=st.integers(min_value=5, max_value=60),
)
def test_fluid_run_bit_identical_under_checks(name, n, steps):
    link = Link.from_mbps(20, 42, 100)
    factory = PROTOCOL_FACTORIES[name]

    def run():
        sim = FluidSimulator(link, [factory() for _ in range(n)])
        return sim.run(steps)

    with debug.checks(True):
        checked = run()
    with debug.checks(False):
        unchecked = run()
    _assert_traces_identical(checked, unchecked)


@settings(max_examples=5, deadline=None)
@given(
    name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    n=st.integers(min_value=1, max_value=3),
    loss=st.sampled_from([0.0, 0.01]),
)
def test_packet_run_bit_identical_under_checks(name, n, loss):
    factory = PROTOCOL_FACTORIES[name]

    def run():
        scenario = PacketScenario.from_mbps(
            10, 42, 50, [factory() for _ in range(n)],
            duration=3.0, random_loss_rate=loss,
        )
        return run_scenario(scenario)

    with debug.checks(True):
        checked = run()
    with debug.checks(False):
        unchecked = run()
    _assert_scenarios_identical(checked, unchecked)


@pytest.mark.slow
def test_emulab_scale_scenario_bit_identical_under_checks():
    """The acceptance scenario: paper-scale Emulab run, checked vs not."""

    def run():
        scenario = PacketScenario.from_mbps(
            20, 42, 100,
            [presets.reno(), presets.cubic(), presets.robust_aimd_paper()],
            duration=10.0,
        )
        return run_scenario(scenario)

    with debug.checks(True):
        checked = run()
    with debug.checks(False):
        unchecked = run()
    _assert_scenarios_identical(checked, unchecked)
