"""Property: the fluid general loop is bit-identical to its frozen copy.

The batch kernel and the row path are held to the general loop, but
neither covers sender starts, link changes, unsynchronized loss,
ECN/RED marking, integer windows, random loss processes or the
history-dependent protocols. For those settings the general loop is the
only implementation, so it is held here to ``reference_fluid`` — a frozen
copy taken before its per-sender step was flattened. Every trace array is
compared as raw uint64 patterns, so a last-ulp change fails, and a
recording sender compares every ``Observation`` field it is shown (only
Vegas and LEDBAT read ``min_rtt``, and neither can tell when it is
updated).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.model.random_loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    NoLoss,
    TraceLoss,
)
from repro.protocols import presets
from repro.protocols.base import Protocol
from repro.protocols.binomial import BIN
from repro.protocols.dctcp import DCTCP
from repro.protocols.highspeed import HighSpeedTcp
from repro.protocols.ledbat import Ledbat
from repro.protocols.vegas import VegasLike

from reference_fluid import reference_run_general

_TRACE_ARRAYS = (
    "windows",
    "observed_loss",
    "congestion_loss",
    "rtts",
    "capacities",
    "pipe_limits",
    "base_rtts",
)

SENDERS = {
    "reno": presets.reno,
    "cubic": presets.cubic,
    "pcc": presets.pcc_like,
    "vegas": VegasLike,
    "ledbat": Ledbat,
    "highspeed": HighSpeedTcp,
    "bin-sqrt": lambda: BIN(1.0, 0.5, 0.5, 0.5),
    "bin-iiad": presets.iiad,
    "robust-aimd": presets.robust_aimd_paper,
    "dctcp": DCTCP,
}


def assert_matches_reference(link, protocols, config, steps):
    expected = reference_run_general(link, protocols, config, steps)
    sim = FluidSimulator(link, protocols, config)
    # Hold the general loop itself, also where ``run`` would pick the row
    # path (test_prop_vectorized.py holds the two loops together).
    sim._run_vectorized = sim._run_general
    actual = sim.run(steps)
    for name in _TRACE_ARRAYS:
        ours, theirs = getattr(actual, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype == np.float64, name
        assert ours.shape == theirs.shape, name
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64)), name


def _marked_link(kind: str, bandwidth: float, buffer_mss: float) -> Link:
    base = Link.from_mbps(bandwidth, 42, buffer_mss)
    if kind == "ecn":
        return Link(base.bandwidth, base.theta, buffer_mss,
                    ecn_threshold=0.3 * buffer_mss)
    if kind == "red":
        return Link(base.bandwidth, base.theta, buffer_mss,
                    red_min_threshold=0.2 * buffer_mss,
                    red_max_threshold=0.8 * buffer_mss,
                    red_max_mark=0.5, red_gentle=True)
    return base


_LOSS = {
    "none": NoLoss,
    "bernoulli": lambda: BernoulliLoss(0.01),
    "bernoulli-coin": lambda: BernoulliLoss(0.02, deterministic=False, seed=7),
    "gilbert-elliott": lambda: GilbertElliottLoss(0.05, 0.3, 0.0, 0.1, seed=3),
    "trace": lambda: TraceLoss([0.0, 0.0, 0.01, 0.0, 0.05]),
}


_SHOWN: dict[str, list[tuple]] = {}


class _Recorder(Protocol):
    """A Vegas-like sender that logs every Observation it is shown.

    The log lives outside the instance, so it survives the simulators'
    deep copies; it lets a test compare every Observation field, not
    just the windows the protocols derive from them.
    """

    def __init__(self, tag: str, loss_based: bool) -> None:
        self.tag = tag
        self.loss_based = loss_based
        self.inner = VegasLike()

    def next_window(self, obs):
        _SHOWN.setdefault(self.tag, []).append(dataclasses.astuple(obs))
        return self.inner.next_window(obs)


@pytest.mark.parametrize("marking", ["none", "ecn", "red"])
@pytest.mark.parametrize("enforce", [True, False])
def test_every_observation_field_matches_reference(marking, enforce):
    # New RTT minima, late joiners, ECN marks and the loss-based
    # placeholder all change what a sender is shown; compare it all.
    link = _marked_link(marking, 20, 100)
    schedule = EventSchedule()
    schedule.add_sender_start(2, step=60, window=10.0)
    schedule.add_link_change(150, link.with_bandwidth(1.5 * link.bandwidth))
    config = SimulationConfig(
        initial_windows=[40.0, 2.0, 1.0],
        schedule=schedule,
        enforce_loss_based=enforce,
    )
    protocols = [_Recorder("latency", False), _Recorder("loss", True), presets.cubic()]
    _SHOWN.clear()
    reference_run_general(link, protocols, config, 300)
    expected = {tag: np.array(rows) for tag, rows in _SHOWN.items()}
    _SHOWN.clear()
    FluidSimulator(link, protocols, config).run(300)
    actual = {tag: np.array(rows) for tag, rows in _SHOWN.items()}
    assert sorted(actual) == sorted(expected) == ["latency", "loss"]
    for tag in expected:
        assert actual[tag].shape == expected[tag].shape, tag
        assert np.array_equal(
            actual[tag].view(np.uint64), expected[tag].view(np.uint64)
        ), tag


@pytest.mark.parametrize("name", sorted(SENDERS))
def test_each_sender_against_reno_matches_reference(name):
    link = Link.from_mbps(20, 42, 50)
    config = SimulationConfig(initial_windows=[3.0, 20.0])
    assert_matches_reference(link, [SENDERS[name](), presets.reno()], config, 400)


@pytest.mark.parametrize("marking", ["ecn", "red"])
def test_dctcp_under_marking_matches_reference(marking):
    link = _marked_link(marking, 20, 100)
    config = SimulationConfig(initial_windows=[5.0, 60.0])
    assert_matches_reference(link, [DCTCP(), DCTCP()], config, 400)


@pytest.mark.parametrize("loss", sorted(_LOSS))
@pytest.mark.parametrize("enforce", [True, False])
def test_loss_processes_match_reference(loss, enforce):
    link = Link.from_mbps(30, 42, 10)
    config = SimulationConfig(
        loss_process=_LOSS[loss](),
        enforce_loss_based=enforce,
    )
    assert_matches_reference(
        link, [presets.cubic(), VegasLike(), presets.pcc_like()], config, 300
    )


def test_starts_and_link_changes_match_reference():
    link = Link.from_mbps(20, 42, 100)
    schedule = EventSchedule()
    schedule.add_sender_start(1, step=50, window=4.0)
    schedule.add_sender_start(2, step=120, window=30.0)
    schedule.add_link_change(80, link.with_bandwidth(0.5 * link.bandwidth))
    schedule.add_link_change(200, link.with_bandwidth(2.0 * link.bandwidth))
    config = SimulationConfig(schedule=schedule)
    assert_matches_reference(
        link, [presets.reno(), presets.cubic(), Ledbat()], config, 300
    )


@settings(max_examples=40, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(SENDERS)), min_size=1, max_size=4),
    bandwidth=st.sampled_from([10.0, 20.0, 60.0]),
    buffer_mss=st.sampled_from([10.0, 50.0, 100.0]),
    marking=st.sampled_from(["none", "ecn", "red"]),
    loss=st.sampled_from(sorted(_LOSS)),
    unsynchronized=st.booleans(),
    integer_windows=st.booleans(),
    enforce=st.booleans(),
    starts=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 150),
                  st.floats(min_value=0.0, max_value=40.0)),
        max_size=3,
    ),
    changes=st.lists(
        st.tuples(st.integers(0, 200), st.floats(min_value=0.25, max_value=4.0)),
        max_size=2,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_configurations_match_reference(
    names, bandwidth, buffer_mss, marking, loss, unsynchronized,
    integer_windows, enforce, starts, changes, seed,
):
    link = _marked_link(marking, bandwidth, buffer_mss)
    n = len(names)
    schedule = EventSchedule()
    for sender, step, window in starts:
        if sender < n:
            schedule.add_sender_start(sender, step, window)
    for step, factor in changes:
        schedule.add_link_change(step, link.with_bandwidth(factor * link.bandwidth))
    rng = np.random.default_rng(seed)
    config = SimulationConfig(
        initial_windows=[float(w) for w in rng.uniform(1.0, 40.0, size=n)],
        integer_windows=integer_windows,
        loss_process=_LOSS[loss](),
        schedule=schedule,
        enforce_loss_based=enforce,
        unsynchronized_loss=unsynchronized,
        seed=seed,
    )
    protocols = [SENDERS[name]() for name in names]
    assert_matches_reference(link, protocols, config, 250)
