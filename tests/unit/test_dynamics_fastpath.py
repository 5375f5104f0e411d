"""The fluid fast-path predicate (repro.backends.batch).

One predicate, ``synchronized_stateless``, says whether a fluid run's
windows can step as rows of the batch kernel, and the fluid lane's
lowering asks it. Every other run, and every run outside the kernel
lane, steps ``FluidSimulator``'s general loop. Bit-identity of the
kernel and the general loop is property-tested in
``tests/property/test_prop_batch.py``; these tests pin down the
predicate.
"""

import numpy as np
import pytest

from repro.backends import ScenarioSpec
from repro.backends.batch import _lower_fluid, synchronized_stateless
from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.protocols.aimd import AIMD
from repro.protocols.cubic import CUBIC
from repro.protocols.mimd import MIMD


@pytest.fixture
def link():
    return Link.from_mbps(20, 42, 100)


def eligible(link, protocols, config=None):
    return synchronized_stateless(link, protocols, config or SimulationConfig())


def _ecn_link():
    base = Link.from_mbps(20, 42, 100)
    return Link(
        bandwidth=base.bandwidth,
        theta=base.theta,
        buffer_size=base.buffer_size,
        ecn_threshold=10.0,
    )


def _schedule(kind, link):
    schedule = EventSchedule()
    if kind == "start":
        schedule.add_sender_start(1, step=100, window=1.0)
    else:
        schedule.add_link_change(step=100, link=link.with_bandwidth(2 * link.bandwidth))
    return schedule


class TestEligible:
    def test_homogeneous_aimd(self, link):
        assert eligible(link, [AIMD(1, 0.5)] * 3)

    def test_single_sender(self, link):
        assert eligible(link, [AIMD(1, 0.5)])

    def test_deterministic_bernoulli_loss(self, link):
        # A constant random loss rate is one column of the kernel.
        cfg = SimulationConfig(random_loss_rate=0.01)
        assert eligible(link, [AIMD(1, 0.5)] * 2, cfg)

    def test_separate_instances_with_equal_params(self, link):
        assert eligible(link, [AIMD(1, 0.5), AIMD(1.0, 0.5)])

    def test_heterogeneous_parameters(self, link):
        # The kernel reads per-cell parameters.
        assert eligible(link, [AIMD(1, 0.5), AIMD(2, 0.5)])

    def test_mixed_classes_satisfy_the_predicate(self, link):
        # The kernel dispatches per cell.
        assert eligible(link, [AIMD(1, 0.5), MIMD(1.01, 0.875)])


class TestIneligible:
    def test_protocol_without_vectorized_support(self, link):
        # CUBIC keeps history beyond any batch parameters.
        assert not eligible(link, [CUBIC(0.4, 0.8)] * 2)

    def test_unsynchronized_loss(self, link):
        cfg = SimulationConfig(unsynchronized_loss=True)
        assert not eligible(link, [AIMD(1, 0.5)] * 2, cfg)

    def test_integer_windows(self, link):
        cfg = SimulationConfig(integer_windows=True)
        assert not eligible(link, [AIMD(1, 0.5)] * 2, cfg)

    def test_staggered_starts(self, link):
        cfg = SimulationConfig(schedule=_schedule("start", link))
        assert not eligible(link, [AIMD(1, 0.5)] * 2, cfg)

    def test_link_changes(self, link):
        cfg = SimulationConfig(schedule=_schedule("change", link))
        assert not eligible(link, [AIMD(1, 0.5)] * 2, cfg)

    def test_ecn_marking(self):
        assert not eligible(_ecn_link(), [AIMD(1, 0.5)] * 2)


_LINK = Link.from_mbps(20, 42, 100)
_CASES = {
    "homogeneous": ([AIMD(1, 0.5)] * 2, SimulationConfig(), _LINK),
    "mixed-classes": ([AIMD(1, 0.5), MIMD(1.01, 0.875)], SimulationConfig(), _LINK),
    "deterministic-loss": (
        [AIMD(1, 0.5)] * 2, SimulationConfig(random_loss_rate=0.01), _LINK
    ),
    "stateful": ([CUBIC(0.4, 0.8)] * 2, SimulationConfig(), _LINK),
    "unsynchronized": (
        [AIMD(1, 0.5)] * 2, SimulationConfig(unsynchronized_loss=True), _LINK
    ),
    "integer": ([AIMD(1, 0.5)] * 2, SimulationConfig(integer_windows=True), _LINK),
    "start": (
        [AIMD(1, 0.5)] * 2, SimulationConfig(schedule=_schedule("start", _LINK)), _LINK
    ),
    "link-change": (
        [AIMD(1, 0.5)] * 2,
        SimulationConfig(schedule=_schedule("change", _LINK)),
        _LINK,
    ),
    "ecn": ([AIMD(1, 0.5)] * 2, SimulationConfig(), _ecn_link()),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_kernel_lowering_asks_the_same_predicate(case):
    protocols, config, link = _CASES[case]
    spec = ScenarioSpec.from_fluid(link, protocols, 50, config)
    lowered = _lower_fluid(spec)
    assert (lowered is not None) == eligible(link, protocols, config)


class TestDispatch:
    def test_ineligible_run_still_works(self, link):
        cfg = SimulationConfig(unsynchronized_loss=True, seed=7)
        trace = FluidSimulator(link, [AIMD(1, 0.5)] * 2, cfg).run(200)
        assert trace.windows.shape == (200, 2)

    def test_eligible_run_matches_structure(self, link):
        trace = FluidSimulator(link, [AIMD(1, 0.5)] * 8).run(200)
        assert trace.windows.shape == (200, 8)
        assert np.all(np.isfinite(trace.windows))
        assert np.all(trace.capacities == link.capacity)
