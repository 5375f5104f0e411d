"""Loop selection in FluidSimulator (repro.model.dynamics).

One predicate, ``synchronized_stateless``, says whether a fluid run's
windows can step as array rows; the batch kernel's lowering and the
serial engine's row path both ask it. ``run`` takes the row path only
when the predicate holds, the run drives one protocol class, and it has
more than ``_GENERAL_LOOP_MAX_FLOWS`` flows. Bit-identity of the two
loops is property-tested in ``tests/property/test_prop_vectorized.py``;
these tests pin down the predicate and the choice.
"""

import numpy as np
import pytest

from repro.backends import ScenarioSpec
from repro.backends.batch import _lower_fluid
from repro.model.dynamics import (
    _GENERAL_LOOP_MAX_FLOWS,
    FluidSimulator,
    SimulationConfig,
    synchronized_stateless,
)
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.model.random_loss import BernoulliLoss, GilbertElliottLoss
from repro.protocols.aimd import AIMD
from repro.protocols.cubic import CUBIC
from repro.protocols.mimd import MIMD


@pytest.fixture
def link():
    return Link.from_mbps(20, 42, 100)


def eligible(link, protocols, config=None):
    return synchronized_stateless(link, protocols, config or SimulationConfig())


def loop_taken(monkeypatch, sim, steps=20):
    """Which loop ``sim.run`` steps: ``"row"`` or ``"general"``."""
    taken = []

    def spy(name, label):
        method = getattr(sim, name)

        def recorded(steps):
            taken.append(label)
            return method(steps)

        monkeypatch.setattr(sim, name, recorded)

    spy("_run_vectorized", "row")
    spy("_run_general", "general")
    sim.run(steps)
    assert len(taken) == 1
    return taken[0]


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
        cfg = SimulationConfig(loss_process=BernoulliLoss(0.01))
        assert eligible(link, [AIMD(1, 0.5)] * 2, cfg)

    def test_separate_instances_with_equal_params(self, link):
        assert eligible(link, [AIMD(1, 0.5), AIMD(1.0, 0.5)])

    def test_heterogeneous_parameters(self, link):
        # The row path reads per-flow parameters, as the kernel does.
        assert eligible(link, [AIMD(1, 0.5), AIMD(2, 0.5)])

    def test_mixed_classes_satisfy_the_predicate(self, link):
        # The kernel dispatches per cell; only the row path needs one class.
        assert eligible(link, [AIMD(1, 0.5), MIMD(1.01, 0.875)])


class TestIneligible:
    def test_heterogeneous_types(self, link, monkeypatch):
        protocols = [AIMD(1, 0.5), MIMD(1.01, 0.875)] * _GENERAL_LOOP_MAX_FLOWS
        assert loop_taken(monkeypatch, FluidSimulator(link, protocols)) == "general"

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

    def test_random_bernoulli_loss(self, link):
        cfg = SimulationConfig(
            loss_process=BernoulliLoss(0.01, deterministic=False)
        )
        assert not eligible(link, [AIMD(1, 0.5)] * 2, cfg)

    def test_gilbert_elliott_loss(self, link):
        cfg = SimulationConfig(loss_process=GilbertElliottLoss())
        assert not eligible(link, [AIMD(1, 0.5)] * 2, cfg)


_LINK = Link.from_mbps(20, 42, 100)
_CASES = {
    "homogeneous": ([AIMD(1, 0.5)] * 2, SimulationConfig(), _LINK),
    "mixed-classes": ([AIMD(1, 0.5), MIMD(1.01, 0.875)], SimulationConfig(), _LINK),
    "deterministic-loss": (
        [AIMD(1, 0.5)] * 2, SimulationConfig(loss_process=BernoulliLoss(0.01)), _LINK
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
    "random-loss": (
        [AIMD(1, 0.5)] * 2,
        SimulationConfig(loss_process=BernoulliLoss(0.01, deterministic=False)),
        _LINK,
    ),
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

    @pytest.mark.parametrize("n", range(1, _GENERAL_LOOP_MAX_FLOWS + 1))
    def test_general_loop_at_or_below_the_cutoff(self, link, monkeypatch, n):
        sim = FluidSimulator(link, [AIMD(1, 0.5)] * n)
        assert loop_taken(monkeypatch, sim) == "general"

    @pytest.mark.parametrize("n", [_GENERAL_LOOP_MAX_FLOWS + 1, 16])
    def test_row_path_above_the_cutoff(self, link, monkeypatch, n):
        protocols = [AIMD(1.0 + i, 0.5) for i in range(n)]
        sim = FluidSimulator(link, protocols)
        assert loop_taken(monkeypatch, sim) == "row"

    def test_ineligible_run_above_the_cutoff_takes_the_general_loop(
        self, link, monkeypatch
    ):
        cfg = SimulationConfig(integer_windows=True)
        sim = FluidSimulator(link, [AIMD(1, 0.5)] * 16, cfg)
        assert loop_taken(monkeypatch, sim) == "general"

    def test_row_path_shape_check(self, link):
        class WrongShape(AIMD):
            @staticmethod
            def batched_next(windows, loss_rate, rtt, params):
                return windows[:-1]

        sim = FluidSimulator(link, [WrongShape(1, 0.5)] * 8)
        with pytest.raises(ValueError, match="returned shape"):
            sim.run(10)

    def test_row_path_finiteness_check(self, link):
        class Diverging(AIMD):
            @staticmethod
            def batched_next(windows, loss_rate, rtt, params):
                return windows * np.inf

        sim = FluidSimulator(link, [Diverging(1, 0.5)] * 8)
        with pytest.raises(ValueError, match="non-finite window"):
            sim.run(10)
