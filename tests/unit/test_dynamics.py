"""The fluid simulation engine (repro.model.dynamics)."""

import numpy as np
import pytest

from repro.model.dynamics import FluidSimulator, SimulationConfig, run_homogeneous
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.model.sender import Observation
from repro.protocols.aimd import AIMD
from repro.protocols.base import Protocol
from repro.protocols.vegas import VegasLike


class TestBasics:
    def test_single_aimd_sawtooth(self, emulab_link):
        trace = run_homogeneous(emulab_link, AIMD(1, 0.5), 1, 500)
        w = trace.sender_series(0)
        # Additive climb from the initial window.
        assert w[1] == pytest.approx(w[0] + 1)
        # The window eventually oscillates near the pipe limit.
        assert w[-100:].max() > 0.9 * emulab_link.pipe_limit

    def test_trace_shape(self, emulab_link):
        sim = FluidSimulator(emulab_link, [AIMD(1, 0.5)] * 3)
        trace = sim.run(100)
        assert trace.steps == 100
        assert trace.n_senders == 3

    def test_determinism(self, emulab_link):
        t1 = run_homogeneous(emulab_link, AIMD(1, 0.5), 2, 400)
        t2 = run_homogeneous(emulab_link, AIMD(1, 0.5), 2, 400)
        np.testing.assert_array_equal(t1.windows, t2.windows)

    def test_rerun_resets_state(self, emulab_link):
        # Running the same simulator twice gives identical traces (protocol
        # state and loss processes are reset).
        sim = FluidSimulator(emulab_link, [AIMD(1, 0.5)] * 2)
        t1 = sim.run(300)
        t2 = sim.run(300)
        np.testing.assert_array_equal(t1.windows, t2.windows)

    def test_same_protocol_object_for_all_senders_is_safe(self, emulab_link):
        # Protocols are deep-copied: shared state cannot leak across senders.
        from repro.protocols.cubic import CUBIC

        protocol = CUBIC(0.4, 0.8)
        sim = FluidSimulator(emulab_link, [protocol, protocol])
        trace = sim.run(300)
        assert trace.n_senders == 2

    def test_zero_steps_rejected(self, emulab_link):
        sim = FluidSimulator(emulab_link, [AIMD(1, 0.5)])
        with pytest.raises(ValueError):
            sim.run(0)

    def test_no_senders_rejected(self, emulab_link):
        with pytest.raises(ValueError):
            FluidSimulator(emulab_link, [])


class TestConfig:
    def test_initial_windows_respected(self, emulab_link):
        config = SimulationConfig(initial_windows=[50.0, 1.0])
        sim = FluidSimulator(emulab_link, [AIMD(1, 0.5)] * 2, config)
        trace = sim.run(10)
        assert trace.windows[0, 0] == pytest.approx(50.0)
        assert trace.windows[0, 1] == pytest.approx(1.0)

    def test_initial_window_count_must_match(self, emulab_link):
        config = SimulationConfig(initial_windows=[1.0])
        with pytest.raises(ValueError, match="initial windows"):
            FluidSimulator(emulab_link, [AIMD(1, 0.5)] * 2, config)

    def test_negative_initial_window_rejected(self, emulab_link):
        config = SimulationConfig(initial_windows=[-1.0])
        with pytest.raises(ValueError):
            FluidSimulator(emulab_link, [AIMD(1, 0.5)], config)

    def test_min_window_floor(self, emulab_link):
        # Repeated halving cannot push the window below the floor.
        config = SimulationConfig(
            initial_windows=[200.0], min_window=1.0, random_loss_rate=0.5
        )
        sim = FluidSimulator(emulab_link, [AIMD(1, 0.5)], config)
        trace = sim.run(100)
        assert np.nanmin(trace.windows) >= 1.0

    def test_max_window_cap(self):
        link = Link.infinite()
        config = SimulationConfig(initial_windows=[1.0], max_window=10.0)
        sim = FluidSimulator(link, [AIMD(1, 0.5)], config)
        trace = sim.run(100)
        assert np.nanmax(trace.windows) <= 10.0

    def test_integer_windows(self, emulab_link):
        config = SimulationConfig(initial_windows=[1.0], integer_windows=True)
        sim = FluidSimulator(emulab_link, [AIMD(1, 0.5)], config)
        trace = sim.run(200)
        w = trace.sender_series(0)
        np.testing.assert_array_equal(w, np.round(w))

    def test_invalid_window_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(min_window=10.0, max_window=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(min_window=-1.0)

    @pytest.mark.parametrize("rate", [-0.1, 1.1, float("nan")])
    def test_random_loss_rate_must_be_a_rate(self, rate):
        with pytest.raises(ValueError, match="random_loss_rate must be in"):
            SimulationConfig(random_loss_rate=rate)

    def test_random_loss_rate_range_ends_are_accepted(self):
        assert SimulationConfig(random_loss_rate=0.0).random_loss_rate == 0.0
        assert SimulationConfig(random_loss_rate=1.0).random_loss_rate == 1.0


class TestLossBasedEnforcement:
    class RttSniffer(Protocol):
        """Claims to be loss-based but records the RTT it is shown."""

        loss_based = True

        def __init__(self):
            self.seen_rtts = []

        def next_window(self, obs: Observation) -> float:
            self.seen_rtts.append(obs.rtt)
            return obs.window

        def reset(self):
            self.seen_rtts = []

    def test_loss_based_protocols_see_placeholder_rtt(self, emulab_link):
        sniffer = self.RttSniffer()
        sim = FluidSimulator(emulab_link, [sniffer])
        sim.run(20)
        # The simulator's own deep copy is the one that ran.
        ran = sim.protocols[0]
        assert len(set(ran.seen_rtts)) == 1  # constant placeholder

    def test_enforcement_can_be_disabled(self, emulab_link):
        config = SimulationConfig(
            initial_windows=[150.0], enforce_loss_based=False
        )
        sniffer = self.RttSniffer()
        sim = FluidSimulator(emulab_link, [sniffer], config)
        sim.run(20)
        ran = sim.protocols[0]
        assert ran.seen_rtts[0] == pytest.approx(
            emulab_link.rtt(150.0)
        )

    def test_vegas_sees_real_rtt(self, emulab_link):
        # Non-loss-based protocols always get the true RTT.
        sim = FluidSimulator(
            emulab_link, [VegasLike(), AIMD(1, 0.5)],
            SimulationConfig(initial_windows=[1.0, 120.0]),
        )
        trace = sim.run(300)
        # Vegas must have backed off due to queueing (Reno fills the buffer),
        # so its tail share is small.
        means = trace.tail(0.3).mean_windows()
        assert means[0] < 0.3 * means[1]


class TestSchedule:
    def test_late_sender_is_nan_before_start(self, emulab_link):
        schedule = EventSchedule().add_sender_start(1, step=50, window=1.0)
        config = SimulationConfig(schedule=schedule)
        sim = FluidSimulator(emulab_link, [AIMD(1, 0.5)] * 2, config)
        trace = sim.run(100)
        assert np.all(np.isnan(trace.windows[:50, 1]))
        assert trace.windows[50, 1] == pytest.approx(1.0)

    def test_schedule_referencing_missing_sender_rejected(self, emulab_link):
        schedule = EventSchedule().add_sender_start(5, step=0)
        with pytest.raises(ValueError, match="sender 5"):
            FluidSimulator(
                emulab_link, [AIMD(1, 0.5)], SimulationConfig(schedule=schedule)
            )

    def test_link_change_mid_run(self, emulab_link):
        # Halve the bandwidth at step 100: capacity series must reflect it.
        smaller = emulab_link.with_bandwidth(emulab_link.bandwidth / 2)
        schedule = EventSchedule().add_link_change(100, smaller)
        config = SimulationConfig(schedule=schedule)
        sim = FluidSimulator(emulab_link, [AIMD(1, 0.5)], config)
        trace = sim.run(200)
        assert trace.capacities[99] == pytest.approx(emulab_link.capacity)
        assert trace.capacities[100] == pytest.approx(smaller.capacity)


class TestRandomLoss:
    def test_constant_loss_starves_reno(self):
        # The PCC motivating scenario: Reno cannot grow under 1% random loss.
        link = Link.infinite()
        config = SimulationConfig(initial_windows=[1.0], random_loss_rate=0.01)
        sim = FluidSimulator(link, [AIMD(1, 0.5)], config)
        trace = sim.run(500)
        assert trace.sender_series(0)[-1] < 10.0

    def test_observed_loss_combines_sources(self, emulab_link):
        config = SimulationConfig(initial_windows=[200.0], random_loss_rate=0.1)
        sim = FluidSimulator(emulab_link, [AIMD(1, 0.5)], config)
        trace = sim.run(1)
        congestion = trace.congestion_loss[0]
        observed = trace.observed_loss[0, 0]
        assert observed == pytest.approx(1 - (1 - congestion) * (1 - 0.1))


class TestRunHomogeneous:
    def test_rejects_nonpositive_senders(self, emulab_link):
        with pytest.raises(ValueError):
            run_homogeneous(emulab_link, AIMD(1, 0.5), 0, 10)

    def test_n_senders_columns(self, emulab_link):
        trace = run_homogeneous(emulab_link, AIMD(1, 0.5), 4, 50)
        assert trace.n_senders == 4
