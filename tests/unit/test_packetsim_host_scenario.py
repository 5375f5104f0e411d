"""ACK-clocked flows and scenarios (repro.packetsim.host / .scenario)."""

import gc
import math

import pytest

from repro.model.link import Link
from repro.packetsim.batch import run_scenarios_batched, run_workloads_batched
from repro.packetsim.host import Flow, FlowStats
from repro.packetsim.engine import EventScheduler
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.packetsim.workload import poisson_workload, run_workload
from repro.protocols import presets
from repro.protocols.aimd import AIMD
from repro.protocols.slow_start import SlowStartWrapper


class TestFlowStats:
    def test_delivered_between(self):
        stats = FlowStats(ack_times=[0.1, 0.5, 0.9, 1.5])
        assert stats.delivered_between(0.0, 1.0) == 3
        assert stats.delivered_between(1.0, 2.0) == 1

    def test_throughput(self):
        stats = FlowStats(ack_times=[0.1, 0.2, 0.3, 0.4])
        assert stats.throughput_mss_per_s(0.0, 0.5) == pytest.approx(8.0)

    def test_loss_rate(self):
        stats = FlowStats(packets_sent=10, packets_lost=2)
        assert stats.loss_rate == pytest.approx(0.2)

    def test_loss_rate_between_windows(self):
        stats = FlowStats(
            ack_times=[0.1, 0.6], loss_times=[0.7],
        )
        assert stats.loss_rate_between(0.5, 1.0) == pytest.approx(0.5)
        assert stats.loss_rate_between(0.0, 0.5) == 0.0

    def test_mean_rtt_between(self):
        stats = FlowStats(ack_times=[0.1, 0.6], rtt_samples=[0.04, 0.08])
        assert stats.mean_rtt_between(0.0, 1.0) == pytest.approx(0.06)
        assert math.isnan(stats.mean_rtt_between(2.0, 3.0))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            FlowStats().delivered_between(1.0, 0.5)
        with pytest.raises(ValueError):
            FlowStats().throughput_mss_per_s(1.0, 1.0)


class TestFlowValidation:
    def test_initial_window_below_floor_rejected(self):
        with pytest.raises(ValueError):
            Flow(0, AIMD(1, 0.5), EventScheduler(), lambda p: None,
                 initial_window=0.5, min_window=1.0)

    def test_negative_start_time_rejected(self):
        with pytest.raises(ValueError):
            Flow(0, AIMD(1, 0.5), EventScheduler(), lambda p: None,
                 start_time=-1.0)


class TestScenario:
    def test_single_reno_fills_link(self):
        scenario = PacketScenario.from_mbps(
            10, 42, 50, [presets.reno()], duration=12.0
        )
        result = run_scenario(scenario)
        assert result.utilization() > 0.7

    def test_two_reno_flows_share_fairly(self):
        scenario = PacketScenario.from_mbps(
            10, 42, 50, [presets.reno(), presets.reno()], duration=15.0
        )
        result = run_scenario(scenario)
        rates = result.throughputs()
        assert min(rates) / max(rates) > 0.5

    def test_rtt_inflation_bounded_by_buffer(self):
        scenario = PacketScenario.from_mbps(
            10, 42, 50, [presets.reno()], duration=12.0
        )
        result = run_scenario(scenario)
        rtt = result.mean_rtts()[0]
        base = scenario.link.base_rtt
        max_rtt = base + 51 / scenario.link.bandwidth  # buffer + in-service
        assert base <= rtt <= max_rtt + base

    def test_deterministic(self):
        def run_once():
            scenario = PacketScenario.from_mbps(
                10, 42, 20, [presets.reno(), presets.cubic()], duration=8.0,
                seed=3,
            )
            return run_scenario(scenario).throughputs()

        assert run_once() == run_once()

    def test_random_loss_reduces_reno_throughput(self):
        clean = run_scenario(
            PacketScenario.from_mbps(10, 42, 50, [presets.reno()], duration=10.0)
        )
        lossy = run_scenario(
            PacketScenario.from_mbps(
                10, 42, 50, [presets.reno()], duration=10.0,
                random_loss_rate=0.02,
            )
        )
        assert lossy.throughputs()[0] < 0.5 * clean.throughputs()[0]

    def test_staggered_start(self):
        scenario = PacketScenario.from_mbps(
            10, 42, 50, [presets.reno(), presets.reno()], duration=10.0,
            start_times=[0.0, 5.0],
        )
        result = run_scenario(scenario)
        # The late flow delivered strictly less.
        assert result.flows[1].packets_acked < result.flows[0].packets_acked
        first_late_ack = min(result.flows[1].ack_times)
        assert first_late_ack >= 5.0

    def test_slow_start_accelerates_ramp(self):
        plain = run_scenario(
            PacketScenario.from_mbps(20, 42, 100, [presets.scalable_mimd()],
                                     duration=6.0)
        )
        ramped = run_scenario(
            PacketScenario.from_mbps(
                20, 42, 100, [SlowStartWrapper(presets.scalable_mimd())],
                duration=6.0,
            )
        )
        assert ramped.throughputs()[0] > 2 * plain.throughputs()[0]

    def test_share_ratio(self):
        scenario = PacketScenario.from_mbps(
            10, 42, 50, [presets.reno(), presets.reno()], duration=10.0
        )
        result = run_scenario(scenario)
        ratio = result.share_ratio(0, 1)
        assert ratio == pytest.approx(
            result.throughputs()[0] / result.throughputs()[1]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketScenario.from_mbps(10, 42, 50, [], duration=5.0)
        with pytest.raises(ValueError):
            PacketScenario.from_mbps(10, 42, 50, [presets.reno()], duration=0.0)
        with pytest.raises(ValueError):
            PacketScenario.from_mbps(
                10, 42, 50, [presets.reno()], random_loss_rate=1.0
            )
        with pytest.raises(ValueError):
            PacketScenario.from_mbps(
                10, 42, 50, [presets.reno()], start_times=[0.0, 1.0]
            )
        with pytest.raises(ValueError):
            PacketScenario(link=Link.infinite(), protocols=[presets.reno()])

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be non-negative"):
            PacketScenario.from_mbps(10, 42, 50, [presets.reno()], seed=-1)

    def test_queue_sampling_is_not_a_field(self):
        with pytest.raises(TypeError, match="sample_queue"):
            PacketScenario.from_mbps(10, 42, 50, [presets.reno()], sample_queue=True)

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_rejects_non_finite_duration(self, duration):
        # The event loop would run forever.
        with pytest.raises(ValueError, match="^duration must be finite and positive"):
            PacketScenario.from_mbps(10, 42, 50, [presets.reno()], duration=duration)

    def test_measurement_window(self):
        scenario = PacketScenario.from_mbps(10, 42, 50, [presets.reno()],
                                            duration=10.0)
        result = run_scenario(scenario)
        assert result.measurement_window(0.25) == (7.5, 10.0)
        with pytest.raises(ValueError):
            result.measurement_window(0.0)

    def test_conservation(self):
        # Every sent packet is eventually acked, lost, or still in flight.
        scenario = PacketScenario.from_mbps(10, 42, 20, [presets.reno()],
                                            duration=10.0)
        result = run_scenario(scenario)
        flow = result.flows[0]
        in_flight = flow.packets_sent - flow.packets_acked - flow.packets_lost
        assert 0 <= in_flight <= 200


class TestFinishedRunsAreFreed:
    """A finished run leaves nothing for the cycle collector.

    Flows, queues and pending events reference each other; every runner
    breaks those cycles once its result is built, so a run — background
    flows whose statistics are not returned included — is freed by
    reference counting. Checked by collecting with ``DEBUG_SAVEALL``: no
    packet-simulator object may turn up as cyclic garbage.
    """

    @staticmethod
    def _cyclic_garbage(run) -> list[str]:
        gc.collect()
        gc.disable()
        try:
            results = run()
            assert results
            del results
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            return sorted({
                type(obj).__qualname__ for obj in gc.garbage
                if type(obj).__module__.startswith("repro.packetsim")
            })
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    def _scenarios(self):
        return [
            PacketScenario.from_mbps(20, 42, 10, [presets.reno(), presets.cubic()],
                                     duration=2.0, seed=seed, random_loss_rate=0.01)
            for seed in (1, 2)
        ]

    def _workload(self):
        return poisson_workload(2.0, 20, 1.5, presets.reno(), seed=3)

    def test_serial_scenario(self):
        assert not self._cyclic_garbage(
            lambda: [run_scenario(s) for s in self._scenarios()]
        )

    def test_batched_scenarios(self):
        assert not self._cyclic_garbage(
            lambda: run_scenarios_batched(self._scenarios())
        )

    def test_serial_workload(self):
        link = Link.from_mbps(20, 42, 10)
        assert not self._cyclic_garbage(lambda: [run_workload(
            link, self._workload(), duration=3.0, background=[presets.reno()],
        )])

    def test_batched_workloads(self):
        link = Link.from_mbps(20, 42, 10)
        jobs = [(self._workload(), [presets.reno()]), (self._workload(), None)]
        assert not self._cyclic_garbage(lambda: run_workloads_batched(
            link, jobs, duration=3.0,
        ))
