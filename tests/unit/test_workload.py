"""Finite flows and FCT workloads (repro.packetsim.workload)."""

import math

import pytest

from repro.model.link import Link
from repro.packetsim.workload import (
    FlowSpec,
    WorkloadResult,
    poisson_workload,
    run_workload,
)
from repro.protocols import presets
from repro.protocols.aimd import AIMD


class TestFlowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSpec(start_time=-1.0, size=10, protocol=AIMD(1, 0.5))
        with pytest.raises(ValueError):
            FlowSpec(start_time=0.0, size=0, protocol=AIMD(1, 0.5))


class TestPoissonWorkload:
    def test_deterministic_given_seed(self):
        a = poisson_workload(2.0, 50, 10.0, AIMD(1, 0.5), seed=3)
        b = poisson_workload(2.0, 50, 10.0, AIMD(1, 0.5), seed=3)
        assert [(s.start_time, s.size) for s in a] == [
            (s.start_time, s.size) for s in b
        ]

    def test_arrivals_within_duration(self):
        specs = poisson_workload(5.0, 50, 10.0, AIMD(1, 0.5), seed=1)
        assert specs
        assert all(0 <= s.start_time < 10.0 for s in specs)

    def test_mean_size_approximate(self):
        specs = poisson_workload(50.0, 80, 20.0, AIMD(1, 0.5), seed=2)
        sizes = [s.size for s in specs]
        assert sum(sizes) / len(sizes) == pytest.approx(80, rel=0.3)

    def test_rate_controls_count(self):
        few = poisson_workload(1.0, 50, 20.0, AIMD(1, 0.5), seed=4)
        many = poisson_workload(10.0, 50, 20.0, AIMD(1, 0.5), seed=4)
        assert len(many) > 3 * len(few)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_workload(0.0, 50, 10.0, AIMD(1, 0.5))
        with pytest.raises(ValueError):
            poisson_workload(1.0, 1, 10.0, AIMD(1, 0.5))
        with pytest.raises(ValueError):
            poisson_workload(1.0, 50, 0.0, AIMD(1, 0.5))
        # An infinite or NaN rate or horizon would append flows forever.
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^rate_per_s must be finite"):
                poisson_workload(bad, 50, 10.0, AIMD(1, 0.5))
            with pytest.raises(ValueError, match="^duration must be finite"):
                poisson_workload(1.0, 50, bad, AIMD(1, 0.5))


class TestFiniteFlows:
    def test_single_flow_completes(self, emulab_link):
        specs = [FlowSpec(0.0, 100, presets.reno())]
        result = run_workload(emulab_link, specs, duration=30.0)
        assert result.completed == 1
        assert result.flows[0].packets_acked >= 100

    def test_fct_scales_with_size(self, emulab_link):
        small = run_workload(
            emulab_link, [FlowSpec(0.0, 20, presets.reno())], duration=30.0
        ).mean_fct()
        large = run_workload(
            emulab_link, [FlowSpec(0.0, 2000, presets.reno())], duration=30.0
        ).mean_fct()
        assert small < large

    def test_fct_at_least_transmission_time(self, emulab_link):
        size = 500
        result = run_workload(
            emulab_link, [FlowSpec(0.0, size, presets.reno())], duration=30.0
        )
        fct = result.mean_fct()
        assert fct >= size / emulab_link.bandwidth

    def test_losses_are_retransmitted(self):
        # A tiny buffer forces drops; the payload must still arrive whole.
        link = Link.from_mbps(10, 42, 5)
        specs = [FlowSpec(0.0, 400, presets.reno())]
        result = run_workload(link, specs, duration=60.0)
        assert result.completed == 1
        assert result.total_retransmissions() > 0
        assert result.flows[0].packets_acked >= 400

    def test_background_traffic_slows_completion(self, emulab_link):
        solo = run_workload(
            emulab_link, [FlowSpec(0.0, 300, presets.reno())], duration=60.0
        ).mean_fct()
        contended = run_workload(
            emulab_link,
            [FlowSpec(0.0, 300, presets.reno())],
            duration=60.0,
            background=[presets.reno()],
        ).mean_fct()
        assert contended > solo

    def test_incomplete_flows_counted(self, emulab_link):
        # A huge transfer cannot finish in a short run.
        result = run_workload(
            emulab_link, [FlowSpec(0.0, 10**7, presets.reno())], duration=2.0
        )
        assert result.incomplete == 1
        assert math.isnan(result.mean_fct())

    def test_validation(self, emulab_link):
        with pytest.raises(ValueError):
            run_workload(emulab_link, [], duration=10.0)
        with pytest.raises(ValueError):
            run_workload(
                emulab_link, [FlowSpec(20.0, 10, presets.reno())], duration=10.0
            )
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^duration must be finite"):
                run_workload(
                    emulab_link, [FlowSpec(0.0, 10, presets.reno())], duration=bad
                )


class TestWorkloadStatistics:
    @pytest.fixture(scope="class")
    def poisson_result(self, ):
        link = Link.from_mbps(20, 42, 100)
        specs = poisson_workload(2.0, 60, 15.0, presets.reno(), seed=7)
        return run_workload(link, specs, duration=60.0)

    def test_most_flows_complete(self, poisson_result):
        assert poisson_result.completed >= 0.9 * len(poisson_result.specs)

    def test_percentiles_ordered(self, poisson_result):
        p50 = poisson_result.percentile_fct(0.5)
        p99 = poisson_result.percentile_fct(0.99)
        assert p50 <= p99

    def test_small_flows_finish_faster(self, poisson_result):
        small, large = poisson_result.fct_by_size(boundary=60)
        if not (math.isnan(small) or math.isnan(large)):
            assert small < large

    def test_percentile_validation(self, poisson_result):
        with pytest.raises(ValueError):
            poisson_result.percentile_fct(1.5)
