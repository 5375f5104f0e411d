"""Unit coverage for the unified backend layer (repro.backends).

Spec validation, lowering errors, the backend table, the spec-level
parallel jobs, and the unified trace adapters. The bit-identity of
lowering and caching is property-tested in
``tests/property/test_prop_backends.py``; these tests pin the contract
edges (what raises, which backends exist, what the adapters expose).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    LoweringError,
    ScenarioSpec,
    UnifiedTrace,
    backend_names,
    run_on,
    run_spec,
    run_specs,
)
from repro.model.dynamics import FluidSimulator
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.model.random_loss import GilbertElliottLoss
from repro.netmodel.topology import dumbbell
from repro.protocols.aimd import AIMD
from repro.protocols.slow_start import SlowStartWrapper


@pytest.fixture
def link() -> Link:
    return Link.from_mbps(20, 42, 100)


@pytest.fixture
def spec(link) -> ScenarioSpec:
    return ScenarioSpec(protocols=[AIMD(1, 0.5)] * 2, link=link, steps=64)


class TestSpecValidation:
    def test_requires_protocols(self, link):
        with pytest.raises(ValueError, match="at least one sender"):
            ScenarioSpec(protocols=[], link=link)

    def test_rejects_nonpositive_steps(self, link):
        with pytest.raises(ValueError, match="steps"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, steps=0)

    def test_rejects_nonpositive_duration(self, link):
        with pytest.raises(ValueError, match="duration"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, duration=0.0)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan")])
    def test_rejects_non_finite_duration(self, link, duration):
        # A packet run of such a horizon never ends.
        with pytest.raises(ValueError, match="^duration must be finite and positive"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, duration=duration)

    def test_rejects_loss_rate_of_one(self, link):
        with pytest.raises(ValueError, match="random_loss_rate"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                         random_loss_rate=1.0)

    def test_rejects_negative_seed(self, link):
        # numpy's generators reject it only once a run draws, unnamed.
        with pytest.raises(ValueError, match="^seed must be non-negative"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("steps", 10.5), ("steps", True), ("steps", "64"),
        ("seed", True), ("seed", 1.0),
        ("flow_multiplicity", True), ("flow_multiplicity", 2.0),
    ])
    def test_counts_must_be_integers(self, link, name, value):
        # steps=10.5 failed only in the run, with an unnamed TypeError,
        # and a bool passed as a count of 0 or 1.
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, **{name: value})

    @pytest.mark.parametrize("name", [
        "slow_start", "integer_windows", "enforce_loss_based", "unsynchronized_loss",
    ])
    @pytest.mark.parametrize("value", ["no", 1, None, np.bool_(True)])
    def test_switches_must_be_bools(self, link, name, value):
        # slow_start="no" ran with slow start.
        with pytest.raises(TypeError, match=f"^{name} must be a bool, got "):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("duration", True), ("duration", "5"),
        ("random_loss_rate", True), ("random_loss_rate", "0.01"),
        ("min_window", True), ("min_window", "1"),
        ("max_window", True), ("max_window", "5"),
    ])
    def test_float_fields_must_be_numbers(self, link, name, value):
        # duration=True gave a horizon_seconds() of True, max_window="5"
        # was kept, and random_loss_rate="0.01" failed with an unnamed
        # '<=' TypeError.
        with pytest.raises(TypeError, match=f"^{name} must be a number, got "):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, **{name: value})

    def test_float_fields_are_stored_as_given(self, link):
        # No conversion, so the store key of an accepted value never moves.
        values = {"duration": np.float32(2.5), "random_loss_rate": 0,
                  "min_window": np.int64(2), "max_window": 50}
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, **values)
        for name, value in values.items():
            assert getattr(spec, name) is value, name

    def test_numpy_integer_counts_are_stored_as_ints(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, steps=np.int64(64),
                            seed=np.int32(3), flow_multiplicity=np.uint8(2))
        counts = (spec.steps, spec.seed, spec.flow_multiplicity)
        assert counts == (64, 3, 2)
        assert [type(count) for count in counts] == [int, int, int]

    def test_queue_sampling_is_not_a_field(self, link):
        with pytest.raises(TypeError, match="sample_queue"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, sample_queue=True)

    def test_rejects_mismatched_initial_windows(self, link):
        with pytest.raises(ValueError, match="initial windows"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)] * 2, link=link,
                         initial_windows=[1.0])

    def test_rejects_mismatched_start_times(self, link):
        with pytest.raises(ValueError, match="start times"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)] * 2, link=link,
                         start_times=[0.0])

    def test_rejects_negative_start_times(self, link):
        with pytest.raises(ValueError, match="finite"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                         start_times=[-1.0])

    def test_start_times_and_schedule_are_exclusive(self, link):
        with pytest.raises(ValueError, match="not both"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                         start_times=[1.0], schedule=EventSchedule())

    def test_loss_rate_and_loss_process_are_exclusive(self, link):
        with pytest.raises(ValueError, match="not both"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                         random_loss_rate=0.01,
                         loss_process=GilbertElliottLoss(0.1, 0.5, 0.1))

    def test_horizon_defaults_to_steps_worth_of_rtts(self, spec, link):
        assert spec.horizon_seconds() == pytest.approx(64 * link.base_rtt)
        timed = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, duration=7.5)
        assert timed.horizon_seconds() == 7.5

    def test_slow_start_wraps_every_sender(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)] * 2, link=link,
                            slow_start=True)
        wrapped = spec.resolved_protocols()
        assert all(isinstance(p, SlowStartWrapper) for p in wrapped)
        assert len(wrapped) == 2


class TestLoweringErrors:
    def test_fluid_rejects_topology(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)] * 3, link=link,
                            topology=dumbbell(link, link, 3))
        with pytest.raises(LoweringError, match="single-link"):
            spec.lower_fluid()

    def test_network_rejects_start_times(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                            start_times=[1.0])
        with pytest.raises(LoweringError, match="staggered starts"):
            spec.lower_network()

    def test_network_rejects_integer_windows(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                            integer_windows=True)
        with pytest.raises(LoweringError, match="integer-window"):
            spec.lower_network()

    def test_packet_rejects_loss_process(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                            loss_process=GilbertElliottLoss(0.1, 0.5, 0.1))
        with pytest.raises(LoweringError, match="random_loss_rate"):
            spec.lower_packet()

    def test_packet_rejects_schedule(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5)], link=link,
            schedule=EventSchedule().add_sender_start(0, 10, window=1.0),
        )
        with pytest.raises(LoweringError, match="start_times"):
            spec.lower_packet()

    def test_packet_rejects_window_clamps(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                            max_window=500.0)
        with pytest.raises(LoweringError, match="clamps"):
            spec.lower_packet()

    def test_packet_rejects_nonuniform_initial_windows(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)] * 2, link=link,
                            initial_windows=[1.0, 4.0])
        with pytest.raises(LoweringError, match="uniform"):
            spec.lower_packet()

    def test_network_lowering_defaults_to_single_link_topology(self, spec):
        topology, protocols, kwargs, steps = spec.lower_network()
        assert topology.n_flows == 2
        assert len(protocols) == 2
        assert steps == 64
        assert kwargs["loss_process"] is None


class TestBackendTable:
    def test_the_four_backends_each_run(self, spec):
        assert backend_names() == ["fluid", "meanfield", "network", "packet"]
        for name in backend_names():
            assert run_on(name, spec).backend == name

    def test_unknown_backend_fails_alike_with_and_without_batch(self, spec):
        # No lane knows the name, so each job fails where its serial run
        # looks the name up, with one error naming the four backends.
        message = ("unknown backend 'quantum' "
                   "(known: fluid, meanfield, network, packet)")
        with pytest.raises(ValueError) as info:
            run_on("quantum", spec)
        assert str(info.value) == message
        for batch in (False, True):
            with pytest.raises(ValueError) as info:
                run_specs([spec], backend="quantum", batch=batch,
                          use_cache=False)
            assert str(info.value) == message
            holes = run_specs([spec, spec], backend="quantum", batch=batch,
                              use_cache=False, skip_errors=True)
            assert holes == [None, None]


class TestUnifiedTraces:
    def test_fluid_trace_carries_annotations(self, spec):
        trace = run_spec(spec, "fluid", use_cache=False)
        assert isinstance(trace, UnifiedTrace)
        assert trace.backend == "fluid"
        assert trace.flow_rtts.shape == trace.windows.shape
        tail = trace.tail(0.25)
        assert isinstance(tail, UnifiedTrace)
        assert tail.backend == "fluid"
        assert tail.flow_rtts.shape == tail.windows.shape

    def test_packet_trace_resamples_to_rtt_grid(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)] * 2, link=link,
                            duration=5.0, seed=1)
        trace = run_spec(spec, "packet", use_cache=False)
        expected_steps = max(1, int(round(5.0 / link.base_rtt)))
        assert trace.steps == expected_steps
        assert trace.times.shape == (expected_steps,)
        assert np.all(np.diff(trace.times) > 0)
        assert np.all(trace.windows >= 0)
        assert np.all(trace.flow_rtts >= link.base_rtt)

    def test_metrics_accept_any_backend_trace(self, spec, link):
        from repro.core.metrics import (
            convergence_from_trace,
            divergence_from_trace,
            efficiency_from_trace,
            fairness_from_trace,
            fast_utilization_from_trace,
            friendliness_from_trace,
            latency_from_trace,
            loss_avoidance_from_trace,
        )

        packet_spec = ScenarioSpec(protocols=[AIMD(1, 0.5)] * 2, link=link,
                                   duration=6.0, seed=1)
        # Identical entries merge into one mean-field class; use two
        # distinct ones so per-sender estimators have two columns.
        meanfield_spec = ScenarioSpec(protocols=[AIMD(1, 0.5), AIMD(1, 0.8)],
                                      link=link, steps=64)
        per_backend = {"packet": packet_spec, "meanfield": meanfield_spec}
        for name in ("fluid", "meanfield", "network", "packet"):
            trace = run_spec(per_backend.get(name, spec), name,
                             use_cache=False)
            scores = {
                "efficiency": efficiency_from_trace(trace).score,
                "fast_utilization": fast_utilization_from_trace(trace).score,
                "loss_avoidance": loss_avoidance_from_trace(trace).score,
                "fairness": fairness_from_trace(trace).score,
                "convergence": convergence_from_trace(trace).score,
                "friendliness": friendliness_from_trace(
                    trace, p_senders=[0], q_senders=[1]
                ),
                "latency": latency_from_trace(trace).score,
            }
            assert all(np.isfinite(s) for s in scores.values()), (name, scores)
            assert isinstance(divergence_from_trace(trace), bool)


class TestRunSpecs:
    def test_matches_direct_engine_run(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link, steps=48)
        [trace] = run_specs([spec], backend="fluid")
        reference = FluidSimulator(link, [AIMD(1, 0.5)]).run(48)
        assert np.array_equal(trace.windows, reference.windows)
