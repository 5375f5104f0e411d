"""Unit coverage for the mean-field backend (repro.meanfield + lowering).

Grid construction, scenario/group validation, every ``lower_meanfield``
rejection branch, group dedup and ``flow_multiplicity`` expansion, the
trace projection (windows are population aggregates; ``total_window()``
recovers the closure aggregate), backend registration, the cache
round-trip, and the metric estimators on a mean-field trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    LoweringError,
    ScenarioSpec,
    UnifiedTrace,
    backend_names,
    get_backend,
    run_spec,
)
import repro.protocols
from repro.meanfield.dynamics import (
    MeanFieldGroup,
    MeanFieldScenario,
    MeanFieldSimulator,
    _GroupState,
)
from repro.meanfield.grid import DEFAULT_CELLS, WindowGrid, default_grid
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.model.random_loss import GilbertElliottLoss
from repro.model.sender import Observation
from repro.netmodel.topology import dumbbell
from repro.protocols.aimd import AIMD
from repro.protocols.cubic import CUBIC
from repro.protocols.base import Protocol
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD


@pytest.fixture
def link() -> Link:
    return Link.from_mbps(20, 42, 100)


@pytest.fixture
def spec(link) -> ScenarioSpec:
    return ScenarioSpec(protocols=[AIMD(1, 0.5)] * 4, link=link, steps=200)


class TestGrid:
    def test_points_span_the_range(self):
        grid = WindowGrid(lo=1.0, hi=9.0, cells=5)
        assert grid.dx == 2.0
        np.testing.assert_allclose(grid.points(), [1.0, 3.0, 5.0, 7.0, 9.0])

    def test_rejects_degenerate_ranges(self):
        with pytest.raises(ValueError):
            WindowGrid(lo=5.0, hi=5.0, cells=8)
        with pytest.raises(ValueError):
            WindowGrid(lo=0.0, hi=10.0, cells=1)
        with pytest.raises(ValueError):
            WindowGrid(lo=0.0, hi=np.inf, cells=8)

    def test_default_grid_scales_with_per_flow_share(self, link):
        few = default_grid(link, n_flows=2)
        many = default_grid(link, n_flows=200)
        assert few.cells == many.cells == DEFAULT_CELLS
        assert few.hi > many.hi  # per-flow share shrinks with population
        assert many.hi >= 33.0  # never collapses below a usable range

    def test_default_grid_covers_initial_windows(self, link):
        grid = default_grid(link, n_flows=1000, max_initial_window=400.0)
        assert grid.hi >= 800.0


class TestScenarioValidation:
    def test_group_rejects_stateful_protocols(self):
        with pytest.raises(ValueError, match="trigger"):
            MeanFieldGroup(protocol=CUBIC(), population=2)

    def test_group_rejects_empty_population(self):
        with pytest.raises(ValueError, match="population"):
            MeanFieldGroup(protocol=AIMD(1, 0.5), population=0)

    def test_scenario_requires_groups(self, link):
        with pytest.raises(ValueError, match="group"):
            MeanFieldScenario(link=link, groups=[])

    def test_scenario_rejects_bad_loss_rate(self, link):
        with pytest.raises(ValueError, match="random_loss_rate"):
            MeanFieldScenario(
                link=link,
                groups=[MeanFieldGroup(protocol=AIMD(1, 0.5), population=1)],
                random_loss_rate=1.0,
            )

    def test_n_flows_sums_populations(self, link):
        scenario = MeanFieldScenario(
            link=link,
            groups=[
                MeanFieldGroup(protocol=AIMD(1, 0.5), population=3),
                MeanFieldGroup(protocol=MIMD(1.02, 0.6), population=7),
            ],
        )
        assert scenario.n_flows == 10


class TestLowering:
    def test_lowers_to_merged_groups(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5), MIMD(1.02, 0.6), AIMD(1, 0.5)],
            link=link,
            steps=100,
        )
        scenario = spec.lower_meanfield()
        assert [g.population for g in scenario.groups] == [2, 1]
        assert scenario.synchronized is True
        assert scenario.steps == 100

    def test_distinct_parameters_do_not_merge(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5), AIMD(1, 0.8)], link=link, steps=10
        )
        assert len(spec.lower_meanfield().groups) == 2

    def test_distinct_initial_windows_do_not_merge(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5)] * 2,
            link=link,
            steps=10,
            initial_windows=[1.0, 30.0],
        )
        groups = spec.lower_meanfield().groups
        assert sorted(g.initial_window for g in groups) == [1.0, 30.0]

    def test_flow_multiplicity_scales_populations(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5)] * 2,
            link=link,
            steps=10,
            flow_multiplicity=50_000,
        )
        scenario = spec.lower_meanfield()
        assert spec.n_senders == 100_000
        assert [g.population for g in scenario.groups] == [100_000]

    def test_unsynchronized_loss_selects_the_unsync_closure(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5)], link=link, steps=10,
            unsynchronized_loss=True,
        )
        assert spec.lower_meanfield().synchronized is False

    def test_rejects_topology(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5)] * 3, link=link,
            topology=dumbbell(link, link, 3),
        )
        with pytest.raises(LoweringError, match="single-link"):
            spec.lower_meanfield()

    def test_rejects_schedule(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5)], link=link,
            schedule=EventSchedule().add_sender_start(0, 10, window=1.0),
        )
        with pytest.raises(LoweringError, match="scheduled events"):
            spec.lower_meanfield()

    def test_rejects_staggered_starts(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5)] * 2, link=link, start_times=[0.0, 5.0]
        )
        with pytest.raises(LoweringError, match="staggered"):
            spec.lower_meanfield()

    def test_accepts_all_zero_start_times(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5)] * 2, link=link, start_times=[0.0, 0.0]
        )
        assert spec.lower_meanfield().n_flows == 2

    def test_rejects_loss_process(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5)], link=link,
            loss_process=GilbertElliottLoss(0.1, 0.5, 0.1),
        )
        with pytest.raises(LoweringError, match="random_loss_rate"):
            spec.lower_meanfield()

    def test_rejects_slow_start(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                            slow_start=True)
        with pytest.raises(LoweringError, match="slow-start"):
            spec.lower_meanfield()

    def test_rejects_integer_windows(self, link):
        spec = ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                            integer_windows=True)
        with pytest.raises(LoweringError, match="density"):
            spec.lower_meanfield()

    def test_rejects_stateful_protocols(self, link):
        spec = ScenarioSpec(protocols=[CUBIC()], link=link)
        with pytest.raises(LoweringError, match="CUBIC"):
            spec.lower_meanfield()


class TestFlowMultiplicity:
    def test_expands_for_flow_level_backends(self, link):
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5), MIMD(1.02, 0.6)],
            link=link,
            steps=10,
            flow_multiplicity=3,
            initial_windows=[2.0, 5.0],
        )
        resolved = spec.resolved_protocols()
        assert len(resolved) == 6
        assert [type(p).__name__ for p in resolved] == (
            ["AIMD"] * 3 + ["MIMD"] * 3
        )
        assert spec.resolved_initial_windows() == [2.0] * 3 + [5.0] * 3
        _, protocols, _, _ = spec.lower_fluid()
        assert len(protocols) == 6

    def test_rejects_nonpositive_multiplicity(self, link):
        with pytest.raises(ValueError, match="flow_multiplicity"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                         flow_multiplicity=0)

    def test_multiplicity_is_exclusive_with_per_flow_features(self, link):
        with pytest.raises(ValueError, match="flow_multiplicity"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                         flow_multiplicity=2, start_times=[0.0])
        with pytest.raises(ValueError, match="flow_multiplicity"):
            ScenarioSpec(protocols=[AIMD(1, 0.5)], link=link,
                         flow_multiplicity=2, schedule=EventSchedule())


class TestSimulator:
    def test_trigger_separation_is_enforced(self, link):
        class NeverDecreases(AIMD):
            meanfield_trigger = ("gt", 2.0)  # loss is a rate; never hit

        with pytest.raises(ValueError, match="separate"):
            MeanFieldSimulator(
                MeanFieldScenario(
                    link=link,
                    groups=[MeanFieldGroup(NeverDecreases(1, 0.5), 2)],
                    steps=4,
                )
            )

    def test_robust_aimd_ignores_subthreshold_random_loss(self):
        # An uncongested link: the only loss signal is the random rate.
        big = Link.from_mbps(1000, 42, 5000)

        def tail_mean(protocol, rate):
            scenario = MeanFieldScenario(
                link=big,
                groups=[MeanFieldGroup(protocol=protocol, population=4)],
                steps=400,
                random_loss_rate=rate,
                max_window=40.0,
            )
            result = MeanFieldSimulator(scenario).run()
            return float(result.mean_windows[-100:, 0].mean())

        epsilon = 0.05
        lossy = tail_mean(RobustAIMD(1, 0.5, epsilon), 0.02)
        clean = tail_mean(RobustAIMD(1, 0.5, epsilon), 0.0)
        # Below-epsilon random loss is ignored entirely (the robustness
        # property the protocol exists for), so the dynamics are identical.
        assert lossy == pytest.approx(clean)
        plain_lossy = tail_mean(AIMD(1, 0.5), 0.02)
        assert plain_lossy < clean  # plain AIMD *does* back off

    def test_result_shapes_and_positive_rtts(self, link):
        scenario = MeanFieldScenario(
            link=link,
            groups=[
                MeanFieldGroup(protocol=AIMD(1, 0.5), population=3),
                MeanFieldGroup(protocol=MIMD(1.02, 0.6), population=2),
            ],
            steps=50,
        )
        result = MeanFieldSimulator(scenario).run()
        assert result.mean_windows.shape == (50, 2)
        assert result.observed_loss.shape == (50, 2)
        assert result.rtts.shape == (50,)
        assert (result.rtts >= link.base_rtt).all()
        assert result.populations.tolist() == [3, 2]
        assert len(result.masses) == 2


def _trigger_classes() -> list[type[Protocol]]:
    """Every protocol class of the package that declares a mean-field trigger."""
    found: dict[str, type[Protocol]] = {}
    stack = [Protocol]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if (
                sub.__module__.startswith(repro.protocols.__name__ + ".")
                and sub.meanfield_trigger is not None
            ):
                found[sub.__name__] = sub
    return [found[name] for name in sorted(found)]


# Each trigger class at its defaults, plus non-default thresholds and factors.
TRIGGER_PROTOCOLS = [cls() for cls in _trigger_classes()] + [
    AIMD(2.0, 0.7),
    MIMD(1.05, 0.5),
    RobustAIMD(1.0, 0.5, 0.2),
]


def _bits(value) -> int:
    return int(np.float64(value).view(np.uint64))


class TestTriggerBoundary:
    """The mean-field trigger agrees with ``next_window`` at its threshold.

    The mean-field lane decides the branch with ``meanfield_trigger`` and
    moves mass along images of ``batched_next``; the other engines call
    ``next_window``. The three must pick the same branch at loss 0, at
    loss 1, at the threshold and at its floating-point neighbours.
    """

    def test_every_trigger_class_is_covered(self):
        names = {type(p).__name__ for p in TRIGGER_PROTOCOLS}
        assert {"AIMD", "MIMD", "MimdPccBound", "RobustAIMD"} <= names

    @pytest.mark.parametrize("protocol", TRIGGER_PROTOCOLS, ids=repr)
    def test_decision_matches_next_window_at_the_threshold(self, protocol):
        cls = type(protocol)
        state = _GroupState(
            MeanFieldGroup(protocol, population=1, initial_window=8.0),
            WindowGrid(lo=0.0, hi=64.0, cells=65),
            min_window=1.0,
            max_window=1e9,
        )
        threshold = state.trigger_threshold
        points = sorted(
            p
            for p in {
                0.0,
                1.0,
                threshold,
                float(np.nextafter(threshold, -np.inf)),
                float(np.nextafter(threshold, np.inf)),
            }
            if 0.0 <= p <= 1.0
        )
        window, rtt = 8.0, 0.05
        params = {
            name: np.array([getattr(protocol, name)], dtype=np.float64)
            for name in cls.batch_param_names
        }

        def scalar(loss: float) -> float:
            return protocol.next_window(
                Observation(step=0, window=window, loss_rate=loss, rtt=rtt,
                            min_rtt=rtt)
            )

        growth, decrease = _bits(scalar(0.0)), _bits(scalar(1.0))
        assert growth != decrease
        for loss in points:
            got = _bits(scalar(loss))
            assert got in (growth, decrease), loss
            assert state.trigger_hit(loss) == (got == decrease), loss
            batched = cls.batched_next(
                np.array([window]), np.array([loss]), np.array([rtt]), params
            )
            assert batched.dtype == np.float64
            assert int(batched.view(np.uint64)[0]) == got, loss


class TestBackendIntegration:
    def test_meanfield_is_registered(self):
        assert "meanfield" in backend_names()
        assert get_backend("meanfield").name == "meanfield"

    def test_run_spec_returns_unified_trace(self, spec):
        trace = run_spec(spec, "meanfield", use_cache=False)
        assert isinstance(trace, UnifiedTrace)
        assert trace.backend == "meanfield"
        assert trace.steps == 200
        # One column per (merged) flow class, not per flow.
        assert trace.windows.shape == (200, 1)
        assert trace.flow_rtts.shape == trace.windows.shape

    def test_windows_are_population_aggregates(self, spec):
        trace = run_spec(spec, "meanfield", use_cache=False)
        scenario = spec.lower_meanfield()
        result = MeanFieldSimulator(scenario).run()
        np.testing.assert_allclose(
            trace.total_window(), result.mean_windows[:, 0] * 4
        )

    def test_agrees_with_synchronized_fluid_aggregate(self, spec):
        meanfield = run_spec(spec, "meanfield", use_cache=False)
        fluid = run_spec(spec, "fluid", use_cache=False)
        mf_tail = meanfield.total_window()[-50:].mean()
        fl_tail = fluid.total_window()[-50:].mean()
        assert mf_tail == pytest.approx(fl_tail, rel=0.02)

    def test_cache_round_trip_is_bit_identical(self, tmp_path, spec):
        from repro.perf.cache import TraceCache
        from repro.perf.store import (
            load_unified_trace,
            store_unified_trace,
            unified_key,
        )

        trace = run_spec(spec, "meanfield", use_cache=False)
        cache = TraceCache(tmp_path)
        key = unified_key("meanfield", spec)
        assert key is not None
        store_unified_trace(cache, key, trace)
        loaded = load_unified_trace(cache, key)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.windows, trace.windows)
        np.testing.assert_array_equal(loaded.observed_loss, trace.observed_loss)
        np.testing.assert_array_equal(loaded.flow_rtts, trace.flow_rtts)
        assert loaded.backend == "meanfield"

    def test_metric_estimators_accept_meanfield_traces(self, link):
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

        # Link capacity scaled to the population so the per-flow share
        # stays sane and sawtooth growth has loss-free intervals.
        spec = ScenarioSpec(
            protocols=[AIMD(1, 0.5), MIMD(1.02, 0.6)],
            link=Link.from_mbps(4000, 42, 20000),
            steps=200,
            flow_multiplicity=1000,
        )
        trace = run_spec(spec, "meanfield", use_cache=False)
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
        assert all(np.isfinite(s) for s in scores.values()), scores
        assert isinstance(divergence_from_trace(trace), bool)
