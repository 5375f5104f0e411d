"""The unified executor: planning, dedup tiers, routing, run_specs edges,
and the packet lanes' failure rule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import LoweringError, ScenarioSpec, run_spec, run_specs
from repro.exec import (
    Executor,
    PacketScenarioJob,
    SpecJob,
    WorkloadJob,
    default_executor,
    reset_default_executor,
)
from repro.model.link import Link
from repro.netmodel.topology import single_link
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.packetsim.workload import FlowSpec, run_workload
from repro.perf import timing
from repro.perf.cache import cache_enabled
from repro.protocols.aimd import AIMD

_TRACE_FIELDS = ("windows", "observed_loss", "congestion_loss", "rtts",
                 "capacities", "pipe_limits", "base_rtts", "flow_rtts")


def _assert_bit_identical(a, b) -> None:
    for name in _TRACE_FIELDS:
        x = np.ascontiguousarray(getattr(a, name))
        y = np.ascontiguousarray(getattr(b, name))
        assert x.shape == y.shape, name
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


def _spec(alpha: float = 1.0, steps: int = 32) -> ScenarioSpec:
    return ScenarioSpec(
        protocols=[AIMD(alpha, 0.5)] * 2,
        link=Link.from_mbps(20, 42, 100),
        steps=steps,
    )


def _failing_spec() -> ScenarioSpec:
    """Constructs fine, raises LoweringError when the fluid backend runs it."""
    link = Link.from_mbps(20, 42, 100)
    return ScenarioSpec(
        protocols=[AIMD(1, 0.5)] * 2,
        link=link,
        steps=32,
        topology=single_link(link, 1),
    )


@pytest.fixture(autouse=True)
def _fresh_default_executor():
    reset_default_executor()
    yield
    reset_default_executor()


class TestDedupTiers:
    def test_within_submission_followers(self):
        executor = Executor()
        spec = _spec()
        outcomes = executor.submit(
            [SpecJob(spec=spec), SpecJob(spec=spec), SpecJob(spec=_spec(2.0))]
        )
        assert [o.source for o in outcomes] == ["computed", "dedup", "computed"]
        _assert_bit_identical(outcomes[0].value, outcomes[1].value)
        stats = executor.snapshot()
        assert stats["computed"] == 2
        assert stats["deduped"] == 1
        assert stats["jobs"] == 3

    def test_store_tier_serves_second_submission(self, tmp_path):
        executor = Executor()
        spec = _spec()
        with cache_enabled(tmp_path):
            first = executor.submit([SpecJob(spec=spec)])
            second = executor.submit([SpecJob(spec=spec)])
        assert first[0].source == "computed"
        assert second[0].source == "cache"
        _assert_bit_identical(first[0].value, second[0].value)
        assert executor.snapshot()["cache_hits"] == 1

    def test_failed_leader_marks_followers(self):
        executor = Executor()
        bad = _failing_spec()
        outcomes = executor.submit(
            [SpecJob(spec=bad), SpecJob(spec=bad)], skip_errors=True
        )
        assert [o.ok for o in outcomes] == [False, False]
        assert [o.source for o in outcomes] == ["computed", "dedup"]
        assert outcomes[1].value is None
        assert executor.snapshot()["errors"] == 2


class TestArchive:
    def test_values_computed_before_a_failure_are_archived(self, tmp_path):
        # The first error in submission order raises, but what the lane
        # computed before it is in the store for the next submission.
        executor = Executor()
        good = SpecJob(spec=_spec(1.0))
        with cache_enabled(tmp_path) as cache:
            with pytest.raises(LoweringError):
                executor.submit([good, SpecJob(spec=_failing_spec())])
            assert len(cache.entries()) == 1
            (again,) = executor.submit([good])
        assert again.source == "cache"

    def test_jobs_submitted_after_a_failure_still_run_and_are_archived(
        self, tmp_path
    ):
        # Every job runs before the earliest failure is raised, so the
        # job submitted after the failing one is in the store too.
        executor = Executor()
        good = SpecJob(spec=_spec(1.0))
        with cache_enabled(tmp_path) as cache:
            with pytest.raises(LoweringError):
                executor.submit([SpecJob(spec=_failing_spec()), good])
            assert len(cache.entries()) == 1
            (again,) = executor.submit([good])
        assert again.source == "cache"

    def test_deduplicated_jobs_share_their_store_reads(self, tmp_path):
        executor = Executor()
        spec = _spec(1.0)
        with cache_enabled(tmp_path) as cache:
            executor.submit([SpecJob(spec=spec)])
            cache.hits = cache.misses = 0
            outcomes = executor.submit([SpecJob(spec=spec)] * 3)
            assert (cache.hits, cache.misses) == (1, 0)
        assert [o.source for o in outcomes] == ["cache"] * 3


class TestRunSpecsEdges:
    @pytest.mark.parametrize("backend", ["fluid", "meanfield", "packet",
                                         "network"])
    @pytest.mark.parametrize("batch", [False, True])
    def test_empty_list_every_backend(self, backend, batch):
        assert run_specs([], backend=backend, batch=batch) == []

    @pytest.mark.parametrize("batch", [False, True])
    def test_skip_errors_leaves_aligned_none_holes(self, batch):
        good = [_spec(1.0), _spec(2.0)]
        traces = run_specs(
            [good[0], _failing_spec(), good[1]],
            batch=batch, use_cache=False, skip_errors=True,
        )
        assert traces[1] is None
        for trace, spec in zip((traces[0], traces[2]), good):
            _assert_bit_identical(trace, run_spec(spec, "fluid",
                                                  use_cache=False))

    @pytest.mark.parametrize("batch", [False, True])
    def test_first_failure_raises_original_exception(self, batch):
        with pytest.raises(LoweringError):
            run_specs([_spec(), _failing_spec()], batch=batch,
                      use_cache=False)

    def test_batch_without_a_batched_engine_warns_once_then_falls_back(
        self, monkeypatch
    ):
        # A backend outside the batched lanes: batch=True warns exactly
        # once, naming the backend, then takes the per-spec path and
        # matches the serial result bit for bit.
        import warnings

        import repro.exec.executor as executor_mod
        from repro.backends.base import _BACKENDS, Backend, get_backend

        class LanelessBackend(Backend):
            name = "laneless"

            def run(self, spec):
                return get_backend("fluid").run(spec)

        monkeypatch.setitem(_BACKENDS, "laneless", LanelessBackend())
        monkeypatch.setattr(executor_mod, "_warned_laneless", set())
        specs = [_spec(1.0, steps=24), _spec(1.5, steps=24)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batched = run_specs(specs, backend="laneless", batch=True,
                                use_cache=False)
            run_specs(specs, backend="laneless", batch=True, use_cache=False)
        laneless = [w for w in caught
                    if "has no batched engine" in str(w.message)]
        assert len(laneless) == 1
        assert "'laneless'" in str(laneless[0].message)
        serial = run_specs(specs, backend="laneless", use_cache=False)
        for a, b in zip(batched, serial):
            _assert_bit_identical(a, b)

    def test_workers_is_not_an_option(self):
        # Every job runs in the submitting process; no option asks otherwise.
        with pytest.raises(TypeError, match="workers"):
            run_specs([_spec()], workers=2)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_spec_failing_on_a_kernel_lane_runs_once(self, monkeypatch):
        # The kernel freezes the diverging row and the serial engine
        # re-runs it once to raise its exact error; the executor records
        # that error instead of running the spec a third time (a second
        # time on its own) to name it.
        from repro.backends.base import get_backend

        fluid = get_backend("fluid")
        serial_run = fluid.run
        calls = []

        def counting_run(spec):
            calls.append(spec)
            return serial_run(spec)

        monkeypatch.setattr(fluid, "run", counting_run)
        diverging = ScenarioSpec(  # overflows float64 on its second step
            protocols=[AIMD(1e308, 0.5)],
            link=Link.from_mbps(20, 42, float("inf")),
            steps=30,
            initial_windows=[1e308],
            max_window=float("inf"),
        )
        errors, raised = {}, {}
        for batch in (False, True):
            calls.clear()
            (outcome,) = Executor().submit(
                [SpecJob(spec=diverging)], batch=batch, use_cache=False,
                skip_errors=True,
            )
            assert len(calls) == 1
            errors[batch] = outcome.error
            calls.clear()
            with pytest.raises(ValueError, match="non-finite") as info:
                Executor().submit([SpecJob(spec=diverging)], batch=batch,
                                  use_cache=False)
            assert len(calls) == 1
            raised[batch] = f"{type(info.value).__name__}: {info.value}"
        assert errors[True] == errors[False] == raised[True] == raised[False]
        with pytest.raises(TypeError, match="workers"):
            Executor().submit([SpecJob(_spec())], workers=2)

    def test_spec_groups_split_back_per_group(self):
        from repro.backends import run_spec_groups

        groups = [[_spec(1.0), _spec(2.0)], [], [_spec(3.0)]]
        split = run_spec_groups(groups, use_cache=False)
        assert [len(traces) for traces in split] == [2, 0, 1]
        flat = run_specs([_spec(1.0), _spec(2.0), _spec(3.0)], use_cache=False)
        for a, b in zip(split[0] + split[2], flat):
            _assert_bit_identical(a, b)
        assert default_executor().snapshot()["submissions"] == 2

    def test_duplicate_specs_share_one_computation(self):
        spec = _spec()
        traces = run_specs([spec, spec], use_cache=False)
        _assert_bit_identical(traces[0], traces[1])
        assert default_executor().snapshot()["deduped"] == 1


class _CallJob:
    """An unkeyed job computing ``fn(**kwargs)``."""

    kind = "call"

    def __init__(self, fn, kwargs: dict) -> None:
        self.fn = fn
        self.kwargs = kwargs

    def key(self) -> None:
        return None

    def run(self):
        return self.fn(**self.kwargs)


def _map_calls(fn, cells, **options) -> list:
    """``fn(**cell)`` for every cell, as one submission to the per-job lane."""
    return Executor().run([_CallJob(fn, dict(cell)) for cell in cells],
                          use_cache=False, **options)


class TestMapCalls:
    def test_results_in_cell_order(self):
        cells = [{"x": i} for i in range(5)]
        assert _map_calls(_double, cells) == [0, 2, 4, 6, 8]

    def test_skip_errors_holes(self):
        cells = [{"x": 1}, {"x": -1}, {"x": 2}]
        assert _map_calls(_refuses_negative, cells, skip_errors=True) == \
            [1, None, 2]

    def test_error_propagates(self):
        with pytest.raises(ValueError):
            _map_calls(_refuses_negative, [{"x": -1}])

    def test_one_serial_section_per_submission(self):
        cells = [{"x": i} for i in range(4)]
        before = _lane_calls("exec.serial")
        assert _map_calls(_double, cells) == [0, 2, 4, 6]
        assert _lane_calls("exec.serial") == before + 1


def _lane_calls(lane: str) -> int:
    stats = timing.REGISTRY.stats()
    return stats[lane].count if lane in stats else 0


def _double(x: int) -> int:
    return 2 * x


def _refuses_negative(x: int) -> int:
    if x < 0:
        raise ValueError("negative")
    return x


# ----------------------------------------------------------------------
# The packet lanes: every packet job merges, and a merged call that
# raises re-runs its members one by one, in submission order.
# ----------------------------------------------------------------------
class _FailingAIMD(AIMD):
    """Reno whose ``next_window`` raises ``ArithmeticError`` at one round."""

    def __init__(self, fail_round: int) -> None:
        super().__init__(1.0, 0.5)
        self.fail_round = fail_round
        self.rounds = 0

    def next_window(self, obs):
        self.rounds += 1
        if self.rounds == self.fail_round:
            raise ArithmeticError(f"raised at round {self.fail_round}")
        return super().next_window(obs)


_PACKET_LINK = Link.from_mbps(10, 42, 20)


def _three_flow_sets() -> list:
    """Three jobs' protocols; the middle job's flow raises at round 5."""
    return [[AIMD(1.0, 0.5)], [_FailingAIMD(5)], [AIMD(2.0, 0.7)]]


def _packet_scenario(protocols) -> PacketScenario:
    return PacketScenario(link=_PACKET_LINK, protocols=protocols, duration=2.0)


def _workload_job(protocols) -> WorkloadJob:
    # Without slow start the protocol decides from the first round on.
    return WorkloadJob(
        link=_PACKET_LINK,
        specs=[FlowSpec(0.0, 40, protocols[0]), FlowSpec(0.3, 60, protocols[0])],
        duration=2.0,
        slow_start=False,
    )


def _flow_bits(flows) -> list:
    """Every flow's counters, and its float lists as raw uint64 patterns."""
    return [
        (
            flow.packets_sent, flow.packets_acked, flow.packets_lost,
            flow.retransmissions,
            *(np.asarray(getattr(flow, name), dtype=np.float64)
              .reshape(-1).view(np.uint64).tolist()
              for name in ("ack_times", "loss_times", "rtt_samples",
                           "window_samples")),
        )
        for flow in flows
    ]


def _assert_only_the_middle_fails(outcomes, solo_runs) -> None:
    assert [outcome.ok for outcome in outcomes] == [True, False, True]
    assert outcomes[1].error.startswith("ArithmeticError")
    for outcome, solo in zip(outcomes[::2], solo_runs):
        assert _flow_bits(outcome.value.flows) == _flow_bits(solo.flows)


class TestPacketLanes:
    # ``batch=True`` is what the packet drivers' callers pass; packet
    # jobs take the merged lane either way, so both must hold the rule.

    def test_raising_scenario_fails_alone(self):
        scenarios = [_packet_scenario(p) for p in _three_flow_sets()]
        solo = [run_scenario(scenarios[0]), run_scenario(scenarios[2])]
        for batch in (True, False):
            outcomes = Executor().submit(
                [PacketScenarioJob(s) for s in scenarios],
                batch=batch, use_cache=False, skip_errors=True,
            )
            _assert_only_the_middle_fails(outcomes, solo)

    def test_raising_workload_fails_alone(self):
        jobs = [_workload_job(p) for p in _three_flow_sets()]
        solo = [
            run_workload(job.link, list(job.specs), job.duration,
                         slow_start=False)
            for job in (jobs[0], jobs[2])
        ]
        for batch in (True, False):
            outcomes = Executor().submit(
                jobs, batch=batch, use_cache=False, skip_errors=True
            )
            _assert_only_the_middle_fails(outcomes, solo)

    def test_raising_packet_spec_fails_alone(self):
        specs = [
            ScenarioSpec(protocols=p, link=_PACKET_LINK, duration=2.0)
            for p in _three_flow_sets()
        ]
        solo = [run_spec(specs[i], "packet", use_cache=False) for i in (0, 2)]
        for batch in (True, False):
            traces = run_specs(specs, backend="packet", batch=batch,
                               use_cache=False, skip_errors=True)
            assert traces[1] is None
            for trace, expected in zip(traces[::2], solo):
                _assert_bit_identical(trace, expected)
        outcomes = Executor().submit(
            [SpecJob(spec, "packet") for spec in specs],
            batch=True, use_cache=False, skip_errors=True,
        )
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert outcomes[1].error.startswith("ArithmeticError")

    def test_packet_specs_merge_with_scenarios_in_one_lane(self, monkeypatch):
        # A packet spec, the native job of its lowered scenario and a
        # packet spec that cannot lower, in one submission: the scenario
        # lane lowers the specs, merges the two scenarios in one call,
        # and fails only the third job, with its lowering error.
        from repro.packetsim import batch as packet_batch

        spec = ScenarioSpec(protocols=[AIMD(1.0, 0.5), AIMD(2.0, 0.7)],
                            link=_PACKET_LINK, duration=2.0)
        unlowerable = ScenarioSpec(protocols=[AIMD(1.0, 0.5)],
                                   link=_PACKET_LINK, duration=2.0,
                                   integer_windows=True)
        scenario = spec.lower_packet()
        jobs = [SpecJob(spec, "packet"), PacketScenarioJob(scenario),
                SpecJob(unlowerable, "packet")]
        expected_trace = run_spec(spec, "packet", use_cache=False)
        expected = run_scenario(scenario)

        merged = packet_batch.run_scenarios_batched
        calls = []
        failing = False

        def spy(scenarios):
            calls.append(len(scenarios))
            if failing and len(scenarios) > 1:
                raise RuntimeError("the merged call raised")
            return merged(scenarios)

        monkeypatch.setattr(packet_batch, "run_scenarios_batched", spy)
        for failing in (False, True):
            calls.clear()
            outcomes = Executor().submit(jobs, use_cache=False,
                                         skip_errors=True)
            # One merged call; when it raises, each lowered member re-runs
            # alone, a merge group of one.
            assert calls == ([2, 1, 1] if failing else [2])
            assert [outcome.ok for outcome in outcomes] == [True, True, False]
            _assert_bit_identical(outcomes[0].value, expected_trace)
            native = outcomes[1].value
            assert _flow_bits(native.flows) == _flow_bits(expected.flows)
            assert native.events == expected.events
            assert (native.queue.enqueued, native.queue.dropped,
                    native.queue.departed) == (expected.queue.enqueued,
                                               expected.queue.dropped,
                                               expected.queue.departed)
            assert outcomes[2].error.startswith("LoweringError")
            with pytest.raises(LoweringError, match="packet-granular"):
                Executor().submit(jobs, use_cache=False)

    def test_first_submitted_failure_raises(self):
        # The later-submitted scenario raises earlier in simulated time.
        jobs = [
            PacketScenarioJob(_packet_scenario([_FailingAIMD(fail_round)]))
            for fail_round in (8, 3)
        ]
        for batch in (True, False):
            with pytest.raises(ArithmeticError, match="round 8"):
                Executor().submit(jobs, batch=batch, use_cache=False)

    def test_first_submitted_failure_raises_across_lanes(self):
        # The packet job's lane runs before the fluid spec's (the per-job
        # lane without batch, the later-sorted fluid lane with it), yet
        # the fluid spec was submitted first, so its error is raised.
        for batch in (True, False):
            jobs = [
                SpecJob(_failing_spec(), "fluid"),
                PacketScenarioJob(_packet_scenario([_FailingAIMD(5)])),
            ]
            with pytest.raises(LoweringError):
                Executor().submit(jobs, batch=batch, use_cache=False)

    def test_compatible_jobs_share_one_merged_call(self, monkeypatch):
        from repro.packetsim import batch as packet_batch

        calls = []
        merged = packet_batch.run_scenarios_batched

        def spy(scenarios):
            calls.append(len(scenarios))
            return merged(scenarios)

        monkeypatch.setattr(packet_batch, "run_scenarios_batched", spy)
        protocols = [[AIMD(1.0, b)] for b in (0.5, 0.6, 0.7, 0.8)]
        Executor().submit(
            [PacketScenarioJob(_packet_scenario(p)) for p in protocols],
            use_cache=False,
        )
        assert calls == [4]
        calls.clear()
        run_specs(
            [ScenarioSpec(protocols=p, link=_PACKET_LINK, duration=2.0)
             for p in protocols],
            backend="packet", use_cache=False,
        )
        assert calls == [4]
