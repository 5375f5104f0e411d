"""Property: merged-scheduler packet batching is bit-identical to solo runs.

:mod:`repro.packetsim.batch` runs many replications inside one event
loop with shared rails and a shared packet pool, and it is the packet
engine's only runner: ``run_scenario`` and ``run_workload`` are merge
groups of one. So every merged member is held to two oracles:

- its solo run (a group of one): every statistic — packet counters,
  ACK/loss/RTT sample lists, window samples, queue counters, the event
  count — must come out *identical* (float comparisons are exact: the
  merged loop executes the same handlers at the same times in the same
  per-replication order);
- the frozen pre-refactor simulators outside the runner
  (``reference_packetsim.reference_run_scenario``,
  ``reference_workload.reference_run_workload``): events, queue
  counters and flow lists, float lists as raw uint64 patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import Executor, PacketScenarioJob
from repro.model.link import Link
from repro.packetsim.batch import run_scenarios_batched, run_workloads_batched
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.packetsim.workload import poisson_workload, run_workload
from repro.perf.cache import cache_enabled
from repro.protocols import presets
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD

from reference_packetsim import reference_run_scenario
from reference_workload import reference_run_workload


def _bits(values) -> list[int]:
    array = np.asarray(values, dtype=np.float64)
    return array.reshape(-1).view(np.uint64).tolist()


def _assert_flows_match_reference(flows, reference_flows):
    for stats, ref in zip(flows, reference_flows, strict=True):
        assert stats.packets_sent == ref.packets_sent
        assert stats.packets_acked == ref.packets_acked
        assert stats.packets_lost == ref.packets_lost
        assert stats.rounds_completed == ref.rounds_completed
        assert stats.retransmissions == ref.retransmissions
        assert (stats.completed_at is None) == (ref.completed_at is None)
        if ref.completed_at is not None:
            assert _bits([stats.completed_at]) == _bits([ref.completed_at])
        assert _bits(stats.ack_times) == _bits(ref.ack_times)
        assert _bits(stats.loss_times) == _bits(ref.loss_times)
        assert _bits(stats.rtt_samples) == _bits(ref.rtt_samples)
        assert _bits(stats.window_samples) == _bits(ref.window_samples)


def _assert_matches_reference(result, scenario):
    """A merged member against the frozen simulator, outside the runner."""
    ref_flows, ref_queue, ref_events = reference_run_scenario(scenario)
    assert result.events == ref_events
    assert result.queue.enqueued == ref_queue.enqueued
    assert result.queue.dropped == ref_queue.dropped
    assert result.queue.departed == ref_queue.departed
    assert result.queue.max_occupancy == ref_queue.max_occupancy
    _assert_flows_match_reference(result.flows, ref_flows)


def _assert_flow_stats_equal(merged, serial):
    assert merged.packets_sent == serial.packets_sent
    assert merged.packets_acked == serial.packets_acked
    assert merged.packets_lost == serial.packets_lost
    assert merged.rounds_completed == serial.rounds_completed
    assert merged.retransmissions == serial.retransmissions
    assert merged.completed_at == serial.completed_at
    # Exact float equality: same events at the same times, no tolerances.
    assert merged.ack_times == serial.ack_times
    assert merged.loss_times == serial.loss_times
    assert merged.rtt_samples == serial.rtt_samples
    assert merged.window_samples == serial.window_samples


def _assert_results_equal(merged, serial):
    assert merged.duration == serial.duration
    assert merged.events == serial.events
    assert len(merged.flows) == len(serial.flows)
    for m, s in zip(merged.flows, serial.flows):
        _assert_flow_stats_equal(m, s)
    assert merged.queue.enqueued == serial.queue.enqueued
    assert merged.queue.dropped == serial.queue.dropped
    assert merged.queue.departed == serial.queue.departed
    assert merged.queue.max_occupancy == serial.queue.max_occupancy


def _protocol(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return presets.reno()
    if kind == 1:
        return MIMD(float(rng.uniform(1.001, 1.05)), float(rng.uniform(0.6, 0.95)))
    return RobustAIMD(1.0, 0.8, float(rng.uniform(0.001, 0.05)))


def _scenarios(seed, count, link, duration, lossy):
    rng = np.random.default_rng(seed)
    out = []
    for index in range(count):
        n = int(rng.integers(1, 4))
        out.append(
            PacketScenario(
                link=link,
                protocols=[_protocol(rng) for _ in range(n)],
                duration=duration,
                random_loss_rate=float(rng.uniform(0.0, 0.05)) if lossy else 0.0,
                seed=int(rng.integers(0, 2**31)),
                start_times=[float(i) * 0.5 for i in range(n)]
                if index % 2 else None,
            )
        )
    return out


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=5),
    lossy=st.booleans(),
)
def test_merged_scenarios_bit_identical_to_serial(seed, count, lossy):
    """One merge group: same link and duration across all replications."""
    link = Link.from_mbps(12, 42, 60)
    scenarios = _scenarios(seed, count, link, duration=3.0, lossy=lossy)
    merged = run_scenarios_batched(scenarios)
    for scenario, result in zip(scenarios, merged):
        _assert_results_equal(result, run_scenario(scenario))
        _assert_matches_reference(result, scenario)


def test_mixed_links_split_into_merge_groups_in_submission_order():
    """Different bandwidths cannot share rails; results stay in order."""
    rng = np.random.default_rng(3)
    scenarios = []
    for mbps in (10, 20, 10, 30, 20, 10):
        scenarios.extend(
            _scenarios(int(rng.integers(0, 2**16)), 1,
                       Link.from_mbps(mbps, 42, 50), duration=2.0, lossy=True)
        )
    merged = run_scenarios_batched(scenarios)
    assert len(merged) == len(scenarios)
    for scenario, result in zip(scenarios, merged):
        assert result.scenario is scenario
        _assert_results_equal(result, run_scenario(scenario))
        _assert_matches_reference(result, scenario)


def test_lossless_members_share_a_group_with_lossy_ones():
    """Only a group with a lossy member gets the wire-loss rail; the
    lossless members it carries still match their solo runs, which have
    no such rail."""
    link = Link.from_mbps(12, 42, 60)
    lossy = _scenarios(5, 2, link, duration=2.0, lossy=True)
    lossless = _scenarios(6, 2, link, duration=2.0, lossy=False)
    scenarios = [lossless[0], lossy[0], lossless[1], lossy[1]]
    merged = run_scenarios_batched(scenarios)
    for scenario, result in zip(scenarios, merged, strict=True):
        _assert_results_equal(result, run_scenario(scenario))
        _assert_matches_reference(result, scenario)


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    jobs=st.integers(min_value=1, max_value=4),
)
def test_merged_workloads_bit_identical_to_serial(seed, jobs):
    link = Link.from_mbps(15, 42, 60)
    duration = 6.0
    backgrounds = [[], [presets.reno()], [presets.robust_aimd_paper()]]
    job_list = []
    for rep in range(jobs):
        specs = poisson_workload(
            rate_per_s=2.0, mean_size=30, duration=4.0,
            protocol=presets.reno(), seed=seed + rep,
        )
        job_list.append((specs, backgrounds[rep % len(backgrounds)]))
    merged = run_workloads_batched(link, job_list, duration)
    for (specs, background), result in zip(job_list, merged):
        serial = run_workload(link, specs, duration, background=background)
        assert result.duration == serial.duration
        assert len(result.flows) == len(serial.flows) == len(specs)
        for m, s in zip(result.flows, serial.flows):
            _assert_flow_stats_equal(m, s)
        _assert_flows_match_reference(
            result.flows,
            reference_run_workload(link, specs, duration, background=background),
        )


def test_batched_runs_warm_the_serial_cache(tmp_path):
    """Store entries are shared by submissions with and without ``batch``."""
    link = Link.from_mbps(10, 42, 50)
    scenarios = _scenarios(11, 3, link, duration=2.0, lossy=True)
    jobs = [PacketScenarioJob(scenario) for scenario in scenarios]
    with cache_enabled(tmp_path) as cache:
        batched = Executor().run(jobs, batch=True)
        # Cold: the executor reads each key once.
        assert cache.misses == len(scenarios)
        # A submission without ``batch`` reads what the first stored: pure hits.
        for expected, result in zip(batched, Executor().run(jobs)):
            _assert_results_equal(result, expected)
        assert cache.hits == len(scenarios)
        # And a second batched submission is served entirely from the store.
        again = Executor().run(jobs, batch=True)
        assert cache.hits == 2 * len(scenarios)
        for expected, result in zip(batched, again):
            _assert_results_equal(result, expected)


def test_workload_validations_match_serial():
    link = Link.from_mbps(10, 42, 50)
    specs = poisson_workload(2.0, 20, 3.0, presets.reno(), seed=1)
    with pytest.raises(ValueError, match="duration"):
        run_workloads_batched(link, [(specs, [])], duration=0.0)
    with pytest.raises(ValueError, match="at least one flow"):
        run_workloads_batched(link, [([], [])], duration=5.0)
    late = [s for s in specs]
    with pytest.raises(ValueError, match="never runs"):
        run_workloads_batched(link, [(late, [])], duration=late[0].start_time)
