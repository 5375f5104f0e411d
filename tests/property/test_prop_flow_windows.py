"""FlowStats window reducers: bisection over the nondecreasing event lists.

``delivered_between``, ``loss_rate_between`` and ``mean_rtt_between``
bisect ``ack_times`` / ``loss_times``, which the scheduler appends in clock
order. These tests pin the results to the linear scans they replace —
counts equal, RTT means bit-identical — and check the ordering invariant
on real runs.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.link import Link
from repro.packetsim.host import FlowStats
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.packetsim.workload import poisson_workload, run_workload
from repro.protocols import presets

# A coarse grid: ties inside the lists and window edges that hit values.
GRID = [i / 4 for i in range(13)]
instant = st.sampled_from(GRID) | st.floats(min_value=0, max_value=3)
sorted_times = st.lists(instant, max_size=40).map(sorted)


def _scan_count(times, start, stop):
    return sum(1 for t in times if start <= t < stop)


def _scan_mean_rtt(ack_times, rtts, start, stop):
    pairs = [rtt for t, rtt in zip(ack_times, rtts) if start <= t < stop]
    return sum(pairs) / len(pairs) if pairs else math.nan


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


@settings(deadline=None, max_examples=300)
@given(
    acks=sorted_times,
    losses=sorted_times,
    edges=st.tuples(instant, instant).map(sorted),
    data=st.data(),
)
def test_bisection_equals_linear_scan(acks, losses, edges, data):
    start, stop = edges
    rtts = data.draw(st.lists(
        st.floats(min_value=0.001, max_value=1.0),
        min_size=len(acks), max_size=len(acks),
    ))
    stats = FlowStats(ack_times=acks, loss_times=losses, rtt_samples=rtts)
    acked = _scan_count(acks, start, stop)
    lost = _scan_count(losses, start, stop)
    assert stats.delivered_between(start, stop) == acked
    expected_loss = lost / (acked + lost) if acked + lost else 0.0
    assert stats.loss_rate_between(start, stop) == expected_loss
    assert _same_float(
        stats.mean_rtt_between(start, stop), _scan_mean_rtt(acks, rtts, start, stop)
    )
    # An inverted window is empty for the mean, as the scan made it.
    assert _same_float(
        stats.mean_rtt_between(stop, start), _scan_mean_rtt(acks, rtts, stop, start)
    )


def _nondecreasing(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def test_real_runs_append_in_clock_order():
    scenario = PacketScenario.from_mbps(
        20.0, 42.0, 10, [presets.reno(), presets.cubic()], duration=4.0, seed=3,
        start_times=[0.0, 1.0],
    )
    flows = list(run_scenario(scenario, use_cache=False).flows)
    specs = poisson_workload(1.0, 30, 3.0, presets.reno(), seed=5)
    flows += run_workload(Link.from_mbps(20, 42, 10), specs, duration=6.0,
                          use_cache=False).flows
    assert any(flow.loss_times for flow in flows)  # the shallow buffer drops
    for flow in flows:
        assert _nondecreasing(flow.ack_times)
        assert _nondecreasing(flow.loss_times)
        assert len(flow.rtt_samples) == len(flow.ack_times)
