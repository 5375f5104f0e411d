"""Property: finite-flow packet runs are bit-identical to a frozen copy.

``reference_packetsim`` predates finite flows, and the merged-scheduler
batch tests only hold ``run_workloads_batched`` to ``run_workload`` —
both the code under test. This suite holds ``run_workload`` to
``reference_workload``, a frozen copy of the finite-flow sender (payload
and retransmission bookkeeping, completion) on the frozen closure
scheduler. Poisson workloads run with and without long-lived background
flows, with slow start on and off, and on a 10-MSS buffer so that drops
and retransmissions happen. Every ``FlowStats`` field is compared, float
lists as raw uint64 patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.link import Link
from repro.packetsim.workload import poisson_workload, run_workload
from repro.protocols import presets

from reference_workload import reference_run_workload


def _bits(values) -> list[int]:
    array = np.asarray(values, dtype=np.float64)
    return array.reshape(-1).view(np.uint64).tolist()


def assert_workload_matches_reference(link, specs, duration, background, slow_start):
    expected = reference_run_workload(
        link, specs, duration, background=background, slow_start=slow_start
    )
    result = run_workload(
        link, specs, duration, background=background, slow_start=slow_start
    )
    assert len(result.flows) == len(expected)
    for stats, ref in zip(result.flows, expected, strict=True):
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
    return result


BACKGROUNDS = {
    "none": lambda: None,
    "reno": lambda: [presets.reno()],
    "cubic+reno": lambda: [presets.cubic(), presets.reno()],
}


@pytest.mark.parametrize("background", sorted(BACKGROUNDS))
@pytest.mark.parametrize("slow_start", [True, False])
def test_shallow_buffer_workloads_match_reference(background, slow_start):
    link = Link.from_mbps(5, 42, 10)
    specs = poisson_workload(4.0, 60, 6.0, presets.reno(), seed=5)
    result = assert_workload_matches_reference(
        link, specs, 10.0, BACKGROUNDS[background](), slow_start
    )
    # The 10-MSS buffer is there to force drops and retransmissions.
    assert result.total_retransmissions() > 0
    assert result.completed > 0


@settings(max_examples=20, deadline=None)
@given(
    protocol=st.sampled_from(["reno", "cubic", "robust-aimd"]),
    background=st.sampled_from(sorted(BACKGROUNDS)),
    slow_start=st.booleans(),
    buffer_mss=st.sampled_from([10, 30, 100]),
    rate=st.sampled_from([1.0, 3.0, 6.0]),
    mean_size=st.sampled_from([10, 40, 120]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_workloads_match_reference(
    protocol, background, slow_start, buffer_mss, rate, mean_size, seed
):
    factory = {
        "reno": presets.reno,
        "cubic": presets.cubic,
        "robust-aimd": presets.robust_aimd_paper,
    }[protocol]
    link = Link.from_mbps(10, 42, buffer_mss)
    specs = poisson_workload(rate, mean_size, 4.0, factory(), seed=seed)
    if not specs:
        return
    assert_workload_matches_reference(
        link, specs, 6.0, BACKGROUNDS[background](), slow_start
    )
