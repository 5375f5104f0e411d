"""Fast benchmark smoke: a tiny batched frontier grid equals the serial run.

This is the CI-sized version of ``benchmarks/bench_figure1.py``'s
speedup benchmark — no timing assertions (CI runners are too noisy),
just the correctness half of the contract: routing a small sweep grid
through ``run_specs(batch=True)`` must reproduce the serial drivers'
numbers exactly. CI runs this file as its own ``bench-smoke`` job.
"""

import numpy as np

from repro.core.metrics import EstimatorConfig
from repro.experiments.figure1 import (
    measure_aimd_point,
    measure_aimd_points,
    run_figure1,
)
from repro.experiments.table2 import run_table2
from repro.model.link import Link
from repro.protocols import presets

_LINK = Link.from_mbps(20, 42, 100)
_CONFIG = EstimatorConfig(steps=600, n_senders=2)
_POINTS = [(a, b) for a in (0.5, 2.0) for b in (0.3, 0.7)]


def test_small_frontier_grid_batched_equals_serial():
    batched = measure_aimd_points(
        _POINTS, _LINK, _CONFIG, batch=True, use_cache=False
    )
    for (alpha, beta), b in zip(_POINTS, batched):
        s = measure_aimd_point(alpha, beta, _LINK, _CONFIG)
        assert s.measured_fast_utilization == b.measured_fast_utilization
        assert s.measured_efficiency == b.measured_efficiency
        assert s.measured_friendliness == b.measured_friendliness


def test_figure1_driver_batched_equals_serial():
    kwargs = dict(
        alphas=[0.5, 2.0], betas=[0.3, 0.7],
        empirical_alphas=[1.0], empirical_betas=[0.5],
        config=_CONFIG,
    )
    serial = run_figure1(**kwargs)
    batched = run_figure1(batch=True, **kwargs)
    assert serial.mutually_non_dominated == batched.mutually_non_dominated
    for s, b in zip(serial.empirical, batched.empirical):
        assert (s.alpha, s.beta) == (b.alpha, b.beta)
        assert s.measured_friendliness == b.measured_friendliness
        assert s.measured_efficiency == b.measured_efficiency


def test_table2_driver_batched_equals_serial():
    kwargs = dict(
        senders=(2,), bandwidths_mbps=(20, 60),
        pcc=presets.pcc_bound(), steps=600,
    )
    serial = run_table2(**kwargs)
    batched = run_table2(batch=True, **kwargs)
    assert len(serial.cells) == len(batched.cells)
    for s, b in zip(serial.cells, batched.cells):
        assert (s.n_senders, s.bandwidth_mbps) == (b.n_senders, b.bandwidth_mbps)
        assert s.friendliness_robust_aimd == b.friendliness_robust_aimd
        assert s.friendliness_pcc == b.friendliness_pcc


def test_heterogeneous_mixed_protocol_grid_batched_equals_serial():
    """AIMD/MIMD/Robust-AIMD specs interleave into one batch, bit-equal."""
    from repro.backends import ScenarioSpec, run_spec, run_specs
    from repro.backends.batch import plan_batches
    from repro.protocols.aimd import AIMD
    from repro.protocols.mimd import MIMD
    from repro.protocols.robust_aimd import RobustAIMD

    specs = [
        ScenarioSpec(protocols=[AIMD(1.0, 0.5)] * 2, link=_LINK, steps=400),
        ScenarioSpec(protocols=[MIMD(1.01, 0.875)] * 2, link=_LINK,
                     steps=400),
        ScenarioSpec(protocols=[RobustAIMD(1.0, 0.5, 0.05)] * 2, link=_LINK,
                     steps=400),
        ScenarioSpec(protocols=[AIMD(2.0, 0.3), MIMD(1.02, 0.9)],
                     link=Link.from_mbps(60, 42, 100), steps=400),
    ]
    plan = plan_batches(specs)
    assert plan.fallback == []
    assert [g.indices for g in plan.groups] == [[0, 1, 2, 3]]
    batched = run_specs(specs, batch=True, use_cache=False)
    for spec, trace in zip(specs, batched):
        reference = run_spec(spec, "fluid", use_cache=False)
        assert np.array_equal(
            np.ascontiguousarray(trace.windows).view(np.uint64),
            np.ascontiguousarray(reference.windows).view(np.uint64),
        )


def test_batched_grid_with_mixed_eligibility_matches_serial():
    """A grid where one cell falls back serially still matches end to end."""
    serial = run_table2(senders=(2,), bandwidths_mbps=(20,), steps=600)
    batched = run_table2(senders=(2,), bandwidths_mbps=(20,), steps=600,
                         batch=True)
    (s,), (b,) = serial.cells, batched.cells
    # The default PccLike is stateful, so its specs fall back — the cell
    # must still come out identical to the all-serial run.
    assert s.friendliness_pcc == b.friendliness_pcc
    assert s.friendliness_robust_aimd == b.friendliness_robust_aimd
    assert isinstance(np.float64(b.improvement), np.float64)
