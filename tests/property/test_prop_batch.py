"""Property: the batched fluid kernel is bit-identical to the serial path.

The contract that makes ``run_specs(..., batch=True)`` a pure execution
hint: for every batch-eligible grid of scenarios, the stacked kernel must
produce, spec for spec, exactly the float64 arrays the serial
``run_spec`` path (the general per-sender loop) produces — raw bit
patterns, not tolerances. That is what lets sweep drivers opt whole
grids in, lets batched runs warm the same cache entries serial runs
read, and lets one run of many flows take a one-row kernel call: those
one-row runs are checked here at every flow count from 1 to 16, with
per-flow protocol parameters, spread initial windows and deterministic
random loss, and at 1,500 flows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ScenarioSpec, run_batched, run_spec
from repro.backends.batch import plan_batches
from repro.model import dynamics
from repro.model.dynamics import SimulationConfig
from repro.model.link import Link
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD

_TRACE_ARRAYS = (
    "windows",
    "observed_loss",
    "congestion_loss",
    "rtts",
    "capacities",
    "pipe_limits",
    "base_rtts",
    "flow_rtts",
)


def _assert_bit_identical(batched, serial):
    for name in _TRACE_ARRAYS:
        a = np.ascontiguousarray(getattr(batched, name))
        b = np.ascontiguousarray(getattr(serial, name))
        assert a.shape == b.shape, name
        # view(uint64) compares exact bit patterns; NaN == NaN included.
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def _check_grid(specs, **kwargs):
    batched = run_batched(specs, **kwargs)
    for spec, trace in zip(specs, batched):
        _assert_bit_identical(trace, run_spec(spec, "fluid", use_cache=False))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    grid=st.integers(min_value=2, max_value=12),
    n=st.integers(min_value=1, max_value=4),
    steps=st.integers(min_value=16, max_value=200),
)
def test_aimd_grid_bit_identical(seed, grid, n, steps):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(grid):
        link = Link.from_mbps(float(rng.uniform(5, 200)), 42,
                              float(rng.uniform(5, 400)))
        protocols = [
            AIMD(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 0.9)))
            for _ in range(n)
        ]
        specs.append(ScenarioSpec(
            protocols=protocols, link=link, steps=steps,
            initial_windows=[float(w) for w in rng.uniform(1.0, 50.0, size=n)],
        ))
    # One homogeneous class/horizon group — the whole grid is one batch.
    plan = plan_batches(specs)
    assert not plan.fallback
    assert [len(g.indices) for g in plan.groups] == [grid]
    _check_grid(specs)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    loss_rate=st.floats(min_value=0.0, max_value=0.05),
)
def test_mimd_grid_with_random_loss_bit_identical(seed, loss_rate):
    rng = np.random.default_rng(seed)
    link = Link.from_mbps(20, 42, 100)
    specs = [
        ScenarioSpec(
            protocols=[MIMD(float(rng.uniform(1.001, 1.1)),
                            float(rng.uniform(0.5, 0.99)))] * 2,
            link=link, steps=120,
            initial_windows=[1.0, float(rng.uniform(1.0, 30.0))],
            random_loss_rate=loss_rate,
        )
        for _ in range(6)
    ]
    _check_grid(specs)


@settings(max_examples=8, deadline=None)
@given(
    epsilon=st.floats(min_value=0.001, max_value=0.2),
    n=st.integers(min_value=2, max_value=4),
)
def test_heterogeneous_robust_aimd_vs_reno_bit_identical(epsilon, n):
    """Mixed protocol classes per scenario — serial takes the general loop."""
    link = Link.from_mbps(30, 42, 100)
    specs = [
        ScenarioSpec(
            protocols=[RobustAIMD(1.0, 0.8, epsilon)] * (n - 1) + [AIMD(1.0, 0.5)],
            link=Link.from_mbps(float(bw), 42, 100),
            steps=150,
            initial_windows=[1.0] * n,
        )
        for bw in (20, 30, 60, 100)
    ]
    del link
    _check_grid(specs)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=1, max_value=4),
    loss_rate=st.floats(min_value=0.0, max_value=0.03),
)
def test_heterogeneous_class_grid_is_one_batch_bit_identical(seed, n, loss_rate):
    """Scenarios with *different* protocol-class mixes share one kernel.

    This is the Table 1 shape the planner used to fall back on: the
    class tuple varies per scenario and per flow, so the batch dispatches
    through the per-cell protocol-id table. Every row must still match
    its serial trace bit for bit.
    """
    rng = np.random.default_rng(seed)

    def protocol():
        kind = rng.integers(0, 3)
        if kind == 0:
            return AIMD(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.2, 0.9)))
        if kind == 1:
            return MIMD(float(rng.uniform(1.001, 1.1)), float(rng.uniform(0.5, 0.99)))
        return RobustAIMD(
            float(rng.uniform(0.1, 2.0)),
            float(rng.uniform(0.3, 0.95)),
            float(rng.uniform(0.001, 0.2)),
        )

    specs = [
        ScenarioSpec(
            protocols=[protocol() for _ in range(n)],
            link=Link.from_mbps(float(rng.uniform(5, 150)), 42,
                                float(rng.uniform(10, 300))),
            steps=120,
            initial_windows=[float(w) for w in rng.uniform(1.0, 40.0, size=n)],
            random_loss_rate=loss_rate,
        )
        for _ in range(8)
    ]
    plan = plan_batches(specs)
    assert not plan.fallback
    assert [len(g.indices) for g in plan.groups] == [8]
    _check_grid(specs)


def test_mixed_horizons_split_into_groups():
    """Different step counts (and flow counts) batch separately but all
    stay bit-identical."""
    rng = np.random.default_rng(7)
    specs = []
    for steps in (50, 100, 50, 100, 50):
        specs.append(ScenarioSpec(
            protocols=[AIMD(float(rng.uniform(0.5, 2.0)), 0.5)] * 2,
            link=Link.from_mbps(float(rng.uniform(10, 100)), 42, 100),
            steps=steps,
            initial_windows=[1.0, 8.0],
        ))
    # Thousands of flows: the left fold over a row is where a pairwise
    # sum would round differently from the serial running sum.
    specs.append(ScenarioSpec(
        protocols=[AIMD(1.0, 0.5), AIMD(2.0, 0.7)],
        link=Link.from_mbps(2000, 42, 10_000),
        steps=50,
        initial_windows=[1.0, 30.0],
        flow_multiplicity=1000,
    ))
    plan = plan_batches(specs)
    assert sorted(len(g.indices) for g in plan.groups) == [1, 2, 3]
    _check_grid(specs)


def _check_one_row(link, protocols, initial, steps, loss_rate=0.0):
    """One run as a one-row kernel call, held to the general loop."""
    config = SimulationConfig(initial_windows=initial, random_loss_rate=loss_rate)
    spec = ScenarioSpec.from_fluid(link, protocols, steps, config)
    assert not plan_batches([spec]).fallback
    _check_grid([spec])


def _spread_windows(rng, n):
    """Initial windows spread over four decades."""
    return [float(w) for w in 10.0 ** rng.uniform(-1.0, 3.0, size=n)]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    bw=st.floats(min_value=5.0, max_value=200.0),
    buffer_mss=st.floats(min_value=1.0, max_value=500.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_one_row_aimd_bit_identical(n, bw, buffer_mss, seed):
    link = Link.from_mbps(bw, 42, buffer_mss)
    rng = np.random.default_rng(seed)
    protocols = [
        AIMD(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 0.9)))
        for _ in range(n)
    ]
    _check_one_row(link, protocols, _spread_windows(rng, n), steps=300)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    bw=st.floats(min_value=5.0, max_value=200.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_one_row_mimd_bit_identical(n, bw, seed):
    link = Link.from_mbps(bw, 42, 100)
    rng = np.random.default_rng(seed)
    protocols = [
        MIMD(float(rng.uniform(1.001, 1.2)), float(rng.uniform(0.5, 0.99)))
        for _ in range(n)
    ]
    _check_one_row(link, protocols, _spread_windows(rng, n), steps=300)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    loss_rate=st.floats(min_value=0.0, max_value=0.1),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_one_row_robust_aimd_bit_identical_under_random_loss(n, loss_rate, seed):
    link = Link.from_mbps(20, 42, 100)
    rng = np.random.default_rng(seed)
    protocols = [
        RobustAIMD(
            float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.3, 0.95)),
            float(rng.uniform(0.001, 0.2)),
        )
        for _ in range(n)
    ]
    _check_one_row(
        link, protocols, _spread_windows(rng, n), steps=300, loss_rate=loss_rate
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: AIMD(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 0.9))),
        lambda rng: MIMD(float(rng.uniform(1.001, 1.2)), float(rng.uniform(0.5, 0.99))),
        lambda rng: RobustAIMD(
            float(rng.uniform(0.1, 3.0)),
            float(rng.uniform(0.3, 0.95)),
            float(rng.uniform(0.001, 0.2)),
        ),
    ],
    ids=["aimd", "mimd", "robust-aimd"],
)
def test_one_row_of_thousands_of_flows_bit_identical(make):
    # At this size the left fold over the row is where NumPy's pairwise
    # sum would round differently from the general loop's running sum.
    rng = np.random.default_rng(1000)
    n = 1500
    link = Link.from_mbps(2e-3 * n * 1000, 42, 10 * n)
    protocols = [make(rng) for _ in range(n)]
    _check_one_row(
        link, protocols, _spread_windows(rng, n), steps=60, loss_rate=0.002
    )


@pytest.mark.parametrize("n", [3, 5, 8, 16])
def test_general_loop_does_not_fold_with_builtin_sum(monkeypatch, n):
    # From Python 3.12 the builtin sum() of floats is compensated, so it
    # is no longer the left fold the kernel computes. Give the model
    # module a correctly rounded sum: on any Python the general loop and
    # the kernel must still agree.
    monkeypatch.setattr(dynamics, "sum", math.fsum, raising=False)
    rng = np.random.default_rng(n)
    protocols = [
        AIMD(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 0.9)))
        for _ in range(n)
    ]
    _check_one_row(
        Link.from_mbps(20, 42, 100), protocols, _spread_windows(rng, n), steps=300
    )
