"""Property: the fluid row path is bit-identical to the general loop.

``FluidSimulator.run`` steps a synchronized stateless run of one protocol
class on the row path (one ``batched_next`` call per step) once it has
more flows than the cutoff, and on the general per-sender loop below it.
The choice must never show in a trace: for every such run both loops
produce exactly the same float64 arrays, compared here as raw uint64
patterns. Below the cutoff ``run`` never takes the row path, so these
tests call both loops directly at every flow count from 1 to 16, with
per-flow protocol parameters, spread initial windows and deterministic
random loss.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import dynamics
from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.link import Link
from repro.model.random_loss import BernoulliLoss
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
)


def _assert_traces_bit_identical(row, general):
    for name in _TRACE_ARRAYS:
        a = getattr(row, name)
        b = getattr(general, name)
        assert a.shape == b.shape, name
        # view(uint64) compares exact bit patterns; NaN == NaN included.
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def _run_both(link, protocols, initial, steps, loss_rate=0.0):
    loss = {"loss_process": BernoulliLoss(loss_rate)} if loss_rate else {}
    sim = FluidSimulator(
        link, protocols, SimulationConfig(initial_windows=initial, **loss)
    )
    return sim._run_vectorized(steps), sim._run_general(steps)


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
def test_aimd_fast_path_bit_identical(n, bw, buffer_mss, seed):
    link = Link.from_mbps(bw, 42, buffer_mss)
    rng = np.random.default_rng(seed)
    protocols = [
        AIMD(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 0.9)))
        for _ in range(n)
    ]
    row, general = _run_both(link, protocols, _spread_windows(rng, n), steps=300)
    _assert_traces_bit_identical(row, general)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    bw=st.floats(min_value=5.0, max_value=200.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_mimd_fast_path_bit_identical(n, bw, seed):
    link = Link.from_mbps(bw, 42, 100)
    rng = np.random.default_rng(seed)
    protocols = [
        MIMD(float(rng.uniform(1.001, 1.2)), float(rng.uniform(0.5, 0.99)))
        for _ in range(n)
    ]
    row, general = _run_both(link, protocols, _spread_windows(rng, n), steps=300)
    _assert_traces_bit_identical(row, general)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    loss_rate=st.floats(min_value=0.0, max_value=0.1),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_robust_aimd_fast_path_bit_identical_under_random_loss(n, loss_rate, seed):
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
    row, general = _run_both(
        link, protocols, _spread_windows(rng, n), steps=300, loss_rate=loss_rate
    )
    _assert_traces_bit_identical(row, general)


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
def test_thousands_of_flows_bit_identical(make):
    # At this size the left fold over the row is where NumPy's pairwise
    # sum would round differently from the general loop's running sum.
    rng = np.random.default_rng(1000)
    n = 1500
    link = Link.from_mbps(2e-3 * n * 1000, 42, 10 * n)
    protocols = [make(rng) for _ in range(n)]
    row, general = _run_both(
        link, protocols, _spread_windows(rng, n), steps=60, loss_rate=0.002
    )
    _assert_traces_bit_identical(row, general)


@pytest.mark.parametrize("n", [3, 5, 8, 16])
def test_general_loop_does_not_fold_with_builtin_sum(monkeypatch, n):
    # From Python 3.12 the builtin sum() of floats is compensated, so it
    # is no longer the left fold the row path and the kernel compute.
    # Give the model module a correctly rounded sum: on any Python the
    # two loops must still agree.
    monkeypatch.setattr(dynamics, "sum", math.fsum, raising=False)
    rng = np.random.default_rng(n)
    protocols = [
        AIMD(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 0.9)))
        for _ in range(n)
    ]
    row, general = _run_both(
        Link.from_mbps(20, 42, 100), protocols, _spread_windows(rng, n), steps=300
    )
    _assert_traces_bit_identical(row, general)
