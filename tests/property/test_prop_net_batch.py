"""Property: the batched network kernel is bit-identical to the serial engine.

The contract mirrors ``test_prop_batch.py`` for the multi-link backend:
for every batch-eligible grid of topology scenarios, the stacked
``(batch, flows)`` kernel must produce, spec for spec, exactly the
float64 arrays the serial ``run_spec(spec, "network")`` path produces —
raw bit patterns, not tolerances.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ScenarioSpec, run_spec
from repro.backends.batch import plan_network_batches, run_batched
from repro.model.link import Link
from repro.netmodel.topology import dumbbell, parking_lot, single_link
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD

_TRACE_ARRAYS = (
    "windows",
    "observed_loss",
    "congestion_loss",
    "rtts",
    "flow_rtts",
    "base_rtts",
)


def _assert_bit_identical(batched, serial):
    for name in _TRACE_ARRAYS:
        a = np.ascontiguousarray(getattr(batched, name))
        b = np.ascontiguousarray(getattr(serial, name))
        assert a.shape == b.shape, name
        # view(uint64) compares exact bit patterns; NaN == NaN included.
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def _check_grid(specs, **kwargs):
    batched = run_batched(specs, "network", **kwargs)
    for spec, trace in zip(specs, batched):
        _assert_bit_identical(trace, run_spec(spec, "network", use_cache=False))


def _protocol(rng):
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


def _dumbbell_specs(seed, grid=4, n=3, steps=100, loss_rate=0.0):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(grid):
        bottleneck = Link.from_mbps(float(rng.uniform(5, 150)), 42,
                                    float(rng.uniform(10, 300)))
        access = Link.from_mbps(float(rng.uniform(200, 500)), 10, 200)
        specs.append(ScenarioSpec(
            protocols=[_protocol(rng) for _ in range(n)],
            link=bottleneck, steps=steps,
            topology=dumbbell(access, bottleneck, n),
            initial_windows=[float(w) for w in rng.uniform(1.0, 40.0, size=n)],
            random_loss_rate=loss_rate,
        ))
    return specs


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=1, max_value=4),
    steps=st.integers(min_value=16, max_value=150),
)
def test_dumbbell_grid_bit_identical(seed, n, steps):
    specs = _dumbbell_specs(seed, n=n, steps=steps)
    # Same flow/link structure and horizon — the whole grid is one batch.
    plan = plan_network_batches(specs)
    assert not plan.fallback
    assert [len(g.indices) for g in plan.groups] == [len(specs)]
    _check_grid(specs)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    loss_rate=st.floats(min_value=0.0, max_value=0.03),
)
def test_parking_lot_with_random_loss_bit_identical(seed, loss_rate):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(4):
        link = Link.from_mbps(float(rng.uniform(10, 100)), 42, 100)
        specs.append(ScenarioSpec(
            protocols=[_protocol(rng) for _ in range(4)],
            link=link, steps=80,
            topology=parking_lot(link, 3),
            initial_windows=[float(w) for w in rng.uniform(1.0, 30.0, size=4)],
            random_loss_rate=loss_rate,
        ))
    _check_grid(specs)


def test_single_link_topology_matches_serial():
    rng = np.random.default_rng(5)
    link = Link.from_mbps(20, 42, 100)
    specs = [
        ScenarioSpec(
            protocols=[AIMD(1.0, 0.5), MIMD(1.01, 0.9)],
            link=link, steps=120,
            topology=single_link(link, 2),
            initial_windows=[1.0, float(rng.uniform(1.0, 30.0))],
        )
        for _ in range(3)
    ]
    _check_grid(specs)
