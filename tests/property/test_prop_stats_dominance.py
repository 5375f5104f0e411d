"""Property-based tests for statistics and Pareto machinery."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import dominance
from repro.analysis.dominance import dominates, is_on_front, pareto_front
from repro.analysis.stats import convergence_alpha, jain_index, min_over_max

# Zero is a legitimate throughput, but subnormal values are excluded:
# scaling a denormal (e.g. 5e-324 * 0.5) underflows to zero and genuinely
# changes the Jain index, which is float artifact, not unfairness.
positive_series = arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.one_of(
        st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)
    ),
)


@given(values=positive_series)
def test_jain_index_bounds(values):
    n = values.size
    assert 1.0 / n - 1e-12 <= jain_index(values) <= 1.0 + 1e-12


@given(values=positive_series, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_jain_scale_invariance(values, scale):
    assert jain_index(values * scale) == pytest.approx(jain_index(values), abs=1e-9)


@given(values=positive_series)
def test_min_over_max_bounds(values):
    assert 0.0 <= min_over_max(values) <= 1.0


@given(values=positive_series)
def test_convergence_alpha_bounds(values):
    alpha = convergence_alpha(values)
    assert 0.0 <= alpha <= 1.0


@given(values=positive_series)
def test_convergence_alpha_band_is_valid_witness(values):
    # The witness x* = (min+max)/2 satisfies the Metric V band inequality.
    alpha = convergence_alpha(values)
    x_star = (values.min() + values.max()) / 2.0
    if x_star > 0:
        assert values.min() >= alpha * x_star - 1e-9
        assert values.max() <= (2.0 - alpha) * x_star + 1e-9


points_strategy = st.lists(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
    min_size=1,
    max_size=25,
)


@given(points=points_strategy)
def test_front_members_are_mutually_non_dominated(points):
    front = pareto_front(points)
    for i in front:
        for j in front:
            if i != j:
                assert not dominates(points[i], points[j])


@given(points=points_strategy)
def test_non_members_are_dominated_by_someone(points):
    front = set(pareto_front(points))
    for index, point in enumerate(points):
        if index not in front:
            assert any(dominates(points[j], point) for j in range(len(points)))


@given(points=points_strategy)
def test_front_is_never_empty(points):
    assert pareto_front(points)


@given(
    p=st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=6),
)
def test_dominance_irreflexive(p):
    assert not dominates(p, p)


@given(
    pair=st.lists(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4),
        min_size=2, max_size=2,
    )
)
def test_dominance_asymmetric(pair):
    p, q = pair
    if dominates(p, q):
        assert not dominates(q, p)


# ----------------------------------------------------------------------
# The vectorized front against the pairwise definition
# ----------------------------------------------------------------------
def pairwise_front(points, tol):
    """The front exactly as the definition reads: one dominates() per pair."""
    return [
        i for i in range(len(points))
        if not any(
            dominates(points[j], points[i], tol)
            for j in range(len(points)) if j != i
        )
    ]


# A coarse grid makes ties and exact ``tol`` distances common; NaN, ±inf
# and -0.0 cover the comparisons IEEE makes surprising.
coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan, np.inf, -np.inf]),
    st.floats(min_value=-2, max_value=2),
)
point_sets = st.integers(min_value=1, max_value=4).flatmap(
    lambda dims: st.lists(
        st.lists(coordinate, min_size=dims, max_size=dims),
        min_size=1, max_size=30,
    )
)
tolerances = st.sampled_from([0.0, 1e-12, 0.25, 0.5])


# inf - inf is NaN, and NumPy warns about it in both renderings.
ignore_inf_minus_inf = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


@ignore_inf_minus_inf
@settings(deadline=None, max_examples=200)
@given(points=point_sets, tol=tolerances, block=st.integers(1, 40))
def test_vectorized_front_equals_pairwise_definition(points, tol, block):
    # A small block budget splits even short lists into several blocks.
    with mock.patch.object(dominance, "_BLOCK_PAIRS", block):
        assert pareto_front(points, tol) == pairwise_front(points, tol)


@ignore_inf_minus_inf
@settings(deadline=None, max_examples=100)
@given(points=point_sets, tol=tolerances, data=st.data())
def test_is_on_front_equals_pairwise_definition(points, tol, data):
    dims = len(points[0])
    point = data.draw(st.lists(coordinate, min_size=dims, max_size=dims))
    expected = not any(dominates(other, point, tol) for other in points)
    assert is_on_front(point, points, tol) == expected


def test_front_above_the_default_block_size():
    rng = np.random.default_rng(7)
    points = rng.integers(0, 6, size=(260, 3)).astype(float)  # many ties
    points[::17, 1] = np.nan
    assert dominance._BLOCK_PAIRS // len(points) < len(points)
    for tol in (0.0, 1.0):
        assert pareto_front(points, tol) == pairwise_front(points.tolist(), tol)


def test_negative_tolerance_is_rejected_like_dominates():
    with pytest.raises(ValueError):
        pareto_front([[1.0, 2.0]], tol=-1.0)
    with pytest.raises(ValueError):
        is_on_front([1.0, 2.0], [[0.0, 0.0]], tol=-1.0)
