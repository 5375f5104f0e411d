"""Pareto dominance over points in the metric space.

Section 5.2 frames protocol design as choosing a point on the Pareto
frontier of the feasibility region: a feasible point is on the frontier if
no other feasible point is strictly better in one metric without being
strictly worse in another. These helpers implement dominance and frontier
extraction for arbitrary collections of points (higher is better in every
coordinate, matching the paper's metrics where each alpha-score increases
with protocol quality).

:func:`dominates` is the scalar definition. :func:`pareto_front` and
:func:`is_on_front` apply the same test to whole point sets with NumPy:
per coordinate they compute ``p - q`` and compare it to ``-tol`` and
``tol`` exactly as :func:`dominates` does, so every decision — ties, NaN
and ``tol`` included — is the scalar one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def dominates(p: Sequence[float], q: Sequence[float], tol: float = 0.0) -> bool:
    """Whether ``p`` Pareto-dominates ``q`` (>= everywhere, > somewhere).

    ``tol`` absorbs estimation noise: coordinates within ``tol`` count as
    equal.
    """
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape or p_arr.ndim != 1:
        raise ValueError("points must be 1-D and of equal dimension")
    if tol < 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    diff = p_arr - q_arr
    return bool(np.all(diff >= -tol) and np.any(diff > tol))


#: Point pairs compared per block, bounding each ``(n, block)`` temporary
#: (512 KB of float64).
_BLOCK_PAIRS = 1 << 16


def _dominated(points: np.ndarray, candidates: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """For each row ``q`` of ``candidates``, whether a row of ``points`` dominates it.

    Row for row the answer is ``any(dominates(p, q, tol) for p in
    points)``. Candidates go in blocks, and each coordinate builds one
    ``(len(points), block)`` difference array at a time.
    """
    if tol < 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    n, dims = points.shape
    result = np.zeros(candidates.shape[0], dtype=bool)
    if n == 0:
        return result
    block = max(1, _BLOCK_PAIRS // n)
    for start in range(0, candidates.shape[0], block):
        chunk = candidates[start:start + block]
        all_ge = np.ones((n, chunk.shape[0]), dtype=bool)
        any_gt = np.zeros((n, chunk.shape[0]), dtype=bool)
        for k in range(dims):
            diff = points[:, k, None] - chunk[None, :, k]
            all_ge &= diff >= -tol
            any_gt |= diff > tol
        result[start:start + chunk.shape[0]] = (all_ge & any_gt).any(axis=0)
    return result


def pareto_front(points: Sequence[Sequence[float]], tol: float = 0.0) -> list[int]:
    """Indices of the non-dominated points, in input order.

    Duplicate points are all retained (none strictly dominates another).
    A point never dominates itself, so comparing each point with the whole
    set is the same as comparing it with the others.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise ValueError("points must be a 2-D array-like (n_points, n_dims)")
    return np.flatnonzero(~_dominated(arr, arr, tol)).tolist()


def is_on_front(point: Sequence[float], others: Sequence[Sequence[float]],
                tol: float = 0.0) -> bool:
    """Whether ``point`` is dominated by none of ``others``."""
    if len(others) == 0:
        return True
    q = np.asarray(point, dtype=float)
    arr = np.asarray(others, dtype=float)
    if q.ndim != 1 or arr.ndim != 2 or arr.shape[1] != q.shape[0]:
        raise ValueError("points must be 1-D and of equal dimension")
    return not _dominated(arr, q[None, :], tol)[0]
