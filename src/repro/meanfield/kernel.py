"""The density-evolution kernel: mass transport on the window grid.

One mean-field step moves each grid point's probability mass to where the
protocol would move a window of that size — the growth image with
probability ``1 - p_dec`` and the multiplicative-decrease image with
probability ``p_dec`` — and deposits it back onto the grid by linear
interpolation (cloud-in-cell): mass landing at position ``x`` between
points ``j`` and ``j + 1`` splits in proportion to proximity. The scatter
is two ``np.bincount`` calls per branch, so a step costs O(cells)
regardless of how many flows the density represents.

Both branch images are fixed point sets (protocol updates are autonomous
in the window), so their interpolation plans are built once per group and
reused every step.

Invariants, by construction and enforced by the ``REPRO_DEBUG_CHECKS``
sanitizer (:meth:`~repro.meanfield.dynamics.MeanFieldSimulator`):

- *mass conservation*: each particle's two deposit weights are ``f`` and
  ``1 - f``; summing the scatters returns the total mass up to float
  rounding (property-tested to hold within 1e-12 over long horizons);
- *non-negativity*: weights lie in ``[0, 1]`` and ``p_dec`` in
  ``[0, 1]``, so no cell can ever go negative.

Kernel functions are ``meanfield_``-prefixed and must stay free of Python
loops over their grid arrays; check REP404 in
``tests/unit/test_source_contracts.py`` holds them to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.meanfield.grid import WindowGrid

__all__ = [
    "DepositPlan",
    "meanfield_deposit",
    "meanfield_moment",
    "meanfield_plan",
    "meanfield_step",
]


@dataclass(frozen=True)
class DepositPlan:
    """Precomputed cloud-in-cell scatter for a fixed set of positions.

    Position ``i`` deposits a ``weights_hi[i]`` fraction of its mass on
    grid point ``index_lo[i] + 1`` and the rest on ``index_lo[i]``.
    """

    index_lo: np.ndarray
    weight_hi: np.ndarray
    cells: int


def meanfield_plan(positions: np.ndarray, grid: WindowGrid) -> DepositPlan:
    """Build the interpolation plan scattering mass at ``positions``.

    Positions are clipped to the grid span first (mass pushed past either
    edge piles up on the edge point — the grid's saturating boundary,
    mirroring the simulator's window clamp), then resolved to a lower
    grid index and a fractional distance toward the next point.
    """
    fractional = (np.asarray(positions, dtype=float) - grid.lo) / grid.dx
    fractional = np.clip(fractional, 0.0, float(grid.cells - 1))
    index_lo = np.minimum(fractional.astype(np.int64), grid.cells - 2)
    return DepositPlan(
        index_lo=index_lo,
        weight_hi=fractional - index_lo,
        cells=grid.cells,
    )


def meanfield_deposit(plan: DepositPlan, mass: np.ndarray) -> np.ndarray:
    """Scatter ``mass`` (one entry per planned position) onto the grid.

    The batched mean-field kernel (:mod:`repro.meanfield.batch`) scatters
    a whole batch through this same call: its plans offset every row's
    indices into a disjoint span of one flat index space, so within-row
    accumulation order — and therefore every float — is identical to
    scattering that row alone.
    """
    upper = mass * plan.weight_hi
    lower = mass - upper
    return np.bincount(
        plan.index_lo, weights=lower, minlength=plan.cells
    ) + np.bincount(plan.index_lo + 1, weights=upper, minlength=plan.cells)


def meanfield_step(
    mass: np.ndarray,
    p_decrease: np.ndarray | float,
    growth_plan: DepositPlan,
    decrease_plan: DepositPlan,
) -> np.ndarray:
    """One mean-field step: split each point's mass across the two branches.

    ``p_decrease`` is the per-point (or scalar, when feedback is
    synchronized) probability of taking the multiplicative-decrease
    branch this step.
    """
    decreased = mass * p_decrease
    return meanfield_deposit(growth_plan, mass - decreased) + meanfield_deposit(
        decrease_plan, decreased
    )


def meanfield_moment(mass: np.ndarray, values: np.ndarray) -> float:
    """The density's expectation of ``values`` (e.g. the mean window)."""
    return float(mass @ values)
