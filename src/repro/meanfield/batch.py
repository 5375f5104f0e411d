"""The batched mean-field kernel: advance many density scenarios at once.

:class:`~repro.meanfield.dynamics.MeanFieldSimulator` already costs only
O(cells) per step, but a sweep still pays the full Python interpreter
overhead — scalar link formulas, trigger branches, two ``bincount``
dispatches — once per scenario per step. This module stacks ``B``
grid-compatible scenarios along a leading batch axis (mass ``(B, cells)``,
every link quantity ``(B,)``) so a whole sweep advances through one
vectorized loop.

Two execution paths cover the two feedback modes:

- *synchronized* (the default, and the paper's model): the decrease
  probability is 0 or 1 per scenario per step, so
  :func:`~repro.meanfield.kernel.meanfield_step` reduces bit-exactly to a
  **single** deposit through the selected branch plan (the other branch
  transports an all-``+0.0`` mass vector, and IEEE-754 makes
  ``x*0.0``/``x-x``/``y + +0.0`` exact for the non-negative values
  involved). Because a synchronized density starts as a point mass and
  every step moves it through one plan, its support stays a narrow
  window; the kernel tracks each row's support ``(start, length)`` and
  scatters only those cells. Skipped cells hold exactly ``+0.0`` mass,
  and a ``+0.0`` contribution never changes a partial sum of
  non-negative floats, so the segmented scatter is bit-identical to the
  serial full-grid ``bincount`` pair.

- *unsynchronized*: the decrease probability is a full per-cell mixture,
  so the dense path applies the 2-D generalization of
  :func:`~repro.meanfield.kernel.meanfield_step` — every row's indices
  offset into a disjoint span of one flat ``bincount`` pair, preserving
  within-row accumulation order.

Moments (the mean window and the noticed fraction) are taken with one
full-row ``mass[i] @ points[i]`` per scenario: BLAS groups the dot
product's partial sums by position, so only the exact full-row dot the
serial engine performs is bit-reproducible — never a segmented one.

Scenario compatibility (one group, same grid resolution and horizon,
same trigger comparator and feedback mode, no AQM marking) is decided by
the planner in :mod:`repro.backends.batch`. A row whose aggregate or
density goes non-finite is zeroed (every later contribution is a
transparent ``+0.0``) and reported in ``failed``; the caller reruns it
serially to surface the exact serial error, same as the fluid path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import debug
from repro.meanfield.dynamics import MASS_TOLERANCE
from repro.meanfield.kernel import DepositPlan, meanfield_deposit, meanfield_step
from repro.model.formulas import droptail_loss_rate_array, eq1_rtt_array
from repro.model.random_loss import combine_loss_array
from repro.perf import timing

__all__ = [
    "MeanFieldBatchInputs",
    "MeanFieldBatchResult",
    "mass_support",
    "meanfield_kernel_cells",
    "run_meanfield_batch_kernel",
    "stack_plans",
]

#: Total scenario-steps the mean-field kernel has advanced in this
#: process (see :func:`meanfield_kernel_cells`).
_MF_KERNEL_CELLS = 0


@dataclass
class MeanFieldBatchInputs:
    """Stacked per-scenario inputs for one batched mean-field call.

    Each row is one single-group scenario: its density lives on its own
    grid (``points[i]``), with its own branch plans, link parameters and
    trigger threshold. All rows share the horizon, the cell count, the
    feedback mode and the trigger comparator — the planner's group key.
    """

    steps: int
    synchronized: bool
    op: str  # shared trigger comparator, "gt" or "ge"
    thresholds: np.ndarray  # (B,) trigger thresholds
    points: np.ndarray  # (B, cells) per-row grid points
    plans_lo: np.ndarray  # (2, B, cells) int64 [growth, decrease] index_lo
    plans_hi: np.ndarray  # (2, B, cells) weight_hi
    mass: np.ndarray  # (B, cells) initial densities
    supp_start: np.ndarray  # (B,) int64 first cell of each row's support
    supp_len: np.ndarray  # (B,) int64 support width
    populations: np.ndarray  # (B,) flows represented per row
    capacity: np.ndarray  # (B,)
    bandwidth: np.ndarray  # (B,)
    base_rtt: np.ndarray  # (B,)
    pipe_limit: np.ndarray  # (B,)
    timeout_rtt: np.ndarray  # (B,)
    random_rate: np.ndarray  # (B,)

    @property
    def batch_size(self) -> int:
        return self.mass.shape[0]

    @property
    def cells(self) -> int:
        return self.mass.shape[1]


@dataclass
class MeanFieldBatchResult:
    """The stacked outputs of one mean-field kernel call.

    Column ``i`` of every series is scenario ``i``'s single-group
    :class:`~repro.meanfield.dynamics.MeanFieldResult` column, bit for
    bit; ``masses[i]`` is its final density. ``failed`` maps a scenario
    row to the first step at which its evolution went non-finite; such
    rows carry zeroed data from that step on and must be rerun serially.
    """

    mean_windows: np.ndarray  # (steps, B)
    observed_loss: np.ndarray  # (steps, B)
    congestion_loss: np.ndarray  # (steps, B)
    rtts: np.ndarray  # (steps, B)
    masses: np.ndarray  # (B, cells)
    failed: dict[int, int] = field(default_factory=dict)


# No caller in src/: perfbench/tracing.py reads this counter.
def meanfield_kernel_cells() -> int:
    """Scenario-steps advanced by the mean-field kernel in this process."""
    return _MF_KERNEL_CELLS


def stack_plans(
    growth_plans: list[DepositPlan], decrease_plans: list[DepositPlan]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-row branch plans into the kernel's ``(2, B, cells)`` arrays."""
    lo = np.stack(
        [
            np.stack([plan.index_lo for plan in growth_plans]),
            np.stack([plan.index_lo for plan in decrease_plans]),
        ]
    )
    hi = np.stack(
        [
            np.stack([plan.weight_hi for plan in growth_plans]),
            np.stack([plan.weight_hi for plan in decrease_plans]),
        ]
    )
    return np.ascontiguousarray(lo, dtype=np.int64), np.ascontiguousarray(hi)


def mass_support(mass: np.ndarray) -> tuple[int, int]:
    """``(start, length)`` of the span covering a density's nonzero cells.

    Interior zeros are fine — cells holding exactly ``+0.0`` contribute
    transparently to the segmented scatter.
    """
    nonzero = np.nonzero(mass)[0]
    if nonzero.size == 0:
        return 0, 1
    return int(nonzero[0]), int(nonzero[-1] - nonzero[0] + 1)


def _step_scalars(inputs: MeanFieldBatchInputs, total: np.ndarray):
    """The serial loop's per-step link closure, elementwise over rows.

    ``mark_fraction`` is identically zero here (the planner only admits
    non-marking links), but the serial engine still routes the loss
    through ``combine_loss`` — and ``1 - (1 - loss)`` rounds — so the
    same survival products are applied at rate zero.
    """
    loss = droptail_loss_rate_array(total, inputs.pipe_limit)
    rtt = eq1_rtt_array(
        total,
        inputs.capacity,
        inputs.bandwidth,
        inputs.base_rtt,
        inputs.pipe_limit,
        inputs.timeout_rtt,
    )
    signal = combine_loss_array(loss, 0.0)
    seen_hit = combine_loss_array(signal, inputs.random_rate)
    return loss, rtt, signal, seen_hit


def _freeze_rows(
    mask: np.ndarray, mass: np.ndarray, failed: dict[int, int], step: int
) -> None:
    """Zero newly failed rows so every later contribution is a ``+0.0``."""
    for row in np.nonzero(mask)[0].tolist():
        failed.setdefault(row, step)
    mass[mask] = 0.0


def _check_batch_mass(mass: np.ndarray, alive: np.ndarray, step: int) -> None:
    """Sanitizer observer: every live density stays a probability vector."""
    live = mass[alive]
    if not np.isfinite(live).all():
        debug.fail("meanfield-finite", f"non-finite density at step {step}")
    if (live < 0.0).any():
        debug.fail("meanfield-nonnegative", f"negative density at step {step}")
    drift = np.abs(live.sum(axis=1) - 1.0)
    if live.size and float(drift.max()) > MASS_TOLERANCE:
        debug.fail(
            "meanfield-mass",
            f"total probability drifted by {float(drift.max()):.3e} "
            f"at step {step}",
        )


def _advance_sync(
    inputs: MeanFieldBatchInputs,
    mass: np.ndarray,
    mean_out: np.ndarray,
    obs_out: np.ndarray,
    cong_out: np.ndarray,
    rtt_out: np.ndarray,
) -> dict[int, int]:
    """The synchronized path: one segmented deposit per scenario per step.

    Every row's segment scatters through one flat
    :func:`~repro.meanfield.kernel.meanfield_deposit` over a
    ``B * out_width`` index space, rows offset into disjoint spans.
    """
    b, c = mass.shape
    points = inputs.points
    populations = inputs.populations
    thresholds = inputs.thresholds
    inclusive = inputs.op == "ge"
    rows = np.arange(b, dtype=np.int64)
    row_base = rows[:, None] * c
    supp_start = inputs.supp_start.astype(np.int64).copy()
    supp_len = inputs.supp_len.astype(np.int64).copy()
    flat = mass.reshape(-1)
    alive = np.ones(b, dtype=bool)
    failed: dict[int, int] = {}
    checks = debug.enabled()

    for t in range(inputs.steps):
        # Closure: one full-row dot per scenario (BLAS accumulation
        # order is position-dependent, so the dot is never segmented).
        mean = np.empty(b)
        for i in range(b):
            mean[i] = mass[i] @ points[i]
        mean_out[t] = mean
        total = populations * mean
        bad = (~np.isfinite(total) | (total < 0.0)) & alive
        if bad.any():
            _freeze_rows(bad, mass, failed, t)
            alive &= ~bad
            supp_start[bad] = 0
            supp_len[bad] = 1
            total = np.where(alive, total, 0.0)
        loss, rtt, _signal, seen_hit = _step_scalars(inputs, total)
        cong_out[t] = loss
        rtt_out[t] = rtt
        obs_out[t] = seen_hit
        hit = seen_hit >= thresholds if inclusive else seen_hit > thresholds
        select = hit.astype(np.int64)

        # Gather each row's support segment and its selected branch plan.
        width = int(supp_len.max())
        offsets = np.arange(width, dtype=np.int64)
        valid = offsets < supp_len[:, None]
        safe_cols = np.minimum(supp_start[:, None] + offsets, c - 1)
        seg_mass = np.where(valid, flat[row_base + safe_cols], 0.0)
        seg_lo = inputs.plans_lo[select[:, None], rows[:, None], safe_cols]
        seg_hi = inputs.plans_hi[select[:, None], rows[:, None], safe_cols]

        # Pack every row's destination bins [lo_min, lo_max + 1] into a
        # uniform block; padding cells carry +0.0 mass and land on the
        # row's first bin, both transparent to the non-negative folds.
        lo_min = np.where(valid, seg_lo, c).min(axis=1)
        row_len = np.where(valid, seg_lo, -1).max(axis=1) + 2 - lo_min
        out_width = int(row_len.max())
        idx = np.where(valid, seg_lo - lo_min[:, None], 0) + (rows * out_width)[
            :, None
        ]
        plan = DepositPlan(
            index_lo=idx.ravel(), weight_hi=seg_hi.ravel(), cells=b * out_width
        )
        moved = meanfield_deposit(plan, seg_mass.ravel()).reshape(b, out_width)

        # Swap supports: zero the old window, write the new one.
        flat[(row_base + safe_cols)[valid]] = 0.0
        new_offsets = np.arange(out_width, dtype=np.int64)
        new_cols = lo_min[:, None] + new_offsets
        new_valid = (new_offsets < row_len[:, None]) & (new_cols < c)
        flat[(row_base + np.minimum(new_cols, c - 1))[new_valid]] = moved[new_valid]
        supp_start = lo_min
        supp_len = np.minimum(row_len, c - lo_min)

        newbad = ~np.isfinite(moved).all(axis=1) & alive
        if newbad.any():
            _freeze_rows(newbad, mass, failed, t)
            alive &= ~newbad
            supp_start[newbad] = 0
            supp_len[newbad] = 1
        if checks:
            _check_batch_mass(mass, alive, t)
    return failed


def _advance_dense(
    inputs: MeanFieldBatchInputs,
    mass: np.ndarray,
    mean_out: np.ndarray,
    obs_out: np.ndarray,
    cong_out: np.ndarray,
    rtt_out: np.ndarray,
) -> dict[int, int]:
    """The unsynchronized path: the dense 2-D branch mixture every step.

    Both branch plans are flattened once, every row's indices offset
    into a disjoint span of a ``B * cells`` index space, so each step is
    one :func:`~repro.meanfield.kernel.meanfield_step` over the whole
    batch with the serial engine's within-row accumulation order.
    """
    b, c = mass.shape
    points = inputs.points
    populations = inputs.populations
    thresholds = inputs.thresholds
    inclusive = inputs.op == "ge"
    offsets = (np.arange(b, dtype=np.int64) * c)[:, None]
    growth, decrease = (
        DepositPlan(
            index_lo=(inputs.plans_lo[k] + offsets).ravel(),
            weight_hi=np.ascontiguousarray(inputs.plans_hi[k]).ravel(),
            cells=b * c,
        )
        for k in (0, 1)
    )
    alive = np.ones(b, dtype=bool)
    failed: dict[int, int] = {}
    checks = debug.enabled()

    for t in range(inputs.steps):
        mean = np.empty(b)
        for i in range(b):
            mean[i] = mass[i] @ points[i]
        mean_out[t] = mean
        total = populations * mean
        bad = (~np.isfinite(total) | (total < 0.0)) & alive
        if bad.any():
            _freeze_rows(bad, mass, failed, t)
            alive &= ~bad
            total = np.where(alive, total, 0.0)
        loss, rtt, signal, seen_hit = _step_scalars(inputs, total)
        seen_miss = inputs.random_rate
        cong_out[t] = loss
        rtt_out[t] = rtt
        hit = seen_hit >= thresholds if inclusive else seen_hit > thresholds
        miss = seen_miss >= thresholds if inclusive else seen_miss > thresholds
        hit_f = hit.astype(float)
        miss_f = miss.astype(float)

        # The serial engine's per-flow notice rule, row-broadcast: a flow
        # of window x notices a lossy step with probability 1-(1-s)^x.
        notice = 1.0 - (1.0 - signal)[:, None] ** points
        p_decrease = notice * hit_f[:, None] + (1.0 - notice) * miss_f[:, None]
        noticed = np.empty(b)
        for i in range(b):
            noticed[i] = mass[i] @ notice[i]
        obs_out[t] = noticed * seen_hit + (1.0 - noticed) * seen_miss

        moved = meanfield_step(mass.ravel(), p_decrease.ravel(), growth, decrease)
        mass[...] = moved.reshape(b, c)
        newbad = ~np.isfinite(mass).all(axis=1) & alive
        if newbad.any():
            _freeze_rows(newbad, mass, failed, t)
            alive &= ~newbad
        if checks:
            _check_batch_mass(mass, alive, t)
    return failed


def run_meanfield_batch_kernel(inputs: MeanFieldBatchInputs) -> MeanFieldBatchResult:
    """Advance every mean-field scenario of ``inputs`` through all steps."""
    global _MF_KERNEL_CELLS
    steps = inputs.steps
    b = inputs.batch_size
    mass = np.ascontiguousarray(inputs.mass, dtype=float).copy()
    mean_out = np.zeros((steps, b))
    obs_out = np.zeros((steps, b))
    cong_out = np.zeros((steps, b))
    rtt_out = np.zeros((steps, b))

    advance = _advance_sync if inputs.synchronized else _advance_dense
    with timing.measure("batch.meanfield_kernel"), np.errstate(
        over="ignore", invalid="ignore", divide="ignore"
    ):
        failed = advance(inputs, mass, mean_out, obs_out, cong_out, rtt_out)
    _MF_KERNEL_CELLS += b * steps

    return MeanFieldBatchResult(
        mean_windows=mean_out,
        observed_loss=obs_out,
        congestion_loss=cong_out,
        rtts=rtt_out,
        masses=mass,
        failed=failed,
    )
