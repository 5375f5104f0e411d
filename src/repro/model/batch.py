"""The batched fluid kernel: advance many scenarios in one NumPy pass.

The Figure 1 frontier and the Table 1 / Table 2 design sweeps evaluate
thousands of near-identical fluid scenarios — same horizon and flow
count, different protocol parameters, protocol *classes*, or link speeds.
Run serially, each scenario pays the Python per-sender, per-step
overhead of :class:`~repro.model.dynamics.FluidSimulator`'s general loop.
This module stacks ``B`` compatible
scenarios along a leading batch axis and advances *all* of them with one
NumPy expression per step:
windows become a ``(B, flows)`` array, the Eq. (1) RTT / droptail loss /
combined loss evaluate through the ``*_array`` variants in
:mod:`repro.model.formulas` and :mod:`repro.model.random_loss`, and the
protocol updates go through the branch-free
:meth:`~repro.protocols.base.Protocol.batched_next` maps.

Protocol dispatch is *table-driven and heterogeneous*: a batch carries a
per-cell protocol-id array (``cell_classes``, one entry per
scenario-flow cell) indexing a small ``class_table``, plus a merged
parameter table of ``(B, flows)`` arrays. Each step makes one
``batched_next`` call per protocol class, a gather/scatter over the
precomputed indices of the cells that class drives, so mixed
AIMD/MIMD/Robust-AIMD grids land in a single kernel launch instead of
falling back to the serial loop.

Bit-identity with the serial general loop is the contract: every
float64 operation mirrors the serial engine element by element — the
aggregate is the same left fold over the flows, scalar branches become
``numpy.where`` selects over the same conditions, gathers and scatters
move bits without arithmetic, and the clamp is the same ``clip`` — so
slicing row ``i`` out of a batch result reproduces the serial trace of
scenario ``i`` bit for bit (property-tested in
``tests/property/test_prop_batch.py``). A batch of one row is the
vectorised route for a single large population: its per-step cost is a
few NumPy calls over the flows, not a Python step per sender.

Scenario *compatibility* (same flow count and horizon, and
:func:`~repro.backends.batch.synchronized_stateless`) is decided by the
planner in :mod:`repro.backends.batch`; this module only sees
already-stacked inputs. A scenario that produces a non-finite window
mid-batch is frozen at a placeholder value and reported in
``BatchResult.failed`` — rows are independent under elementwise
arithmetic, so the rest of the batch is unaffected, and the caller reruns
the failed scenario serially to surface the exact serial error. The non-finite recheck runs after *all*
per-class dispatch calls of a step have written their cells, so a row
diverging under one class never contaminates cells another class drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model.dynamics import _PLACEHOLDER_RTT
from repro.model.formulas import droptail_loss_rate_array, eq1_rtt_array
from repro.model.random_loss import combine_loss_array
from repro.perf import timing

__all__ = ["BatchInputs", "BatchResult", "kernel_cells", "run_batch_kernel"]

#: Total scenario-steps the kernel has advanced in this process (see
#: :func:`kernel_cells`).
_KERNEL_CELLS = 0


@dataclass
class BatchInputs:
    """Stacked per-scenario inputs for one batched kernel call.

    All link/clamp arrays are float64 with one entry per scenario (``B``
    rows). Protocol dispatch is per *cell* (scenario row x flow column):
    ``class_table`` lists the distinct protocol classes of the batch in
    first-appearance order, ``cell_classes[i, j]`` is the index into that
    table of the class driving flow ``j`` of scenario ``i``, and
    ``cell_params[name][i, j]`` holds that cell's value of constructor
    parameter ``name`` (NaN where the cell's class has no such parameter
    — those entries are never gathered). Parameters and classes may vary
    freely across the batch; the planner only fixes flow count, horizon
    and loss-based enforcement.
    """

    steps: int
    class_table: tuple[type, ...]
    cell_classes: np.ndarray  # (B, flows) indices into class_table
    cell_params: dict[str, np.ndarray]  # name -> (B, flows), NaN-filled
    initial: np.ndarray  # (B, flows) initial windows, finite and >= 0
    capacity: np.ndarray  # (B,) link C
    bandwidth: np.ndarray  # (B,) link B
    base_rtt: np.ndarray  # (B,) 2 * Theta
    pipe_limit: np.ndarray  # (B,) C + tau
    timeout_rtt: np.ndarray  # (B,) Delta
    random_rate: np.ndarray  # (B,) constant non-congestion loss rate
    min_window: np.ndarray  # (B,)
    max_window: np.ndarray  # (B,)
    enforce_loss_based: bool = True

    # No caller in src/: perfbench/tracing.py reads it per kernel call.
    @property
    def batch_size(self) -> int:
        return self.initial.shape[0]


@dataclass
class BatchResult:
    """The stacked outputs of one kernel call.

    Row ``i`` of every array is scenario ``i``'s trace data: ``windows``
    is ``(steps, B, flows)``; the per-step link series are ``(steps, B)``
    (all flows of a scenario share the synchronized feedback, exactly as
    in the serial engine). ``failed`` maps a scenario row to the first
    step at which its protocol produced a non-finite window; such rows
    carry placeholder data from that step on and must be rerun serially.
    """

    windows: np.ndarray
    observed_loss: np.ndarray
    congestion_loss: np.ndarray
    rtts: np.ndarray
    failed: dict[int, int] = field(default_factory=dict)


# No caller in src/: perfbench/tracing.py reads this counter.
def kernel_cells() -> int:
    """Scenario-steps advanced by the kernel so far in this process."""
    return _KERNEL_CELLS


def _dispatch_groups(
    inputs: BatchInputs,
) -> list[tuple[type, np.ndarray, np.ndarray, dict[str, np.ndarray], np.ndarray | None]]:
    """Per-class dispatch segments over the cell table.

    One entry per protocol class that drives at least one cell:
    ``(cls, rows, cells, params, rtt_placeholder)``. ``cells`` holds the
    flat (row-major) indices of the class's cells and ``rows`` their
    scenario rows; one flat index array gathers and scatters faster than a
    ``(rows, cols)`` pair, and a batch of one large population pays for
    the gather on every cell. Gathered parameters are materialized once
    here, not per step. ``rtt_placeholder`` is the Section 3
    placeholder-RTT array, one entry per cell, when loss-based
    enforcement applies to the class, else ``None``.
    """
    groups = []
    flows = inputs.cell_classes.shape[1]
    for k, cls in enumerate(inputs.class_table):
        cells = np.flatnonzero(inputs.cell_classes == k)
        if cells.size == 0:
            continue
        params = {
            name: inputs.cell_params[name].take(cells)
            for name in cls.batch_param_names
        }
        placeholder = (
            np.full(cells.size, _PLACEHOLDER_RTT)
            if inputs.enforce_loss_based and cls.loss_based
            else None
        )
        groups.append((cls, cells // flows, cells, params, placeholder))
    return groups


def _advance_numpy(
    inputs: BatchInputs,
    current: np.ndarray,
    windows_out: np.ndarray,
    observed_out: np.ndarray,
    congestion_out: np.ndarray,
    rtts_out: np.ndarray,
) -> dict[int, int]:
    """The NumPy per-step loop: advance ``current`` through all steps.

    Fills the four output arrays in place and returns the failure map.
    """
    groups = _dispatch_groups(inputs)
    min_w = inputs.min_window[:, None]
    max_w = inputs.max_window[:, None]
    failed: dict[int, int] = {}

    for t in range(inputs.steps):
        # Left-fold row sum in flow order, matching the serial engines'
        # running Python sum (pairwise summation would round differently).
        total = np.add.accumulate(current, axis=1)[:, -1]
        loss = droptail_loss_rate_array(total, inputs.pipe_limit)
        rtt = eq1_rtt_array(
            total,
            inputs.capacity,
            inputs.bandwidth,
            inputs.base_rtt,
            inputs.pipe_limit,
            inputs.timeout_rtt,
        )
        seen = combine_loss_array(loss, inputs.random_rate)

        windows_out[t] = current
        observed_out[t] = seen
        congestion_out[t] = loss
        rtts_out[t] = rtt

        proposed = np.empty(current.size)
        for cls, rows, cells, params, placeholder in groups:
            rtt_obs = placeholder if placeholder is not None else rtt.take(rows)
            proposed[cells] = cls.batched_next(
                current.take(cells), seen.take(rows), rtt_obs, params
            )
        proposed = proposed.reshape(current.shape)
        # Recheck the assembled step *after* every class segment has
        # written its cells: a non-finite window from any class freezes
        # the whole scenario row, never just that class's cells.
        finite = np.isfinite(proposed).all(axis=1)
        if not finite.all():
            for row in np.nonzero(~finite)[0].tolist():
                failed.setdefault(row, t)
            # Freeze the bad rows at a safe value so the rest of the
            # batch keeps computing cleanly; their outputs from here
            # on are placeholders the caller discards.
            proposed[~finite] = 1.0
        np.clip(proposed, min_w, max_w, out=current)
    return failed


def run_batch_kernel(inputs: BatchInputs) -> BatchResult:
    """Advance every scenario of ``inputs`` through all steps at once."""
    global _KERNEL_CELLS
    steps = inputs.steps
    b, n = inputs.initial.shape
    windows_out = np.full((steps, b, n), np.nan)
    observed_out = np.empty((steps, b))
    congestion_out = np.empty((steps, b))
    rtts_out = np.empty((steps, b))

    # Suppress warnings from rows frozen after a failure (and from the
    # unselected halves of where-selects); values are unaffected.
    with timing.measure("batch.kernel"), np.errstate(
        over="ignore", invalid="ignore", divide="ignore"
    ):
        # Same clamp the serial engine applies to x_i(0).
        current = np.clip(
            inputs.initial, inputs.min_window[:, None], inputs.max_window[:, None]
        )
        failed = _advance_numpy(
            inputs, current, windows_out, observed_out, congestion_out, rtts_out
        )
    _KERNEL_CELLS += b * steps

    return BatchResult(
        windows=windows_out,
        observed_loss=observed_out,
        congestion_loss=congestion_out,
        rtts=rtts_out,
        failed=failed,
    )
