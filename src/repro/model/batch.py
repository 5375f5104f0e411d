"""The batched fluid kernel: advance many scenarios in one NumPy pass.

The Figure 1 frontier and the Table 1 / Table 2 design sweeps evaluate
thousands of near-identical fluid scenarios — same horizon and flow
count, different protocol parameters, protocol *classes*, or link speeds.
Run serially, each scenario pays the Python per-step overhead of
:class:`~repro.model.dynamics.FluidSimulator` (per sender on its general
loop, per step on its row path). This module stacks ``B`` compatible
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
``batched_next`` call per protocol class over the cells that class
drives — a contiguous column slice when the class owns whole columns
across the batch (the homogeneous fast path), a gather/scatter over a
precomputed index mask otherwise — so mixed AIMD/MIMD/Robust-AIMD grids
land in a single kernel launch instead of falling back to the serial
loop.

Bit-identity is the contract, exactly as for the serial row path: every
float64 operation mirrors the serial engine element by element — the
aggregate is the same left fold over the flows, scalar branches become
``numpy.where`` selects over the same conditions, gathers and scatters
move bits without arithmetic, and the clamp is the same ``clip`` — so
slicing row ``i`` out of a batch result reproduces the serial trace of
scenario ``i`` bit for bit (property-tested in
``tests/property/test_prop_batch.py``).

Scenario *compatibility* (same flow count and horizon, and
:func:`~repro.model.dynamics.synchronized_stateless`) is decided by the
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

#: Total scenario-steps the kernel has advanced in this process, for
#: throughput-based chunk autotuning (with ``timing.REGISTRY``'s
#: ``batch.kernel`` total; see :func:`kernel_cells`).
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

    @property
    def batch_size(self) -> int:
        return self.initial.shape[0]

    @property
    def n_senders(self) -> int:
        return self.initial.shape[1]

    def rows(self, lo: int, hi: int) -> "BatchInputs":
        """Scenarios ``lo:hi`` as a new (view-backed) batch, for chunking."""
        return BatchInputs(
            steps=self.steps,
            class_table=self.class_table,
            cell_classes=self.cell_classes[lo:hi],
            cell_params={
                name: values[lo:hi] for name, values in self.cell_params.items()
            },
            initial=self.initial[lo:hi],
            capacity=self.capacity[lo:hi],
            bandwidth=self.bandwidth[lo:hi],
            base_rtt=self.base_rtt[lo:hi],
            pipe_limit=self.pipe_limit[lo:hi],
            timeout_rtt=self.timeout_rtt[lo:hi],
            random_rate=self.random_rate[lo:hi],
            min_window=self.min_window[lo:hi],
            max_window=self.max_window[lo:hi],
            enforce_loss_based=self.enforce_loss_based,
        )


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


def kernel_cells() -> int:
    """Scenario-steps advanced by the kernel so far in this process.

    Dividing ``timing.REGISTRY.total("batch.kernel")`` by this gives the
    measured seconds per scenario-step, which the shared-memory chunk
    scheduler uses to autotune its chunk size.
    """
    return _KERNEL_CELLS


def _dispatch_groups(
    inputs: BatchInputs,
) -> list[tuple[type, str, tuple, dict[str, np.ndarray], np.ndarray]]:
    """Per-class dispatch segments over the cell table.

    One entry per protocol class that drives at least one cell:
    ``(cls, mode, index, params, rtt_placeholder)``. ``mode`` is
    ``"columns"`` when the class owns whole flow columns across every
    scenario of the batch — dispatch is then a contiguous column slice,
    the historical homogeneous fast path — and ``"cells"`` otherwise,
    with ``index`` holding the precomputed ``(rows, cols)`` gather of the
    class's cells. Gathered parameters are materialized once here, not
    per step. ``rtt_placeholder`` is the Section 3 placeholder-RTT array
    (shaped for the mode) when loss-based enforcement applies to the
    class, else ``None``.
    """
    groups = []
    b = inputs.batch_size
    for k, cls in enumerate(inputs.class_table):
        mask = inputs.cell_classes == k
        count = int(mask.sum())
        if count == 0:
            continue
        use_placeholder = inputs.enforce_loss_based and cls.loss_based
        full_cols = mask.all(axis=0)
        if count == b * int(full_cols.sum()):
            cols = np.nonzero(full_cols)[0]
            params = {
                name: inputs.cell_params[name][:, cols]
                for name in cls.batch_param_names
            }
            placeholder = (
                np.full((b, 1), _PLACEHOLDER_RTT) if use_placeholder else None
            )
            groups.append((cls, "columns", (cols,), params, placeholder))
        else:
            rows_idx, cols_idx = np.nonzero(mask)
            params = {
                name: inputs.cell_params[name][rows_idx, cols_idx]
                for name in cls.batch_param_names
            }
            placeholder = (
                np.full(count, _PLACEHOLDER_RTT) if use_placeholder else None
            )
            groups.append((cls, "cells", (rows_idx, cols_idx), params, placeholder))
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

        proposed = np.empty_like(current)
        seen_col = seen[:, None]
        for cls, mode, index, params, placeholder in groups:
            if mode == "columns":
                (cols,) = index
                rtt_obs = placeholder if placeholder is not None else rtt[:, None]
                proposed[:, cols] = cls.batched_next(
                    current[:, cols], seen_col, rtt_obs, params
                )
            else:
                rows_idx, cols_idx = index
                rtt_obs = placeholder if placeholder is not None else rtt[rows_idx]
                proposed[rows_idx, cols_idx] = cls.batched_next(
                    current[rows_idx, cols_idx], seen[rows_idx], rtt_obs, params
                )
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


def run_batch_kernel(
    inputs: BatchInputs,
    out: dict[str, np.ndarray] | None = None,
) -> BatchResult:
    """Advance every scenario of ``inputs`` through all steps at once.

    ``out`` optionally supplies preallocated output arrays (keys
    ``windows``, ``observed_loss``, ``congestion_loss``, ``rtts`` with the
    shapes of :class:`BatchResult`) — the shared-memory scheduler passes
    views into its result buffers so chunk outputs need no pickling.
    """
    global _KERNEL_CELLS
    steps = inputs.steps
    b, n = inputs.initial.shape
    if out is None:
        out = {
            "windows": np.full((steps, b, n), np.nan),
            "observed_loss": np.empty((steps, b)),
            "congestion_loss": np.empty((steps, b)),
            "rtts": np.empty((steps, b)),
        }
    windows_out = out["windows"]
    observed_out = out["observed_loss"]
    congestion_out = out["congestion_loss"]
    rtts_out = out["rtts"]

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
