"""The batched multi-link kernel: advance many network scenarios at once.

:class:`~repro.netmodel.dynamics.NetworkFluidSimulator` pays the full
Python per-step cost for every scenario: per-link scalar formula calls,
per-flow ``Observation`` construction, one ``next_window`` call per
flow. Table 2-style sweeps evaluate dozens of scenarios that share one
topology *structure* (same link names, same flow paths, same horizon)
and differ only in link parameters and protocol constants — exactly the
shape the batched fluid kernel (:mod:`repro.model.batch`) exploits.

This module stacks ``B`` structure-compatible network scenarios along a
leading batch axis: windows become ``(B, flows)``, the per-link series
``(B, links)``, and each step advances every scenario with one NumPy
expression per formula — the shared ``*_array`` renderings of the
droptail loss and queueing delay in :mod:`repro.model.formulas`, the
per-path survival products as left-folds over the shared path columns,
and the table-driven heterogeneous protocol dispatch reused verbatim
from the fluid batch (``class_table`` + NaN-padded ``cell_params`` +
per-cell gather/scatter via
:func:`repro.model.batch._dispatch_groups`).

Bit-identity is the contract: every float64 operation mirrors the
serial engine element by element — the link loads accumulate in the
same flow-outer/column-inner fold, the per-path survival and queueing
sums fold in path order, scalar branches become ``numpy.where`` selects
over the same conditions, and the clamp is the same ``clip`` — so row
``i`` of a batch reproduces the serial :class:`NetworkTrace` arrays of
scenario ``i`` bit for bit (property-tested in
``tests/property/test_prop_net_batch.py``).

Scenario compatibility (same topology structure, flow count, horizon;
deterministic loss; batchable protocol classes) is decided by the
planner in :mod:`repro.backends.batch`. A scenario that produces a
non-finite window mid-batch is frozen at a placeholder value and
reported in ``NetBatchResult.failed``; the caller reruns it serially to
surface the exact serial error, exactly like the fluid path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model.batch import _dispatch_groups
from repro.model.formulas import droptail_loss_rate_array, queueing_delay_array
from repro.model.random_loss import combine_loss_array
from repro.perf import timing

__all__ = [
    "NetBatchInputs",
    "NetBatchResult",
    "net_kernel_cells",
    "run_network_batch_kernel",
]

#: Total scenario-steps the network kernel has advanced in this process,
#: for throughput-based chunk autotuning (with ``timing.REGISTRY``'s
#: ``batch.net_kernel`` total; see :func:`net_kernel_cells`).
_NET_KERNEL_CELLS = 0


@dataclass
class NetBatchInputs:
    """Stacked per-scenario inputs for one batched network-kernel call.

    All scenarios share one topology *structure*: ``paths[j]`` lists the
    link columns flow ``j`` crosses, identical across the batch (the
    planner groups on it). Link *parameters* vary freely per row: the
    per-link arrays are ``(B, links)``. ``base_rtts`` and
    ``timeout_caps`` are precomputed per flow ``(B, flows)`` with the
    serial engine's own Python sums, so the hot loop never re-derives
    them. Protocol dispatch is the fluid batch's cell-table scheme
    (see :class:`repro.model.batch.BatchInputs`).
    """

    steps: int
    class_table: tuple[type, ...]
    cell_classes: np.ndarray  # (B, flows) indices into class_table
    cell_params: dict[str, np.ndarray]  # name -> (B, flows), NaN-filled
    initial: np.ndarray  # (B, flows) initial windows, finite and >= 0
    capacity: np.ndarray  # (B, links) per-link C
    bandwidth: np.ndarray  # (B, links) per-link B
    buffer_size: np.ndarray  # (B, links) per-link tau
    pipe_limit: np.ndarray  # (B, links) per-link C + tau
    base_rtts: np.ndarray  # (B, flows) propagation RTT along each path
    timeout_caps: np.ndarray  # (B, flows) 2 * sum of full-buffer RTTs
    random_rate: np.ndarray  # (B,) constant non-congestion loss rate
    min_window: np.ndarray  # (B,)
    max_window: np.ndarray  # (B,)
    paths: tuple[tuple[int, ...], ...]  # flow -> link columns, shared
    enforce_loss_based: bool = True

    @property
    def batch_size(self) -> int:
        return self.initial.shape[0]

    @property
    def n_senders(self) -> int:
        return self.initial.shape[1]

    @property
    def n_links(self) -> int:
        return self.capacity.shape[1]

    def rows(self, lo: int, hi: int) -> "NetBatchInputs":
        """Scenarios ``lo:hi`` as a new (view-backed) batch, for chunking."""
        return NetBatchInputs(
            steps=self.steps,
            class_table=self.class_table,
            cell_classes=self.cell_classes[lo:hi],
            cell_params={
                name: values[lo:hi] for name, values in self.cell_params.items()
            },
            initial=self.initial[lo:hi],
            capacity=self.capacity[lo:hi],
            bandwidth=self.bandwidth[lo:hi],
            buffer_size=self.buffer_size[lo:hi],
            pipe_limit=self.pipe_limit[lo:hi],
            base_rtts=self.base_rtts[lo:hi],
            timeout_caps=self.timeout_caps[lo:hi],
            random_rate=self.random_rate[lo:hi],
            min_window=self.min_window[lo:hi],
            max_window=self.max_window[lo:hi],
            paths=self.paths,
            enforce_loss_based=self.enforce_loss_based,
        )


@dataclass
class NetBatchResult:
    """The stacked outputs of one network-kernel call.

    Slicing row ``i`` out of every array yields scenario ``i``'s
    :class:`~repro.netmodel.trace.NetworkTrace` arrays: the per-flow
    series are ``(steps, B, flows)`` and the per-link series
    ``(steps, B, links)``. ``failed`` maps a scenario row to the first
    step at which its protocol produced a non-finite window; such rows
    carry placeholder data from that step on and must be rerun serially.
    """

    windows: np.ndarray
    flow_loss: np.ndarray
    flow_rtts: np.ndarray
    link_load: np.ndarray
    link_loss: np.ndarray
    failed: dict[int, int] = field(default_factory=dict)


def net_kernel_cells() -> int:
    """Scenario-steps advanced by the network kernel in this process.

    Dividing ``timing.REGISTRY.total("batch.net_kernel")`` by this gives
    the measured seconds per scenario-step for the chunk autotuner.
    """
    return _NET_KERNEL_CELLS


def _advance_network_numpy(
    inputs: NetBatchInputs,
    current: np.ndarray,
    windows_out: np.ndarray,
    flow_loss_out: np.ndarray,
    flow_rtts_out: np.ndarray,
    link_load_out: np.ndarray,
    link_loss_out: np.ndarray,
) -> dict[int, int]:
    """The NumPy per-step loop: advance ``current`` through all steps.

    Fills the five output arrays in place and returns the failure map.
    """
    b, n = current.shape
    n_links = inputs.n_links
    paths = inputs.paths
    groups = _dispatch_groups(inputs)
    min_w = inputs.min_window[:, None]
    max_w = inputs.max_window[:, None]
    rand = inputs.random_rate[:, None]
    failed: dict[int, int] = {}

    for t in range(inputs.steps):
        # Per-link loads accumulate flow-outer / path-column-inner,
        # matching the serial engine's `load[col] += windows[flow]`
        # fold order exactly.
        load = np.zeros((b, n_links))
        for j in range(n):
            for col in paths[j]:
                load[:, col] = load[:, col] + current[:, j]
        link_loss = droptail_loss_rate_array(load, inputs.pipe_limit)
        queue_delay = queueing_delay_array(
            load, inputs.capacity, inputs.buffer_size, inputs.bandwidth
        )

        link_load_out[t] = load
        link_loss_out[t] = link_loss
        windows_out[t] = current

        # Per-flow path loss: the same left-fold survival product in
        # path order as formulas.path_loss, then the random-loss
        # combine (applied even at rate zero — the serial engine
        # always calls combine_loss, and `1 - (1 - loss)` rounds).
        seen = np.empty((b, n))
        rtt = np.empty((b, n))
        for j, cols in enumerate(paths):
            survival = np.ones(b)
            for col in cols:
                survival = survival * (1.0 - link_loss[:, col])
            seen[:, j] = 1.0 - survival
            lossy = np.zeros(b, dtype=bool)
            for col in cols:
                lossy |= link_loss[:, col] > 0.0
            delay = np.zeros(b)
            for col in cols:
                delay = delay + queue_delay[:, col]
            rtt[:, j] = np.where(
                lossy, inputs.timeout_caps[:, j], inputs.base_rtts[:, j] + delay
            )
        seen = combine_loss_array(seen, rand)

        flow_loss_out[t] = seen
        flow_rtts_out[t] = rtt

        proposed = np.empty_like(current)
        for cls, mode, index, params, placeholder in groups:
            if mode == "columns":
                (cols,) = index
                rtt_obs = placeholder if placeholder is not None else rtt[:, cols]
                proposed[:, cols] = cls.batched_next(
                    current[:, cols], seen[:, cols], rtt_obs, params
                )
            else:
                rows_idx, cols_idx = index
                rtt_obs = (
                    placeholder
                    if placeholder is not None
                    else rtt[rows_idx, cols_idx]
                )
                proposed[rows_idx, cols_idx] = cls.batched_next(
                    current[rows_idx, cols_idx],
                    seen[rows_idx, cols_idx],
                    rtt_obs,
                    params,
                )
        # Same post-dispatch recheck as the fluid batch: a non-finite
        # window from any class freezes the whole scenario row.
        finite = np.isfinite(proposed).all(axis=1)
        if not finite.all():
            for row in np.nonzero(~finite)[0].tolist():
                failed.setdefault(row, t)
            proposed[~finite] = 1.0
        np.clip(proposed, min_w, max_w, out=current)
    return failed


def run_network_batch_kernel(
    inputs: NetBatchInputs,
    out: dict[str, np.ndarray] | None = None,
) -> NetBatchResult:
    """Advance every network scenario of ``inputs`` through all steps.

    ``out`` optionally supplies preallocated output arrays (keys
    ``windows``, ``flow_loss``, ``flow_rtts``, ``link_load``,
    ``link_loss`` with the shapes of :class:`NetBatchResult`) — the
    shared-memory scheduler passes views into its result buffers so
    chunk outputs need no pickling.
    """
    global _NET_KERNEL_CELLS
    steps = inputs.steps
    b, n = inputs.initial.shape
    n_links = inputs.n_links
    if out is None:
        out = {
            "windows": np.full((steps, b, n), np.nan),
            "flow_loss": np.empty((steps, b, n)),
            "flow_rtts": np.empty((steps, b, n)),
            "link_load": np.empty((steps, b, n_links)),
            "link_loss": np.empty((steps, b, n_links)),
        }
    windows_out = out["windows"]
    flow_loss_out = out["flow_loss"]
    flow_rtts_out = out["flow_rtts"]
    link_load_out = out["link_load"]
    link_loss_out = out["link_loss"]

    with timing.measure("batch.net_kernel"), np.errstate(
        over="ignore", invalid="ignore", divide="ignore"
    ):
        # Same clamp the serial engine applies to the initial windows.
        current = np.clip(
            inputs.initial, inputs.min_window[:, None], inputs.max_window[:, None]
        )
        failed = _advance_network_numpy(
            inputs,
            current,
            windows_out,
            flow_loss_out,
            flow_rtts_out,
            link_load_out,
            link_loss_out,
        )
    _NET_KERNEL_CELLS += b * steps

    return NetBatchResult(
        windows=windows_out,
        flow_loss=flow_loss_out,
        flow_rtts=flow_rtts_out,
        link_load=link_load_out,
        link_loss=link_loss_out,
        failed=failed,
    )
