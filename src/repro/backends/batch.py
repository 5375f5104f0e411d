"""One batch pipeline for the batched spec backends.

This module is the bridge between the executor (:mod:`repro.exec`) and
the stacked kernels — the fluid kernel in :mod:`repro.model.batch`, the
multi-link network kernel in :mod:`repro.netmodel.batch` and the
mean-field kernel in :mod:`repro.meanfield.batch`. Each of those
backends is described by one private *lane* record (:class:`_Lane`): how
a spec lowers to a batch row of named kernel inputs (or ``None`` to fall
back), the inputs built per group, the kernel and its cell counter, how
one row's trace is extracted, and the widths of the kernel's
shared-memory outputs. One pipeline drives every lane:

- the planners (:func:`plan_batches`, :func:`plan_network_batches`,
  :func:`plan_meanfield_batches`) lower each spec, group the rows that
  stack — equal shared inputs, equal column shapes — in first-appearance
  order (submission order within a group), and list everything else —
  stateful protocols, schedules, ECN, lowering failures, ... — as
  per-spec fallbacks;
- :func:`run_batched` runs a plan: one kernel call per group (or, for
  large groups with ``workers > 1``, the shared-memory chunk scheduler),
  then extracts each row's trace and runs the fallbacks through the
  serial engine.

The runner never touches the store: the executor probes it before
planning and archives the traces the runner returns.

The shared-memory scheduler replaces per-job pickling for batch results:
the parent allocates one ``multiprocessing.shared_memory`` buffer per
kernel output, workers advance disjoint row chunks of the batch and
write directly into the buffers, and only tiny failure maps travel back
over the pool. Chunk size is autotuned from the lane's measured kernel
throughput in :data:`repro.perf.timing.REGISTRY`. A lane that declares
no shared-memory outputs runs in-process: the mean-field kernel already
advances a whole sweep in one vectorized loop, so chunking buys nothing.
When the segments or the pool cannot be created, the group runs
in-process after a one-time warning naming the lane and the error.

Batched, chunked and serial execution all produce bit-identical traces;
a spec that fails mid-batch is rerun serially so callers see the exact
serial exception (or ``None`` with ``skip_errors=True``), and never
poisons the other rows. The packet backend has no stacked kernel: its
lane merges replications into shared event loops instead.

Lane records name their kernel module's inputs class, kernel, result
class and cell counter by attribute and resolve them at call time, and
reach the planners through this module's globals, so code that rebinds
those attributes (the benchmark tracer in ``perfbench/``) sees every
batched call.
"""

from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.backends.base import get_backend
from repro.backends.spec import ScenarioSpec
from repro.model.random_loss import BernoulliLoss, NoLoss
from repro.perf import store, timing

__all__ = [
    "BatchGroup",
    "BatchPlan",
    "autotune_chunk_rows",
    "plan_batches",
    "plan_meanfield_batches",
    "plan_network_batches",
    "run_batched",
]

#: Chunk size used before any kernel throughput has been measured.
_DEFAULT_CHUNK_ROWS = 64
#: Autotuning target: chunks sized to roughly this much kernel time, so
#: scheduling overhead stays small without starving the pool of work.
_TARGET_CHUNK_SECONDS = 0.25

#: Lanes that already warned about running a chunked group in-process.
_warned_in_process: set[str] = set()


@dataclass
class BatchGroup:
    """Specs one kernel call advances together.

    ``indices`` are the specs' positions in the planned list, ``rows``
    their lowered forms and ``inputs`` the stacked kernel inputs built
    from those rows.
    """

    indices: list[int] = field(default_factory=list)
    rows: list[_Row] = field(default_factory=list)
    inputs: Any = None


@dataclass
class BatchPlan:
    """The outcome of planning: kernel groups plus per-spec fallbacks."""

    groups: list[BatchGroup]
    fallback: list[int]


@dataclass
class _Row:
    """One spec's batch-eligible lowered form.

    Entries are named after the fields of the lane's kernel inputs:
    ``shared`` ones must agree across a group (see :func:`_stack_key`),
    each ``columns`` entry stacks along the batch axis as float64.
    ``protocols`` feed the cell table of the fluid and network kernels;
    ``extra`` is whatever else the lane's extraction needs.
    """

    shared: dict[str, Any]
    columns: dict[str, Any]
    protocols: list = field(default_factory=list)
    extra: Any = None


@dataclass(frozen=True)
class _Lane:
    """How one spec backend rides the batch pipeline.

    ``engine`` is the kernel module; ``inputs``, ``kernel``, ``result``
    and ``cells`` name its inputs class, its ``kernel(inputs, out=None)``
    function, the result class the shared-memory scheduler rebuilds from
    its buffers, and the scenario-steps counter the autotuner divides the
    ``section`` timing total by. ``tables`` adds the inputs built from a
    group as a whole. ``outputs`` names every kernel output with the
    inputs property giving its width (``None``: one value per row); the
    shared-memory buffers are ``(steps, rows[, width])``. A lane without
    ``outputs`` runs in-process.
    """

    backend: str
    plan: Callable[[list[ScenarioSpec]], BatchPlan]
    lower: Callable[[ScenarioSpec], _Row | None]
    tables: Callable[[list[_Row]], dict[str, Any]]
    extract: Callable[[Any, int, BatchGroup, ScenarioSpec], Any]
    engine: str
    inputs: str
    kernel: str
    result: str
    cells: str
    section: str
    outputs: dict[str, str | None] | None = None

    def engine_attr(self, name: str) -> Any:
        """Attribute ``name`` of the kernel module, looked up now."""
        return getattr(importlib.import_module(self.engine), name)


# ----------------------------------------------------------------------
# Lowering: spec -> batch row, or None to fall back per-spec
# ----------------------------------------------------------------------
def _stateless_feedback(
    protocols: Sequence, loss_process: Any, initial_windows: Sequence[float] | None
) -> dict[str, Any] | None:
    """The initial windows and random-loss rate the fluid and network
    kernels stack for a run, or ``None`` when they cannot express it.

    Both kernels need every protocol to opt into
    :meth:`~repro.protocols.base.Protocol.batched_next` with its instance
    state fully captured by ``batch_param_names``, a constant
    deterministic non-congestion loss (a missing process is the serial
    engines' ``NoLoss``), and one finite non-negative initial window per
    flow.
    """
    if loss_process is None or isinstance(loss_process, NoLoss):
        random_rate = 0.0
    elif isinstance(loss_process, BernoulliLoss) and loss_process.deterministic:
        random_rate = loss_process.p
    else:
        return None
    for protocol in protocols:
        cls = type(protocol)
        if not getattr(cls, "supports_batched", False):
            return None
        try:
            if set(vars(protocol)) != set(cls.batch_param_names):
                return None
        except TypeError:
            return None
    initial = (
        list(initial_windows) if initial_windows is not None else [1.0] * len(protocols)
    )
    if len(initial) != len(protocols):
        return None
    if not all(math.isfinite(w) and w >= 0 for w in initial):
        return None
    return {"initial": [float(w) for w in initial], "random_rate": float(random_rate)}


#: The link parameters the fluid and mean-field kernels take per row.
_LINK_COLUMNS = ("capacity", "bandwidth", "base_rtt", "pipe_limit", "timeout_rtt")


def _lower_fluid(spec: ScenarioSpec) -> _Row | None:
    """``spec``'s fluid-batch-eligible form, or ``None`` to fall back.

    On top of :func:`_stateless_feedback`, the fluid kernel needs the
    serial engine's vectorized-fast-path conditions: synchronized
    feedback (no unsynchronized loss, no ECN), real-valued windows and
    no scheduled events. Anything it cannot express — including a spec
    that fails to lower at all — runs serially instead, where it
    reproduces the exact serial behaviour (or the exact serial error).
    """
    try:
        link, protocols, config, steps = spec.lower_fluid()
    except Exception:
        return None
    if (
        not config.allow_vectorized
        or config.unsynchronized_loss
        or config.integer_windows
        or config.schedule.sender_starts
        or config.schedule.link_changes
        or link.marking_enabled
    ):
        return None
    feedback = _stateless_feedback(
        protocols, config.loss_process, config.initial_windows
    )
    if feedback is None:
        return None
    return _Row(
        shared={"steps": steps, "enforce_loss_based": config.enforce_loss_based},
        columns={
            **feedback,
            **{name: getattr(link, name) for name in _LINK_COLUMNS},
            "min_window": config.min_window,
            "max_window": config.max_window,
        },
        protocols=list(protocols),
    )


def _lower_network(spec: ScenarioSpec) -> _Row | None:
    """``spec``'s network-batch-eligible form, or ``None`` to fall back.

    On top of :func:`_stateless_feedback`: a valid topology with one
    protocol per flow and a sane clamp. Link parameters become per-column
    lists in link-name order, and ``base_rtts`` and ``timeout_caps`` are
    precomputed with the serial engine's own Python float sums (column
    order, left to right), so the kernel never re-derives them. Rows
    share topology *structure*, not link *names*: each keeps its own
    names (``extra``) so its trace matches the serial one field for
    field.
    """
    try:
        topology, protocols, kwargs, steps = spec.lower_network()
        topology.validate()
    except Exception:
        return None
    min_window, max_window = kwargs["min_window"], kwargs["max_window"]
    if len(protocols) != topology.n_flows or min_window < 0 or max_window < min_window:
        return None
    feedback = _stateless_feedback(
        protocols, kwargs["loss_process"], kwargs["initial_windows"]
    )
    if feedback is None:
        return None
    link_names = list(topology.links)
    column = {name: i for i, name in enumerate(link_names)}
    links = [topology.links[name] for name in link_names]
    paths = tuple(tuple(column[name] for name in path) for path in topology.paths)
    per_link = ("capacity", "bandwidth", "buffer_size", "pipe_limit")
    return _Row(
        shared={
            "steps": steps,
            "paths": paths,
            "enforce_loss_based": kwargs["enforce_loss_based"],
        },
        columns={
            **feedback,
            **{name: [getattr(link, name) for link in links] for name in per_link},
            "base_rtts": [
                float(topology.base_rtt_of(j)) for j in range(topology.n_flows)
            ],
            "timeout_caps": [
                float(2 * sum(links[col].full_buffer_rtt() for col in cols))
                for cols in paths
            ],
            "min_window": min_window,
            "max_window": max_window,
        },
        protocols=list(protocols),
        extra=link_names,
    )


def _lower_meanfield(spec: ScenarioSpec) -> _Row | None:
    """``spec``'s mean-field-batch-eligible form, or ``None``.

    The stacked kernel advances one density per scenario, so only
    single-group scenarios qualify (multi-protocol mixes keep their
    per-group serial loop); AQM marking stays serial too — the batch
    step hard-codes the zero mark fraction of a droptail link. Building
    the group state here also front-loads every precondition error
    (trigger separation, non-finite branch images): a spec that fails
    falls back and reproduces the exact serial exception.
    """
    from repro.meanfield.dynamics import _GroupState

    try:
        scenario = spec.lower_meanfield()
        if len(scenario.groups) != 1 or scenario.link.marking_enabled:
            return None
        grid = scenario.resolved_grid()
        state = _GroupState(
            scenario.groups[0], grid, scenario.min_window, scenario.max_window
        )
    except Exception:
        return None
    return _Row(
        shared={
            "steps": scenario.steps,
            "synchronized": scenario.synchronized,
            "op": state.trigger_op,
        },
        columns={
            **{name: getattr(scenario.link, name) for name in _LINK_COLUMNS},
            "thresholds": state.trigger_threshold,
            "points": grid.points(),
            "mass": state.mass,
            "populations": state.population,
            "random_rate": scenario.random_loss_rate,
        },
        extra=(grid, scenario.link, state),
    )


# ----------------------------------------------------------------------
# Building kernel inputs from a group's rows
# ----------------------------------------------------------------------
def _build(lane: _Lane, rows: list[_Row]) -> Any:
    """Stack a group's rows into the lane's kernel inputs.

    Shared entries come from the first row (the group key makes them
    agree), every column stacks into one float64 array along the batch
    axis, and the lane's ``tables`` add what is built per group.
    """
    first = rows[0]
    columns = {
        name: np.array([row.columns[name] for row in rows], dtype=float)
        for name in first.columns
    }
    inputs_cls = lane.engine_attr(lane.inputs)
    return inputs_cls(**first.shared, **columns, **lane.tables(rows))


def _cell_table(rows: list[_Row]) -> dict[str, Any]:
    """The cell-table protocol encoding of the fluid and network kernels.

    The class table collects the distinct protocol classes in
    first-appearance order (scanning scenarios in submission order, flows
    left to right — deterministic, so identical grids always produce
    identical tables). The merged parameter table unions every class's
    ``batch_param_names``; a cell's entry for a name its class does not
    define stays NaN and is never gathered by the kernel's dispatch.
    """
    b, n = len(rows), len(rows[0].protocols)
    class_table: list[type] = []
    table_index: dict[type, int] = {}
    cell_classes = np.empty((b, n), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, protocol in enumerate(row.protocols):
            cls = type(protocol)
            if cls not in table_index:
                table_index[cls] = len(class_table)
                class_table.append(cls)
            cell_classes[i, j] = table_index[cls]
    names = sorted({name for cls in class_table for name in cls.batch_param_names})
    cell_params = {name: np.full((b, n), np.nan) for name in names}
    for i, row in enumerate(rows):
        for j, protocol in enumerate(row.protocols):
            for name in type(protocol).batch_param_names:
                cell_params[name][i, j] = getattr(protocol, name)
    return {
        "class_table": tuple(class_table),
        "cell_classes": cell_classes,
        "cell_params": cell_params,
    }


def _density_tables(rows: list[_Row]) -> dict[str, Any]:
    """The mean-field kernel's stacked branch plans and mass supports."""
    from repro.meanfield.batch import mass_support, stack_plans

    states = [row.extra[2] for row in rows]
    plans_lo, plans_hi = stack_plans(
        [state.growth_plan for state in states],
        [state.decrease_plan for state in states],
    )
    supports = [mass_support(state.mass) for state in states]
    return {
        "plans_lo": plans_lo,
        "plans_hi": plans_hi,
        "supp_start": np.array([s[0] for s in supports], dtype=np.int64),
        "supp_len": np.array([s[1] for s in supports], dtype=np.int64),
    }


# ----------------------------------------------------------------------
# Extracting one row's trace from a kernel result
# ----------------------------------------------------------------------
def _extract_fluid(result, pos: int, group: BatchGroup, spec: ScenarioSpec):
    inputs = group.inputs
    return store.extract_batch_trace(
        result,
        pos,
        capacity=float(inputs.capacity[pos]),
        pipe_limit=float(inputs.pipe_limit[pos]),
        base_rtt=float(inputs.base_rtt[pos]),
    )


def _extract_network(result, pos: int, group: BatchGroup, spec: ScenarioSpec):
    """Row ``pos`` as the serial engine's NetworkTrace, then unified."""
    from repro.backends.trace import from_network_trace
    from repro.netmodel.trace import NetworkTrace

    net = NetworkTrace(
        windows=result.windows[:, pos].copy(),
        flow_loss=result.flow_loss[:, pos].copy(),
        flow_rtts=result.flow_rtts[:, pos].copy(),
        link_load=result.link_load[:, pos].copy(),
        link_loss=result.link_loss[:, pos].copy(),
        link_names=list(group.rows[pos].extra),
        base_rtts=group.inputs.base_rtts[pos].copy(),
    )
    return from_network_trace(net, spec.link, backend="network")


def _extract_meanfield(result, pos: int, group: BatchGroup, spec: ScenarioSpec):
    """Row ``pos`` as the serial engine's single-group MeanFieldResult."""
    from repro.backends.trace import from_meanfield_result
    from repro.meanfield.dynamics import MeanFieldResult

    grid, link, state = group.rows[pos].extra
    mf = MeanFieldResult(
        grid=grid,
        link=link,
        populations=np.array([state.population], dtype=float),
        group_names=[state.protocol.name],
        mean_windows=result.mean_windows[:, pos : pos + 1].copy(),
        observed_loss=result.observed_loss[:, pos : pos + 1].copy(),
        congestion_loss=result.congestion_loss[:, pos].copy(),
        rtts=result.rtts[:, pos].copy(),
        masses=[result.masses[pos].copy()],
    )
    return from_meanfield_result(mf, backend="meanfield")


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _stack_key(row: _Row) -> tuple:
    """Rows stack when their shared inputs agree and every column has
    the same shape — flow, link or cell count among them."""
    return (*row.shared.values(), *(np.shape(v) for v in row.columns.values()))


def _plan(
    lane: _Lane, specs: Sequence[ScenarioSpec], indices: Sequence[int] | None
) -> BatchPlan:
    """Lower ``specs[indices]`` and group the rows that stack together."""
    if indices is None:
        indices = range(len(specs))
    grouped: dict[tuple, BatchGroup] = {}
    fallback: list[int] = []
    with timing.measure("batch.plan"):
        for index in indices:
            row = lane.lower(specs[index])
            if row is None:
                fallback.append(index)
                continue
            group = grouped.setdefault(_stack_key(row), BatchGroup())
            group.indices.append(index)
            group.rows.append(row)
        for group in grouped.values():
            group.inputs = _build(lane, group.rows)
    return BatchPlan(groups=list(grouped.values()), fallback=fallback)


def plan_batches(
    specs: Sequence[ScenarioSpec],
    indices: Sequence[int] | None = None,
) -> BatchPlan:
    """Group ``specs`` (or the subset named by ``indices``) for the fluid kernel.

    Specs batch together when they share the flow count, the horizon,
    and loss-based enforcement; everything per-scenario beyond that —
    link parameters, protocol *classes* (via the kernel's per-cell
    dispatch table), protocol parameters, initial windows, clamps,
    random loss rate — varies along the batch axis. A singleton group is
    simply a batch of one.
    """
    return _plan(_LANES["fluid"], specs, indices)


def plan_network_batches(
    specs: Sequence[ScenarioSpec],
    indices: Sequence[int] | None = None,
) -> BatchPlan:
    """Group ``specs`` (or the subset ``indices``) for the network kernel.

    Specs batch together when they share the topology *structure* — flow
    count, link count, the flow-to-column path map — plus the horizon
    and loss-based enforcement. Link names and parameters, protocol
    classes and constants, initial windows, clamps and random loss rates
    all vary along the batch axis.
    """
    return _plan(_LANES["network"], specs, indices)


def plan_meanfield_batches(
    specs: Sequence[ScenarioSpec],
    indices: Sequence[int] | None = None,
) -> BatchPlan:
    """Group ``specs`` (or the subset ``indices``) for the stacked kernel.

    Specs batch together when they share the cell count, the horizon,
    the feedback mode and the trigger comparator; each row keeps its own
    grid (resolution and span), branch plans, link parameters, trigger
    threshold, population and random loss rate.
    """
    return _plan(_LANES["meanfield"], specs, indices)


_LANES: dict[str, _Lane] = {
    lane.backend: lane
    for lane in (
        _Lane(
            backend="fluid",
            plan=lambda specs: plan_batches(specs),
            lower=_lower_fluid,
            tables=_cell_table,
            extract=_extract_fluid,
            engine="repro.model.batch",
            inputs="BatchInputs",
            kernel="run_batch_kernel",
            result="BatchResult",
            cells="kernel_cells",
            section="batch.kernel",
            outputs={
                "windows": "n_senders",
                "observed_loss": None,
                "congestion_loss": None,
                "rtts": None,
            },
        ),
        _Lane(
            backend="network",
            plan=lambda specs: plan_network_batches(specs),
            lower=_lower_network,
            tables=_cell_table,
            extract=_extract_network,
            engine="repro.netmodel.batch",
            inputs="NetBatchInputs",
            kernel="run_network_batch_kernel",
            result="NetBatchResult",
            cells="net_kernel_cells",
            section="batch.net_kernel",
            outputs={
                "windows": "n_senders",
                "flow_loss": "n_senders",
                "flow_rtts": "n_senders",
                "link_load": "n_links",
                "link_loss": "n_links",
            },
        ),
        _Lane(
            backend="meanfield",
            plan=lambda specs: plan_meanfield_batches(specs),
            lower=_lower_meanfield,
            tables=_density_tables,
            extract=_extract_meanfield,
            engine="repro.meanfield.batch",
            inputs="MeanFieldBatchInputs",
            kernel="run_meanfield_batch_kernel",
            result="MeanFieldBatchResult",
            cells="meanfield_kernel_cells",
            section="batch.meanfield_kernel",
        ),
    )
}

# ----------------------------------------------------------------------
# Execution: in-process kernel or shared-memory chunk scheduler
# ----------------------------------------------------------------------
def autotune_chunk_rows(steps: int, backend: str = "fluid") -> int:
    """Rows per chunk targeting ~``_TARGET_CHUNK_SECONDS`` of kernel time.

    Uses the measured throughput of ``backend``'s previous kernel calls
    (its lane's timing section in :data:`repro.perf.timing.REGISTRY`
    over its kernel's cell counter); before any measurement exists, a
    fixed default applies.
    """
    lane = _LANES[backend]
    cells = lane.engine_attr(lane.cells)()
    spent = timing.REGISTRY.total(lane.section)
    if cells <= 0 or spent <= 0.0:
        return _DEFAULT_CHUNK_ROWS
    seconds_per_cell = spent / cells
    rows = int(_TARGET_CHUNK_SECONDS / max(seconds_per_cell * steps, 1e-12))
    return max(1, min(rows, 4096))


def _kernel_chunk(
    backend: str,
    shm_names: dict[str, str],
    shapes: dict[str, tuple[int, ...]],
    chunk: Any,
    lo: int,
    hi: int,
) -> dict[int, int]:
    """Worker: advance rows ``lo:hi`` of a lane's batch into the shared buffers.

    The worker receives the lane's name and looks the lane up itself
    (its callables do not pickle). Only the (typically empty) failure map
    is returned through the pool; all array output lands in shared
    memory, which is the point.

    Write-safety contract (statically enforced by lint rules REP701/702):
    nothing synchronizes sibling workers, so every access to an array
    built over a shared segment must go through a ``[lo:hi]`` slice on
    the row axis whose bounds are the pristine ``lo``/``hi`` parameters
    the planner assigned — never the whole array, never arithmetic on
    the bounds, and never rows another worker owns.
    """
    from multiprocessing import shared_memory

    lane = _LANES[backend]
    segments = []
    try:
        out: dict[str, np.ndarray] = {}
        for name, shm_name in shm_names.items():
            shm = shared_memory.SharedMemory(name=shm_name)
            segments.append(shm)
            full = np.ndarray(shapes[name], dtype=np.float64, buffer=shm.buf)
            out[name] = full[:, lo:hi]
        result = lane.engine_attr(lane.kernel)(chunk, out=out)
        failed = {lo + row: step for row, step in result.failed.items()}
        # Drop every view into the buffers before closing the segments.
        del result, out, full
        return failed
    finally:
        for shm in segments:
            try:
                shm.close()
            except BufferError:
                pass  # released at worker exit


def _run_group(
    lane: _Lane,
    inputs: Any,
    workers: int | None,
    chunk_rows: int | None,
    positions: list[int],
) -> Any:
    """Run one group: chunked over shared memory when it pays, else inline.

    With ``workers > 1`` and more rows than one chunk, row chunks go to a
    process pool that writes into shared-memory buffers; when shared
    memory or a pool is unavailable on this platform the kernel runs
    in-process instead, after a one-time warning per lane that names the
    error. The result is bit-identical either way: chunks
    are disjoint row ranges of the same elementwise recurrence.
    ``positions`` are the group rows' submission positions, which a dead
    worker's error names. The parent may touch the buffers freely — the
    REP7xx chunk discipline binds only workers (functions that *attach*
    segments); this function *creates* them and only reads the arrays
    back after every future has resolved.
    """
    kernel = lane.engine_attr(lane.kernel)
    b = inputs.batch_size
    if lane.outputs is None or workers is None or workers <= 1 or b <= 1:
        return kernel(inputs)
    if chunk_rows is None:
        chunk_rows = autotune_chunk_rows(inputs.steps, lane.backend)
    if b <= chunk_rows:
        return kernel(inputs)

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import shared_memory

    shapes = {
        name: (inputs.steps, b) + (() if width is None else (getattr(inputs, width),))
        for name, width in lane.outputs.items()
    }
    segments: dict[str, Any] = {}
    try:
        try:
            for name, shape in shapes.items():
                segments[name] = shared_memory.SharedMemory(
                    create=True, size=max(int(np.prod(shape)) * 8, 1)
                )
            chunks = [(lo, min(lo + chunk_rows, b)) for lo in range(0, b, chunk_rows)]
            pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))
        except (OSError, ValueError, RuntimeError) as exc:
            if lane.backend not in _warned_in_process:
                _warned_in_process.add(lane.backend)
                warnings.warn(
                    f"{lane.backend} lane: shared-memory chunk scheduler "
                    f"unavailable ({type(exc).__name__}: {exc}); running "
                    "the batch in-process",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return kernel(inputs)
        shm_names = {name: seg.name for name, seg in segments.items()}
        failed: dict[int, int] = {}
        with timing.measure("batch.scheduler"), pool:
            futures = [
                pool.submit(
                    _kernel_chunk,
                    lane.backend,
                    shm_names,
                    shapes,
                    inputs.rows(lo, hi),
                    lo,
                    hi,
                )
                for lo, hi in chunks
            ]
            for (lo, hi), future in zip(chunks, futures):
                try:
                    failed.update(future.result())
                except BrokenProcessPool as exc:
                    specs = ", ".join(str(p) for p in positions[lo:hi])
                    raise BrokenProcessPool(
                        f"{lane.backend} lane: the chunk worker for batch rows "
                        f"{lo}:{hi} died (specs at submission positions {specs})"
                    ) from exc
        arrays = {
            name: np.ndarray(shapes[name], dtype=np.float64, buffer=seg.buf).copy()
            for name, seg in segments.items()
        }
        return lane.engine_attr(lane.result)(failed=failed, **arrays)
    finally:
        for seg in segments.values():
            try:
                seg.close()
                seg.unlink()
            except (BufferError, FileNotFoundError, OSError):
                pass


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_batched(
    specs: Sequence[ScenarioSpec],
    backend: str = "fluid",
    *,
    positions: Sequence[int] | None = None,
    skip_errors: bool = False,
    workers: int | None = None,
    chunk_rows: int | None = None,
) -> list:
    """Run every spec on ``backend``'s batched lane, in spec order.

    Results are :class:`~repro.backends.trace.UnifiedTrace` objects,
    bit-identical to ``run_spec(spec, backend)`` for every spec whichever
    path — batch kernel, chunked kernel, or serial fallback — produced
    it. The store is neither read nor written (the executor does both).
    ``positions`` are the specs' places in the caller's submission, which
    errors name (default: their indices in ``specs``). With
    ``skip_errors`` a failing spec yields ``None`` instead of raising;
    other specs are unaffected either way. ``workers`` and
    ``chunk_rows`` drive the shared-memory chunk scheduler
    (:func:`autotune_chunk_rows` picks the rows when ``None``).
    """
    specs = list(specs)
    if backend == "packet":
        results, serial = _run_packet(specs)
    else:
        lane = _LANES[backend]
        if positions is None:
            positions = range(len(specs))
        results = [None] * len(specs)
        plan = lane.plan(specs)
        serial = list(plan.fallback)
        for group in plan.groups:
            result = _run_group(
                lane,
                group.inputs,
                workers,
                chunk_rows,
                [positions[index] for index in group.indices],
            )
            for pos, index in enumerate(group.indices):
                if pos in result.failed:
                    # Recompute serially to raise the exact serial error.
                    serial.append(index)
                else:
                    results[index] = lane.extract(result, pos, group, specs[index])
    engine = get_backend(backend)
    for index in sorted(serial):
        try:
            results[index] = engine.run(specs[index])
        except Exception:
            if not skip_errors:
                raise
    return results


def _run_packet(specs: list[ScenarioSpec]) -> tuple[list, list[int]]:
    """The packet backend's lane: merged event loops, not a stacked kernel.

    Specs lower to :class:`~repro.packetsim.scenario.PacketScenario`
    objects and run through
    :func:`repro.packetsim.batch.run_scenarios_batched`, which merges
    replications sharing a link and duration into one event loop; traces
    are bit-identical to ``run_spec(spec, "packet")``. A spec the packet
    backend cannot
    express is left to the serial engine, which raises its exact
    lowering error.
    """
    from repro.backends.trace import from_packet_result
    from repro.packetsim import batch

    results: list = [None] * len(specs)
    pending: list[int] = []
    serial: list[int] = []
    scenarios: list = []
    for i, spec in enumerate(specs):
        try:
            scenarios.append(spec.lower_packet())
        except Exception:
            serial.append(i)
            continue
        pending.append(i)
    for i, result in zip(pending, batch.run_scenarios_batched(scenarios)):
        results[i] = from_packet_result(result, backend="packet")
    return results, serial
