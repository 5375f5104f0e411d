"""One batch pipeline for the batched spec backends.

This module is the bridge between the executor (:mod:`repro.exec`) and
the stacked kernels — the fluid kernel in :mod:`repro.model.batch`, the
multi-link network kernel in :mod:`repro.netmodel.batch` and the
mean-field kernel in :mod:`repro.meanfield.batch`. Each of those
backends is described by one private *lane* record (:class:`_Lane`): how
a spec lowers to a batch row of named kernel inputs (or ``None`` to fall
back), the inputs built per group, the kernel, and how one row's trace
is extracted. One pipeline drives every lane:

- the planners (:func:`plan_batches`, :func:`plan_network_batches`,
  :func:`plan_meanfield_batches`) lower each spec, group the rows that
  stack — equal shared inputs, equal column shapes — in first-appearance
  order (submission order within a group), and list everything else —
  stateful protocols, schedules, ECN, lowering failures, ... — as
  per-spec fallbacks. The fluid lane takes exactly the runs whose
  windows step as array rows: :func:`synchronized_stateless` decides;
- :func:`run_batched` runs a plan: one in-process kernel call per group,
  then extracts each row's trace and runs the fallbacks through the
  serial engine.

The runner never touches the store: the executor probes it before
planning and archives the traces the runner returns.

Batched and serial execution produce bit-identical traces; a spec that
fails mid-batch is rerun serially so callers see the exact serial
exception (raised, or left in its slot with ``skip_errors=True``), and
never poisons the other rows. The packet backend has no stacked kernel:
the executor's scenario lane lowers its specs and merges them into
shared event loops (:mod:`repro.packetsim.batch`).

Lane records name their kernel module's inputs class and kernel by
attribute and resolve them at call time, and reach the planners through
this module's globals, so code that rebinds those attributes (the
benchmark tracer in ``perfbench/``) sees every batched call.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.backends.base import run_on
from repro.backends.spec import ScenarioSpec
from repro.model.dynamics import SimulationConfig, check_window_clamp
from repro.model.link import Link
from repro.perf import store, timing
from repro.protocols.base import Protocol

__all__ = [
    "BatchGroup",
    "BatchPlan",
    "plan_batches",
    "plan_meanfield_batches",
    "plan_network_batches",
    "run_batched",
]


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

    ``engine`` is the kernel module; ``inputs`` and ``kernel`` name its
    inputs class and its ``kernel(inputs)`` function. ``tables`` adds
    the inputs built from a group as a whole.
    """

    backend: str
    plan: Callable[[list[ScenarioSpec]], BatchPlan]
    lower: Callable[[ScenarioSpec], _Row | None]
    tables: Callable[[list[_Row]], dict[str, Any]]
    extract: Callable[[Any, int, BatchGroup, ScenarioSpec], Any]
    engine: str
    inputs: str
    kernel: str

    def engine_attr(self, name: str) -> Any:
        """Attribute ``name`` of the kernel module, looked up now."""
        return getattr(importlib.import_module(self.engine), name)


# ----------------------------------------------------------------------
# Lowering: spec -> batch row, or None to fall back per-spec
# ----------------------------------------------------------------------
def stateless(protocols: Sequence[Protocol]) -> bool:
    """Whether every window update of a run is a pure map of the step's
    feedback: each protocol's class implements
    :meth:`~repro.protocols.base.Protocol.batched_next` and the instance
    holds exactly its ``batch_param_names``.
    """
    for protocol in protocols:
        cls = type(protocol)
        if not getattr(cls, "supports_batched", False):
            return False
        try:
            if set(vars(protocol)) != set(cls.batch_param_names):
                return False
        except TypeError:
            return False
    return True


def synchronized_stateless(
    link: Link, protocols: Sequence[Protocol], config: SimulationConfig
) -> bool:
    """Whether a fluid run's windows can step as rows of the batch kernel.

    The run must be stateless (:func:`stateless`) and its feedback
    synchronized: no unsynchronized loss, no ECN marking, no scheduled
    starts or link changes, and real-valued windows. Any random loss rate
    qualifies: it is one constant for every sender and step.
    """
    schedule = config.schedule
    if (
        config.unsynchronized_loss
        or config.integer_windows
        or schedule.sender_starts
        or schedule.link_changes
        or link.marking_enabled
    ):
        return False
    return stateless(protocols)


def _stateless_feedback(
    protocols: Sequence, random_rate: float, initial_windows: Sequence[float] | None
) -> dict[str, Any] | None:
    """The initial windows and random-loss rate the fluid and network
    kernels stack for a run, or ``None`` when they cannot express it.

    Both kernels need a stateless run (:func:`stateless`) and one finite
    non-negative initial window per flow.
    """
    if not stateless(protocols):
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

    The fluid kernel runs any :func:`synchronized_stateless` run, of any
    mix of protocol classes and any flow count. Anything it cannot
    express — including a spec that fails to lower at all — runs on the
    serial engine's general loop instead, where it reproduces the exact
    serial behaviour (or the exact serial error).
    """
    try:
        link, protocols, config, steps = spec.lower_fluid()
    except Exception:
        return None
    if not synchronized_stateless(link, protocols, config):
        return None
    feedback = _stateless_feedback(
        protocols, config.random_loss_rate, config.initial_windows
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
        min_window, max_window = kwargs["min_window"], kwargs["max_window"]
        check_window_clamp(min_window, max_window)
    except Exception:
        return None
    if len(protocols) != topology.n_flows:
        return None
    feedback = _stateless_feedback(
        protocols, kwargs["random_loss_rate"], kwargs["initial_windows"]
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
        ),
    )
}


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_batched(
    specs: Sequence[ScenarioSpec],
    backend: str = "fluid",
    *,
    skip_errors: bool = False,
) -> list:
    """Run every spec on ``backend``'s batched lane, in spec order.

    ``backend`` is one with a stacked kernel: fluid, network or
    mean-field; any other is a :class:`ValueError`. Results are
    :class:`~repro.backends.trace.UnifiedTrace` objects, bit-identical to
    ``run_spec(spec, backend)`` for every spec whichever path — batch
    kernel or serial fallback — produced it. The store is neither read
    nor written (the executor does both). With ``skip_errors`` a failing
    spec's slot holds the exception its serial run raised instead of
    raising it; other specs are unaffected either way.
    """
    lane = _LANES.get(backend)
    if lane is None:
        raise ValueError(
            f"backend {backend!r} has no stacked kernel; run_batched serves "
            f"{', '.join(sorted(_LANES))}"
        )
    specs = list(specs)
    results: list = [None] * len(specs)
    plan = lane.plan(specs)
    serial = list(plan.fallback)
    for group in plan.groups:
        result = lane.engine_attr(lane.kernel)(group.inputs)
        for pos, index in enumerate(group.indices):
            if pos in result.failed:
                # Recompute serially to raise the exact serial error.
                serial.append(index)
            else:
                results[index] = lane.extract(result, pos, group, specs[index])
    for index in sorted(serial):
        try:
            results[index] = run_on(backend, specs[index])
        except Exception as exc:
            if not skip_errors:
                raise
            results[index] = exc
    return results
