"""Per-layer spans recorded from outside the program.

:meth:`Tracer.install` wraps each layer's public boundary functions (the
table in ``NOTES.md``) and rebinds every module attribute that refers to
them, so callers that imported a function by name (``from
repro.model.batch import run_batch_kernel``) go through the wrapper too.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores every
binding.

A span is ``[group, start, end, parent]``, kept per thread in memory and
written out by :meth:`Tracer.dump` when a traced phase ends. A group's
self time is the duration of its spans minus the time their child spans
cover (:func:`layer_metrics`). The clock is the tracer's: wall time for
the single-threaded artifact process, the calling thread's CPU time for
``repro serve`` and its clients, whose threads share one CPU (a wall-clock
span there would also count the time other threads held it). Counts come
from the program's own counters (``Executor.snapshot()``,
``kernel_cells()``, ``EventScheduler.processed_events``, the index record
each store write appends) read at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import sys
import threading
import time
from collections import Counter

#: Every module the benchmarked passes touch. Importing them before
#: :meth:`Tracer.install` is what lets the identity scan find by-name imports.
RUN_MODULES = (
    "repro.experiments",
    "repro.exec",
    "repro.exec.serve",
    "repro.exec.wire",
    "repro.exec.client",
    "repro.backends",
    "repro.backends.batch",
    "repro.model.batch",
    "repro.netmodel.batch",
    "repro.meanfield.batch",
    "repro.packetsim.batch",
    "repro.perf.store",
    "repro.perf.packet_cache",
)

#: (group, module, function) for plain functions; ``core`` is added by
#: :func:`_core_functions`.
FUNCTIONS = [
    ("experiments", "repro.experiments.table1", "run_table1"),
    ("experiments", "repro.experiments.figure1", "run_figure1"),
    ("experiments", "repro.experiments.table2", "run_table2"),
    ("experiments", "repro.experiments.claims", "run_claims"),
    ("experiments", "repro.experiments.emulab", "run_emulab"),
    ("experiments", "repro.experiments.fct", "run_fct_study"),
    ("analysis", "repro.analysis.dominance", "pareto_front"),
    ("exec.wire.encode", "repro.exec.wire", "encode_trace"),
    ("exec.wire.decode", "repro.exec.wire", "decode_trace"),
    ("backends.plan", "repro.backends.batch", "plan_batches"),
    ("backends.plan", "repro.backends.batch", "plan_network_batches"),
    ("backends.plan", "repro.backends.batch", "plan_meanfield_batches"),
    ("backends.extract", "repro.perf.store", "extract_batch_trace"),
    ("backends.extract", "repro.backends.trace", "from_fluid_trace"),
    ("backends.extract", "repro.backends.trace", "from_network_trace"),
    ("backends.extract", "repro.backends.trace", "from_meanfield_result"),
    ("backends.extract", "repro.backends.trace", "from_packet_result"),
    ("model.kernel", "repro.model.batch", "run_batch_kernel"),
    ("netmodel.kernel", "repro.netmodel.batch", "run_network_batch_kernel"),
    ("meanfield.kernel", "repro.meanfield.batch", "run_meanfield_batch_kernel"),
    ("packetsim.run", "repro.packetsim.batch", "run_scenarios_batched"),
    ("packetsim.run", "repro.packetsim.batch", "run_workloads_batched"),
    ("packetsim.run", "repro.packetsim.scenario", "run_scenario"),
    ("packetsim.run", "repro.packetsim.workload", "run_workload"),
    ("perf.key", "repro.perf.store", "unified_key"),
    ("perf.key", "repro.perf.cache", "simulation_key"),
    ("perf.key", "repro.perf.packet_cache", "scenario_key"),
    ("perf.key", "repro.perf.packet_cache", "workload_key"),
]

#: (group, module, class, method) for methods.
METHODS = [
    ("exec.submit", "repro.exec.executor", "Executor", "submit"),
    ("backends.lower", "repro.backends.spec", "ScenarioSpec", "lower_fluid"),
    ("backends.lower", "repro.backends.spec", "ScenarioSpec", "lower_network"),
    ("backends.lower", "repro.backends.spec", "ScenarioSpec", "lower_packet"),
    ("backends.lower", "repro.backends.spec", "ScenarioSpec", "lower_meanfield"),
    ("model.serial", "repro.model.dynamics", "FluidSimulator", "run"),
    ("netmodel.serial", "repro.netmodel.dynamics", "NetworkFluidSimulator", "run"),
    ("meanfield.serial", "repro.meanfield.dynamics", "MeanFieldSimulator", "run"),
    ("perf.get", "repro.perf.cache", "TraceCache", "get"),
    ("perf.get", "repro.perf.cache", "TraceCache", "get_arrays"),
    ("perf.put", "repro.perf.cache", "TraceCache", "put"),
    ("perf.put", "repro.perf.cache", "TraceCache", "put_arrays"),
]

#: The program's own kernel work counters (scenario-steps advanced).
CELL_COUNTERS = {
    "model": ("repro.model.batch", "kernel_cells"),
    "netmodel": ("repro.netmodel.batch", "net_kernel_cells"),
    "meanfield": ("repro.meanfield.batch", "meanfield_kernel_cells"),
}


def import_run_modules() -> None:
    for name in RUN_MODULES:
        importlib.import_module(name)


def _core_functions() -> list[tuple[str, str, str]]:
    """``core``: metric estimators/reducers, Table 1 rows, the Figure 1 surface."""
    found = []
    package = importlib.import_module("repro.core.metrics")
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and (name.startswith("estimate_") or name.endswith("_from_trace"))
            ):
                found.append(("core", module.__name__, name))
    table1 = importlib.import_module("repro.core.theory.table1")
    for name, value in vars(table1).items():
        if (
            inspect.isfunction(value)
            and value.__module__ == table1.__name__
            and (name.endswith("_row") or name == "paper_table1")
        ):
            found.append(("core", table1.__name__, name))
    found.append(("core", "repro.core.theory.pareto", "figure1_surface"))
    return found


def _repro_modules():
    return [
        module for module in list(sys.modules.values())
        if module is not None and module.__name__.startswith("repro")
    ]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.spans: list[list] | None = None
        self.counts: Counter | None = None
        self.stack: list[int] = []


class Tracer:
    """Spans and counters for one traced process, timed by ``clock``."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._threads: list[tuple[list[list], Counter]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = self._local
        if state.spans is None:
            state.spans = []
            state.counts = Counter()
            with self._lock:
                self._threads.append((state.spans, state.counts))
        return state

    def _wrap(self, group: str, fn, hook=None):
        state_of = self._state
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            spans = state.spans
            index = len(spans)
            span = [group, 0.0, 0.0, state.stack[-1] if state.stack else -1]
            spans.append(span)
            state.stack.append(index)
            token = hook.before(state) if hook is not None else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                state.stack.pop()
            if hook is not None:
                hook.after(state, token, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary, rebinding by-name imports across ``repro``."""
        import_run_modules()
        wrappers: dict[int, tuple[object, object]] = {}
        for group, module_name, name in FUNCTIONS + _core_functions():
            original = getattr(importlib.import_module(module_name), name)
            if id(original) not in wrappers:
                wrapped = self._wrap(group, original, _HOOKS.get(name))
                wrappers[id(original)] = (original, wrapped)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        for group, module_name, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            hook = _HOOKS.get(group) or _HOOKS.get(f"{cls_name}.{method}")
            self._patch(cls, method, self._wrap(group, vars(cls)[method], hook))
        scheduler = importlib.import_module("repro.packetsim.engine").EventScheduler
        self._patch(scheduler, "run_until", self._count_events(scheduler.run_until))
        cache = importlib.import_module("repro.perf.cache").TraceCache
        self._patch(cache, "index_append", self._count_writes(cache.index_append))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def unpatched_bindings(self) -> list[str]:
        """``repro`` attributes still bound to a wrapped function's original.

        Non-empty means a module imported after :meth:`install` (add it to
        :data:`RUN_MODULES`): its calls bypass the spans.
        """
        originals = {
            id(original): original
            for owner, _attr, original in self._patches
            if not isinstance(owner, type)
        }
        return [
            f"{module.__name__}.{attr}"
            for module in _repro_modules()
            for attr, value in list(vars(module).items())
            if id(value) in originals and originals[id(value)] is value
        ]

    def _count_events(self, run_until):
        state_of = self._state

        @functools.wraps(run_until)
        def wrapper(scheduler, *args, **kwargs):
            before = scheduler.processed_events
            try:
                return run_until(scheduler, *args, **kwargs)
            finally:
                state_of().counts["packetsim.events"] += (
                    scheduler.processed_events - before
                )

        return wrapper

    def _count_writes(self, index_append):
        state_of = self._state

        @functools.wraps(index_append)
        def wrapper(cache, key, kind, nbytes):
            state_of().counts["perf.store.write_bytes"] += int(nbytes)
            return index_append(cache, key, kind, nbytes)

        return wrapper

    # ------------------------------------------------------------------
    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write out every span and count recorded so far, then drop them.

        Call only while no wrapped call is in flight.
        """
        with self._lock:
            threads = [
                {"spans": list(spans), "counts": dict(counts)}
                for spans, counts in self._threads
            ]
            for spans, counts in self._threads:
                spans.clear()
                counts.clear()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"threads": threads, "extra": extra or {}}, handle)


# ----------------------------------------------------------------------
# Boundary hooks: counts taken around a wrapped call
# ----------------------------------------------------------------------
class _Hook:
    def before(self, state):
        return None

    def after(self, state, token, args, kwargs, result) -> None:
        pass


class _SubmitHook(_Hook):
    def after(self, state, token, args, kwargs, result) -> None:
        jobs = args[1] if len(args) > 1 else kwargs["jobs"]
        if isinstance(jobs, (list, tuple)):
            state.counts["exec.keyed_jobs"] += sum(
                1 for job in jobs if type(job).__name__ != "CallJob"
            )


class _GetHook(_Hook):
    def after(self, state, token, args, kwargs, result) -> None:
        counts = state.counts
        spans = state.spans
        if any(spans[i][0] == "exec.submit" for i in state.stack):
            counts["exec.store_reads"] += 1
        if result is None:
            return
        counts["perf.store.hits"] += 1
        cache, key = args[0], args[1]
        try:
            counts["perf.store.read_bytes"] += os.stat(cache._path(key)).st_size
        except OSError:
            pass


class _SerialRunHook(_Hook):
    """Counts flow-steps of fluid runs the engine computed (not store hits)."""

    def before(self, state):
        return state.counts["perf.store.hits"]

    def after(self, state, token, args, kwargs, result) -> None:
        if state.counts["perf.store.hits"] != token:
            return
        simulator = args[0]
        steps = args[1] if len(args) > 1 else kwargs["steps"]
        state.counts["model.serial.flow_steps"] += int(steps) * len(simulator.protocols)


class _PlanHook(_Hook):
    def after(self, state, token, args, kwargs, result) -> None:
        specs = args[0]
        indices = args[1] if len(args) > 1 else kwargs.get("indices")
        state.counts["backends.planned"] += len(specs if indices is None else indices)
        state.counts["backends.fallback"] += len(result.fallback)


class _KernelHook(_Hook):
    """Rows (scenarios) per batched-kernel call."""

    def __init__(self, layer: str) -> None:
        self.counter = f"{layer}.kernel.rows"

    def after(self, state, token, args, kwargs, result) -> None:
        inputs = args[0] if args else kwargs["inputs"]
        state.counts[self.counter] += inputs.batch_size


class _DecodeHook(_Hook):
    def after(self, state, token, args, kwargs, result) -> None:
        state.counts["exec.wire.traces"] += 1
        state.counts["exec.wire.bytes"] += len(args[0])


_PLAN = _PlanHook()
_HOOKS = {
    "exec.submit": _SubmitHook(),
    "perf.get": _GetHook(),
    "FluidSimulator.run": _SerialRunHook(),
    "plan_batches": _PLAN,
    "plan_network_batches": _PLAN,
    "plan_meanfield_batches": _PLAN,
    "decode_trace": _DecodeHook(),
    "run_batch_kernel": _KernelHook("model"),
    "run_network_batch_kernel": _KernelHook("netmodel"),
    "run_meanfield_batch_kernel": _KernelHook("meanfield"),
}


# ----------------------------------------------------------------------
# Reduction to the per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric names and units, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "experiments.self_s": "s",
    "core.self_s": "s",
    "analysis.self_s": "s",
    "exec.submit.calls": "count",
    "exec.jobs": "count",
    "exec.computed": "count",
    "exec.cache_hits": "count",
    "exec.deduped": "count",
    "exec.inflight_waits": "count",
    "exec.reuse_ratio": "fraction",
    "exec.probes_per_keyed_job": "count",
    "exec.self_s": "s",
    "exec.wire.encode_s": "s",
    "exec.wire.decode_s": "s",
    "exec.wire.bytes_per_trace": "bytes",
    "exec.serve.self_s": "s",
    "backends.lower.calls": "count",
    "backends.lower_s": "s",
    "backends.plan_s": "s",
    "backends.extract_s": "s",
    "backends.fallback_share": "fraction",
    "model.kernel_s": "s",
    "model.kernel.cell_steps": "count",
    "model.kernel.ns_per_cell_step": "ns",
    "model.kernel.rows_per_call": "count",
    "model.serial_s": "s",
    "model.serial.flow_steps": "count",
    "model.serial.ns_per_flow_step": "ns",
    "netmodel.kernel_s": "s",
    "netmodel.kernel.cell_steps": "count",
    "netmodel.kernel.ns_per_cell_step": "ns",
    "netmodel.kernel.rows_per_call": "count",
    "netmodel.serial_s": "s",
    "meanfield.kernel_s": "s",
    "meanfield.kernel.cell_steps": "count",
    "meanfield.kernel.ns_per_cell_step": "ns",
    "meanfield.kernel.rows_per_call": "count",
    "meanfield.serial_s": "s",
    "packetsim.run_s": "s",
    "packetsim.events": "count",
    "packetsim.ns_per_event": "ns",
    "perf.store.put.calls": "count",
    "perf.store.put_s": "s",
    "perf.store.write_mb": "MB",
    "perf.store.get.calls": "count",
    "perf.store.get_s": "s",
    "perf.store.read_mb": "MB",
    "perf.store.hit_ratio": "fraction",
    "perf.key.calls": "count",
    "perf.key_s": "s",
    "unattributed_share": "fraction",
    "trace.overhead_share": "fraction",
}

#: Counts that must repeat bit-for-bit between runs of one seed.
EXACT_ARTIFACT_COUNTS = (
    "exec.computed",
    "exec.probes_per_keyed_job",
    "perf.store.put.calls",
    "perf.store.write_mb",
    "model.kernel.cell_steps",
    "packetsim.events",
)
EXACT_SERVE_COUNTS = ("exec.computed", "exec.wire.bytes_per_trace")

MB = float(2**20)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_totals(dumps: list[dict]) -> tuple[Counter, Counter, Counter]:
    """Per-group self seconds and calls, plus summed counts."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for dump in dumps:
        for thread in dump["threads"]:
            spans = thread["spans"]
            covered = [0.0] * len(spans)
            for group, start, end, parent in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for (group, start, end, _), child in zip(spans, covered):
                self_s[group] += end - start - child
                calls[group] += 1
            counts.update(thread["counts"])
    return self_s, calls, counts


def layer_metrics(
    dumps: list[dict],
    passes: int,
    traced_wall_s: float,
    traced_pass_s: list[float],
    untraced_pass_s: list[float],
    serve_self_s: float = 0.0,
) -> dict[str, float]:
    """The per-layer metrics of one traced run, per pass.

    ``dumps`` are :meth:`Tracer.dump` payloads whose ``extra`` holds the
    executor-counter and kernel-cell deltas of the traced phase.
    ``traced_wall_s`` is the end-to-end time the spans should account
    for; ``serve_self_s`` (serve only) is the server's CPU time outside
    every wrapped layer (:func:`server_self_s`).
    """
    self_s, calls, counts = span_totals(dumps)
    extra: Counter = Counter()
    for dump in dumps:
        extra.update(dump["extra"])
    per = float(passes)
    jobs = extra["exec.jobs"]
    attributed = sum(self_s.values()) + serve_self_s
    metrics = {
        "experiments.self_s": self_s["experiments"] / per,
        "core.self_s": self_s["core"] / per,
        "analysis.self_s": self_s["analysis"] / per,
        "exec.submit.calls": calls["exec.submit"] / per,
        "exec.jobs": jobs / per,
        "exec.computed": extra["exec.computed"] / per,
        "exec.cache_hits": extra["exec.cache_hits"] / per,
        "exec.deduped": extra["exec.deduped"] / per,
        "exec.inflight_waits": extra["exec.inflight_waits"] / per,
        "exec.reuse_ratio": _ratio(
            extra["exec.cache_hits"] + extra["exec.deduped"] + extra["exec.inflight_waits"],
            jobs,
        ),
        "exec.probes_per_keyed_job": _ratio(counts["exec.store_reads"], counts["exec.keyed_jobs"]),
        "exec.self_s": self_s["exec.submit"] / per,
        "exec.wire.encode_s": self_s["exec.wire.encode"] / per,
        "exec.wire.decode_s": self_s["exec.wire.decode"] / per,
        "exec.wire.bytes_per_trace": _ratio(counts["exec.wire.bytes"], counts["exec.wire.traces"]),
        "exec.serve.self_s": serve_self_s / per,
        "backends.lower.calls": calls["backends.lower"] / per,
        "backends.lower_s": self_s["backends.lower"] / per,
        "backends.plan_s": self_s["backends.plan"] / per,
        "backends.extract_s": self_s["backends.extract"] / per,
        "backends.fallback_share": _ratio(counts["backends.fallback"], counts["backends.planned"]),
        "packetsim.run_s": self_s["packetsim.run"] / per,
        "packetsim.events": counts["packetsim.events"] / per,
        "packetsim.ns_per_event": _ratio(
            1e9 * self_s["packetsim.run"], counts["packetsim.events"]
        ),
        "perf.store.put.calls": calls["perf.put"] / per,
        "perf.store.put_s": self_s["perf.put"] / per,
        "perf.store.write_mb": counts["perf.store.write_bytes"] / MB / per,
        "perf.store.get.calls": calls["perf.get"] / per,
        "perf.store.get_s": self_s["perf.get"] / per,
        "perf.store.read_mb": counts["perf.store.read_bytes"] / MB / per,
        "perf.store.hit_ratio": _ratio(counts["perf.store.hits"], calls["perf.get"]),
        "perf.key.calls": calls["perf.key"] / per,
        "perf.key_s": self_s["perf.key"] / per,
        "unattributed_share": _ratio(traced_wall_s - attributed, traced_wall_s),
        "trace.overhead_share": (
            statistics.median(traced_pass_s) / statistics.median(untraced_pass_s) - 1.0
        ),
    }
    for layer in ("model", "netmodel", "meanfield"):
        cells = extra[f"{layer}.kernel.cell_steps"]
        metrics[f"{layer}.kernel_s"] = self_s[f"{layer}.kernel"] / per
        metrics[f"{layer}.kernel.cell_steps"] = cells / per
        metrics[f"{layer}.kernel.ns_per_cell_step"] = _ratio(
            1e9 * self_s[f"{layer}.kernel"], cells
        )
        metrics[f"{layer}.kernel.rows_per_call"] = _ratio(
            counts[f"{layer}.kernel.rows"], calls[f"{layer}.kernel"]
        )
        metrics[f"{layer}.serial_s"] = self_s[f"{layer}.serial"] / per
    metrics["model.serial.flow_steps"] = counts["model.serial.flow_steps"] / per
    metrics["model.serial.ns_per_flow_step"] = _ratio(
        1e9 * self_s["model.serial"], counts["model.serial.flow_steps"]
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def server_self_s(server_dumps: list[dict]) -> float:
    """Server CPU seconds outside every wrapped layer.

    Each traced server records its process CPU time while serving
    (``extra["server_cpu_s"]``); what its spans do not cover is HTTP and
    JSON handling, wire-spec parsing and the event loop's thread hand-offs.
    """
    self_s = span_totals(server_dumps)[0]
    cpu = sum(dump["extra"]["server_cpu_s"] for dump in server_dumps)
    return cpu - sum(self_s.values())


def phase_extra(before: dict, after: dict) -> dict[str, int]:
    """Executor and kernel-cell counter deltas between two :func:`counters` reads."""
    return {name: after[name] - before[name] for name in after}


def counters() -> dict[str, int]:
    """The program's executor and kernel counters, under metric names."""
    from repro.exec import default_executor

    values = {f"exec.{name}": value for name, value in default_executor().snapshot().items()}
    for layer, (module, attr) in CELL_COUNTERS.items():
        cells = getattr(importlib.import_module(module), attr)()
        values[f"{layer}.kernel.cell_steps"] = int(cells)
    return values
