"""The backend table and the one-spec run entry point.

A backend turns a :class:`~repro.backends.spec.ScenarioSpec` into a
:class:`~repro.backends.trace.UnifiedTrace`: it lowers the spec, runs its
engine and adapts the output. The four backends are the rows of one
table, from each name to that serial run; :func:`run_on` runs a row and
:func:`backend_names` lists them (``tests/unit/test_backends.py`` pins
the four). Callers go through :func:`run_spec` or
:func:`~repro.backends.jobs.run_specs`, which submit to the executor
(:mod:`repro.exec`): it keys every spec by
:func:`repro.perf.store.unified_key`, serves and archives traces in the
store, dedups identical work and picks each backend's batched lane. A
serial run itself stays pure lowering + simulation.
"""

from __future__ import annotations

from repro.backends.spec import ScenarioSpec
from repro.backends.trace import (
    UnifiedTrace,
    from_fluid_trace,
    from_meanfield_result,
    from_network_trace,
    from_packet_result,
)

__all__ = ["backend_names", "run_on", "run_spec"]


def _run_fluid(spec: ScenarioSpec) -> UnifiedTrace:
    """The Section-2 single-bottleneck fluid model."""
    from repro.model.dynamics import FluidSimulator

    link, protocols, config, steps = spec.lower_fluid()
    trace = FluidSimulator(link, protocols, config).run(steps)
    return from_fluid_trace(trace, backend="fluid")


def _run_network(spec: ScenarioSpec) -> UnifiedTrace:
    """The multi-link fluid extension; with no topology, one link."""
    from repro.netmodel.dynamics import NetworkFluidSimulator

    topology, protocols, kwargs, steps = spec.lower_network()
    trace = NetworkFluidSimulator(topology, protocols, **kwargs).run(steps)
    return from_network_trace(trace, spec.link, backend="network")


def _run_packet(spec: ScenarioSpec) -> UnifiedTrace:
    """The ACK-clocked packet engine, resampled onto a base-RTT grid."""
    from repro.packetsim.scenario import run_scenario

    return from_packet_result(run_scenario(spec.lower_packet()), backend="packet")


def _run_meanfield(spec: ScenarioSpec) -> UnifiedTrace:
    """The mean-field window-density evolution, O(1) in the flow count."""
    from repro.meanfield.dynamics import MeanFieldSimulator

    result = MeanFieldSimulator(spec.lower_meanfield()).run()
    return from_meanfield_result(result, backend="meanfield")


#: Every backend, by name: its serial run.
_RUNS = {
    "fluid": _run_fluid,
    "meanfield": _run_meanfield,
    "network": _run_network,
    "packet": _run_packet,
}


def backend_names() -> list[str]:
    """The backend names, sorted."""
    return sorted(_RUNS)


def run_on(name: str, spec: ScenarioSpec) -> UnifiedTrace:
    """Lower ``spec``, run backend ``name``'s engine and adapt its output.

    The serial run: the store is neither read nor written. An unknown
    ``name`` is a :class:`ValueError` naming the backends.
    """
    try:
        run = _RUNS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise ValueError(f"unknown backend {name!r} (known: {known})") from None
    return run(spec)


def run_spec(
    spec: ScenarioSpec,
    backend: str = "fluid",
    use_cache: bool = True,
) -> "object":
    """Run ``spec`` on backend ``backend``: a one-job executor submission.

    With ``use_cache`` and an active :mod:`repro.perf` cache, a trace
    already in the store is reloaded instead of re-simulating (and a
    fresh one is archived); all backends are deterministic, so the arrays
    are bit-identical either way. A failing spec raises its original
    exception.
    """
    from repro.exec import SpecJob, default_executor

    return default_executor().run(
        [SpecJob(spec=spec, backend=backend)], use_cache=use_cache
    )[0]
