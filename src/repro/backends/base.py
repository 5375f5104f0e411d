"""The backend protocol, the registry, and the one-spec run entry point.

A :class:`Backend` turns a :class:`~repro.backends.spec.ScenarioSpec` into
a :class:`~repro.backends.trace.UnifiedTrace`. Implementations register
at import time via :func:`register_backend` (``tests/unit/test_backends.py``
checks that every built-in backend is registered), and callers go through
:func:`run_spec` or :func:`~repro.backends.jobs.run_specs`, which submit
to the executor (:mod:`repro.exec`): it keys every spec by
:func:`repro.perf.store.unified_key`, serves and archives traces in the
store, and dedups identical work. :meth:`Backend.run` itself stays pure
lowering + simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.backends.spec import ScenarioSpec

__all__ = [
    "Backend",
    "backend_names",
    "get_backend",
    "register_backend",
    "run_spec",
]


class Backend(ABC):
    """One way of executing a :class:`~repro.backends.spec.ScenarioSpec`."""

    #: Registry name; concrete subclasses must override.
    name: str = ""

    @abstractmethod
    def run(self, spec: ScenarioSpec):
        """Lower ``spec``, simulate, and adapt the result to a UnifiedTrace."""


_BACKENDS: dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Register ``backend`` under its ``name`` (import-time, module level)."""
    if not isinstance(backend, Backend):
        raise TypeError(f"expected a Backend instance, got {type(backend).__name__}")
    if not backend.name:
        raise ValueError(f"{type(backend).__name__} declares no name")
    if backend.name in _BACKENDS and not replace:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """The registered backend called ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS)) or "none"
        raise ValueError(f"unknown backend {name!r} (registered: {known})") from None


def backend_names() -> list[str]:
    """The registered backend names, sorted."""
    return sorted(_BACKENDS)


def run_spec(
    spec: ScenarioSpec,
    backend: str | Backend = "fluid",
    use_cache: bool = True,
) -> "object":
    """Run ``spec`` on ``backend``: a one-job executor submission.

    With ``use_cache`` and an active :mod:`repro.perf` cache, a trace
    already in the store is reloaded instead of re-simulating (and a
    fresh one is archived); all backends are deterministic, so the arrays
    are bit-identical either way. A failing spec raises its original
    exception.
    """
    from repro.exec import SpecJob, default_executor

    name = backend if isinstance(backend, str) else backend.name
    return default_executor().run(
        [SpecJob(spec=spec, backend=name)], use_cache=use_cache
    )[0]
