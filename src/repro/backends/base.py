"""The backend protocol, the registry, and the cache-aware run entry point.

A :class:`Backend` turns a :class:`~repro.backends.spec.ScenarioSpec` into
a :class:`~repro.backends.trace.UnifiedTrace` and declares a deterministic
content-addressed :meth:`~Backend.cache_key`. Implementations register at
import time via :func:`register_backend` (the REP303 lint rule enforces
this for every subclass in :mod:`repro.backends`), and callers go through
:func:`run_spec`, which adds the unified-store caching layer shared by all
backends — :meth:`Backend.run` itself stays pure lowering + simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.backends.spec import ScenarioSpec

__all__ = [
    "Backend",
    "backend_names",
    "compute_spec",
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

    @abstractmethod
    def cache_key(self, spec: ScenarioSpec) -> str | None:
        """A deterministic content hash of ``spec`` on this backend.

        ``None`` marks the run uncacheable. The key must be a pure
        function of the spec's canonical form — never of wall-clock time,
        process state or unseeded randomness (lint rule REP303).
        """


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
    """Run ``spec`` on ``backend`` through the unified store.

    When a :mod:`repro.perf` cache is active and the spec is cacheable, a
    previously archived :class:`~repro.backends.trace.UnifiedTrace` is
    reloaded instead of re-simulating; all backends are deterministic, so
    the arrays are bit-identical either way. (The fluid and packet
    engines additionally keep their own native cache entries; a unified
    entry is simply one more kind in the same store.)
    """
    if isinstance(backend, str):
        backend = get_backend(backend)
    if use_cache:
        from repro.perf import store
        from repro.perf.cache import active_cache

        cache = active_cache()
        if cache is not None:
            key = backend.cache_key(spec)
            if key is not None:
                cached = store.load_unified_trace(cache, key)
                if cached is not None:
                    return cached
                return compute_spec(spec, backend, cache, key)
    return backend.run(spec)


def compute_spec(
    spec: ScenarioSpec,
    backend: str | Backend = "fluid",
    cache: Any = None,
    key: str | None = None,
) -> Any:
    """Run ``spec`` on ``backend`` without reading the store.

    The write half of :func:`run_spec`, for callers that probed the store
    themselves (the executor and its batch lanes): with a ``cache`` and a
    ``key``, the trace is archived under ``key`` before it is returned.
    """
    if isinstance(backend, str):
        backend = get_backend(backend)
    trace = backend.run(spec)
    if cache is not None and key is not None:
        from repro.perf import store

        store.store_unified_trace(cache, key, trace)
    return trace
