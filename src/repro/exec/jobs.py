"""The job vocabulary of the unified execution core.

A *job* is one schedulable unit of simulation work. The
:class:`~repro.exec.executor.Executor` plans, dedups and routes jobs; the
job classes here say what kinds exist and how each one behaves:

- :class:`SpecJob` — run a :class:`~repro.backends.spec.ScenarioSpec` on a
  named backend, producing a :class:`~repro.backends.trace.UnifiedTrace`.
  Content-addressed by :func:`repro.perf.store.unified_key`, so identical
  specs dedup against the store, against each other, and against in-flight
  work.
- :class:`PacketScenarioJob` — run a native
  :class:`~repro.packetsim.scenario.PacketScenario`, producing the raw
  :class:`~repro.packetsim.scenario.ScenarioResult` (event statistics the
  Emulab-style drivers reduce themselves). Addressed by the packet cache's
  scenario key; batch submissions merge compatible scenarios into shared
  event loops.
- :class:`WorkloadJob` — run a finite-flow workload (short flows plus
  long-lived background), producing a
  :class:`~repro.packetsim.workload.WorkloadResult`. Addressed by the
  packet cache's workload key; batch submissions merge jobs sharing a
  link and duration into one event loop.
- :class:`CallJob` — run an arbitrary picklable callable. Never
  content-addressed (the executor cannot know the call is deterministic),
  but still scheduled, pooled and ordered like every other job; this is
  the lane grid drivers use for measure-style cells.

Every job kind computes exactly what the hand-written path it replaced
computed — the executor only decides *where* and *whether* to run it, so
results are bit-identical to the pre-executor drivers by construction.

The executor calls :meth:`key` once per job and passes the key to
``probe(cache, key)`` and ``run(use_cache, key)``. A SpecJob's ``run``
archives its trace under that key without reading the store; the packet
jobs' engines keep their own native cache entries and ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = [
    "CallJob",
    "Job",
    "PacketScenarioJob",
    "SpecJob",
    "WorkloadJob",
    "job_runner",
]


@dataclass
class SpecJob:
    """Run one ScenarioSpec on one backend; dedupable by unified key."""

    spec: Any
    backend: str = "fluid"

    @property
    def kind(self) -> str:
        return f"spec:{self.backend}"

    def key(self) -> str | None:
        from repro.perf import store

        return store.unified_key(self.backend, self.spec)

    def probe(self, cache, key: str) -> Any | None:
        """The result stored under ``key``, or ``None`` on a miss."""
        from repro.perf import store

        return store.load_unified_trace(cache, key)

    def run(self, use_cache: bool = True, key: str | None = None) -> Any:
        """Compute the trace and, with ``use_cache``, archive it under ``key``.

        Never reads the store: the executor already probed it.
        """
        from repro.backends.base import compute_spec
        from repro.perf.cache import active_cache

        cache = active_cache() if use_cache else None
        return compute_spec(self.spec, self.backend, cache, key)


@dataclass
class PacketScenarioJob:
    """Run one native packet scenario; dedupable by the packet-cache key."""

    scenario: Any

    kind = "packet-scenario"

    def key(self) -> str | None:
        from repro.perf import packet_cache

        return packet_cache.scenario_key(self.scenario)

    def probe(self, cache, key: str) -> Any | None:
        from repro.perf import packet_cache

        return packet_cache.load_scenario_result(cache, key, self.scenario)

    def run(self, use_cache: bool = True, key: str | None = None) -> Any:
        from repro.packetsim.scenario import run_scenario

        return run_scenario(self.scenario, use_cache=use_cache)


@dataclass
class WorkloadJob:
    """Run one finite-flow workload; dedupable by the packet-cache key."""

    link: Any
    specs: Sequence[Any]
    duration: float
    background: Sequence[Any] = field(default_factory=list)
    slow_start: bool = True
    initial_window: float = 1.0

    kind = "workload"

    def merge_key(self) -> tuple:
        """The compatibility group for the merged-scheduler runner.

        Jobs sharing the link parameters, the horizon and the wiring flags
        can run inside one event loop (all rail delays agree by
        construction); everything else about a job varies freely.
        """
        link = self.link
        return (
            float(link.bandwidth),
            float(link.base_rtt),
            float(link.buffer_size),
            float(self.duration),
            bool(self.slow_start),
            float(self.initial_window),
        )

    def key(self) -> str | None:
        from repro.perf import packet_cache

        return packet_cache.workload_key(
            self.link,
            list(self.specs),
            self.duration,
            list(self.background),
            self.slow_start,
            self.initial_window,
        )

    def probe(self, cache, key: str) -> Any | None:
        from repro.perf import packet_cache

        return packet_cache.load_workload_result(
            cache, key, list(self.specs), self.duration
        )

    def run(self, use_cache: bool = True, key: str | None = None) -> Any:
        from repro.packetsim.workload import run_workload

        return run_workload(
            self.link,
            list(self.specs),
            self.duration,
            background=list(self.background),
            slow_start=self.slow_start,
            initial_window=self.initial_window,
            use_cache=use_cache,
        )


@dataclass
class CallJob:
    """Run an arbitrary callable with keyword arguments (never deduped)."""

    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)

    kind = "call"

    def key(self) -> None:
        return None

    def probe(self, cache, key: str) -> None:
        return None

    def run(self, use_cache: bool = True, key: str | None = None) -> Any:
        return self.fn(**self.kwargs)


#: Every concrete job class (documentation + isinstance checks).
Job = (SpecJob, PacketScenarioJob, WorkloadJob, CallJob)


def job_runner(
    index: int,
    jobs: Sequence[Any],
    keys: Sequence[str | None],
    use_cache: bool = True,
) -> Any:
    """Run one indexed job on its per-job (non-batched) engine.

    Top-level, so process pools can pickle it; ``keys`` are the keys the
    executor computed, passed on so no job recomputes its own.
    """
    return jobs[index].run(use_cache=use_cache, key=keys[index])
