"""The job vocabulary of the unified execution core.

A *job* is one schedulable unit of simulation work. The
:class:`~repro.exec.executor.Executor` plans, dedups and routes jobs; the
job classes here say what kinds exist and how each one behaves:

- :class:`SpecJob` — run a :class:`~repro.backends.spec.ScenarioSpec` on a
  named backend, producing a :class:`~repro.backends.trace.UnifiedTrace`.
  Content-addressed by :func:`repro.perf.store.unified_key`, so identical
  specs dedup against the store and against each other.
- :class:`PacketScenarioJob` — run a native
  :class:`~repro.packetsim.scenario.PacketScenario`, producing the raw
  :class:`~repro.packetsim.scenario.ScenarioResult` (event statistics the
  Emulab-style drivers reduce themselves). Addressed by the packet cache's
  scenario key; every submission merges compatible scenarios into shared
  event loops.
- :class:`WorkloadJob` — run a finite-flow workload (short flows plus
  long-lived background), producing a
  :class:`~repro.packetsim.workload.WorkloadResult`. Addressed by the
  packet cache's workload key; every submission merges jobs sharing a
  link and duration into one event loop.

Every job kind computes exactly what the hand-written path it replaced
computed — the executor only decides *where* and *whether* to run it, so
results are bit-identical to the pre-executor drivers by construction.
``run()`` is the job's solo run: the per-job lane calls it for a job no
merged or batched engine takes, and for each member of a merged packet
call that raised.

The executor calls :meth:`key` once per job, reads the store through
``probe(cache, key)`` and archives a computed result through
``store(cache, key, value)``. ``run()`` only computes: it never touches
the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = [
    "Job",
    "PacketScenarioJob",
    "SpecJob",
    "WorkloadJob",
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
        from repro.perf.store import load_unified_trace

        return load_unified_trace(cache, key)

    def store(self, cache, key: str, value: Any) -> None:
        from repro.perf.store import store_unified_trace

        store_unified_trace(cache, key, value)

    def run(self) -> Any:
        from repro.backends.base import run_on

        return run_on(self.backend, self.spec)


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

    def store(self, cache, key: str, value: Any) -> None:
        from repro.perf import packet_cache

        packet_cache.store_scenario_result(cache, key, value)

    def run(self) -> Any:
        from repro.packetsim.scenario import run_scenario

        return run_scenario(self.scenario)


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

    def store(self, cache, key: str, value: Any) -> None:
        from repro.perf import packet_cache

        packet_cache.store_workload_result(cache, key, value)

    def run(self) -> Any:
        from repro.packetsim.workload import run_workload

        return run_workload(
            self.link,
            list(self.specs),
            self.duration,
            background=list(self.background),
            slow_start=self.slow_start,
            initial_window=self.initial_window,
        )


#: Every concrete job class (documentation + isinstance checks).
Job = (SpecJob, PacketScenarioJob, WorkloadJob)
