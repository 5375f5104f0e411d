"""Performance layer: the content-addressed store, its codec, and timing.

The reproduction's headline artifacts are grids of independent,
deterministic simulations; this package supplies the machinery that
makes regenerating them fast without changing a single result:

- :mod:`repro.perf.cache` — the content-addressed on-disk store
  (:class:`TraceCache`) and the canonical keying rules every key scheme
  shares, so a rerun reloads archived arrays instead of re-simulating;
- :mod:`repro.perf.store` — the unified entry kind (one
  :class:`~repro.backends.trace.UnifiedTrace` per ``(backend, spec)``
  key), per-kind accounting and pruning;
- :mod:`repro.perf.packet_cache` — the native packet entry kind:
  ``PacketScenario``/workload inputs hash to archived
  ``FlowStats``/``QueueStats`` arrays, so warm Emulab and FCT runs skip
  the discrete-event simulation entirely;
- :mod:`repro.perf.codec` — the array-bundle format of every store entry
  and every ``repro serve`` trace;
- :mod:`repro.perf.timing` — a lightweight timing registry the engines,
  the executor's lanes and the store all report into, so speedups are
  measured rather than asserted.

Only the executor (:mod:`repro.exec`) reads and writes the store, and
every job runs in the process that submitted it.
"""

from repro.perf.cache import (
    TraceCache,
    active_cache,
    cache_enabled,
    configure_cache,
    deactivate_cache,
    default_cache_dir,
    simulation_key,
)
from repro.perf.packet_cache import scenario_key, workload_key
from repro.perf.timing import REGISTRY, TimingRegistry, TimingStat, measure

__all__ = [
    "REGISTRY",
    "TimingRegistry",
    "TimingStat",
    "TraceCache",
    "active_cache",
    "cache_enabled",
    "configure_cache",
    "deactivate_cache",
    "default_cache_dir",
    "measure",
    "scenario_key",
    "simulation_key",
    "workload_key",
]
