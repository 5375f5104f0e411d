"""The executor is the only code that reads the unified store for a spec job.

Every route a spec job can take — a batched lane, a lane's serial
fallback, the serial per-job loop — receives the key the executor
computed and archives its trace under it, but never probes the store
itself. So a cold submission reads each job's entry at most twice (the
executor's probes before and after its in-flight claim), a warm one
reads it exactly once, and the key is hashed once per job.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.backends import ScenarioSpec, run_specs
from repro.backends.batch import (
    plan_batches,
    plan_meanfield_batches,
    plan_network_batches,
)
from repro.exec import reset_default_executor
from repro.model.link import Link
from repro.netmodel.topology import dumbbell
from repro.perf import store
from repro.perf.cache import TraceCache, cache_enabled
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.presets import pcc_like

_LINK = Link.from_mbps(20, 42, 100)


def _fluid_specs():
    return [
        ScenarioSpec(protocols=[AIMD(1.0, 0.5)] * 2, link=_LINK, steps=40),
        ScenarioSpec(protocols=[AIMD(2.0, 0.7)] * 2, link=_LINK, steps=40),
        # PCC is stateful: the fluid lane falls back to the serial engine.
        ScenarioSpec(protocols=[pcc_like(), AIMD(1.0, 0.5)], link=_LINK, steps=40),
    ]


def _network_specs():
    topology = dumbbell(Link.from_mbps(200, 10, 200), _LINK, 2)
    return [
        ScenarioSpec(protocols=[AIMD(1.0, 0.5)] * 2, link=_LINK, steps=40,
                     topology=topology),
        ScenarioSpec(protocols=[MIMD(1.01, 0.9)] * 2, link=_LINK, steps=40,
                     topology=topology),
        ScenarioSpec(protocols=[pcc_like(), AIMD(1.0, 0.5)], link=_LINK,
                     steps=40, topology=topology),
    ]


def _meanfield_specs():
    return [
        ScenarioSpec.from_mbps(20, 42, 100, [AIMD(1.0, 0.5)], steps=40,
                               flow_multiplicity=10),
        ScenarioSpec.from_mbps(20, 42, 100, [AIMD(2.0, 0.7)], steps=40,
                               flow_multiplicity=10),
        # Stateful protocols do not lower to the mean-field backend at
        # all; a two-population scenario is the lane's serial fallback.
        ScenarioSpec.from_mbps(20, 42, 100, [AIMD(1.0, 0.5), MIMD(1.01, 0.9)],
                               steps=40, flow_multiplicity=5),
    ]


def _packet_specs():
    return [
        ScenarioSpec.from_mbps(20, 42, 100, [AIMD(a, 0.5)] * 2, steps=20)
        for a in (1.0, 2.0)
    ]


_SPECS = {
    "fluid": _fluid_specs,
    "network": _network_specs,
    "meanfield": _meanfield_specs,
    "packet": _packet_specs,
}

_PLANNERS = {
    "fluid": plan_batches,
    "network": plan_network_batches,
    "meanfield": plan_meanfield_batches,
}


@pytest.fixture(autouse=True)
def _fresh_default_executor():
    reset_default_executor()
    yield
    reset_default_executor()


@pytest.fixture
def counted(monkeypatch):
    """Count store reads per key and unified-key computations."""
    reads: Counter = Counter()
    hashed: Counter = Counter()
    get_arrays = TraceCache.get_arrays
    unified_key = store.unified_key

    def counting_get_arrays(self, key, decode=None):
        reads[key] += 1
        return get_arrays(self, key, decode=decode)

    def counting_unified_key(backend_name, spec):
        hashed[backend_name] += 1
        return unified_key(backend_name, spec)

    monkeypatch.setattr(TraceCache, "get_arrays", counting_get_arrays)
    monkeypatch.setattr(store, "unified_key", counting_unified_key)
    return reads, hashed, unified_key


@pytest.mark.parametrize("batch", [True, False])
@pytest.mark.parametrize("backend", sorted(_SPECS))
def test_executor_is_the_only_store_reader(tmp_path, counted, backend, batch):
    reads, hashed, unified_key = counted
    specs = _SPECS[backend]()
    if backend in _PLANNERS:
        # The last spec exercises the lane's serial fallback.
        assert _PLANNERS[backend](specs).fallback == [len(specs) - 1]
    keys = [unified_key(backend, spec) for spec in specs]
    assert None not in keys and len(set(keys)) == len(keys)

    with cache_enabled(tmp_path):
        cold = run_specs(specs, backend, batch=batch)
        assert all(reads[key] <= 2 for key in keys), dict(reads)
        assert hashed[backend] == len(specs)

        reads.clear()
        hashed.clear()
        reset_default_executor()
        warm = run_specs(specs, backend, batch=batch)
        assert [reads[key] for key in keys] == [1] * len(specs)
        assert hashed[backend] == len(specs)

    for first, second in zip(cold, warm):
        for name in ("windows", "observed_loss", "rtts"):
            a = np.ascontiguousarray(getattr(first, name))
            b = np.ascontiguousarray(getattr(second, name))
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
