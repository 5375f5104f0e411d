"""The executor is the only code that reads or writes the store.

Every route a job can take — a batched lane, a lane's serial fallback,
the per-job lane — only computes: the executor reads each key from the
store once and archives what was computed. So a submission reads each
key exactly once, cold or warm, each computed key is written once and
the key is hashed once per job. The driver-level test holds every paper
artifact (and the other entry points that reach the store) to the same
contract, cold then warm.
"""

from __future__ import annotations

import traceback
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
        assert [reads[key] for key in keys] == [1] * len(specs), dict(reads)
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


# ----------------------------------------------------------------------
# Every driver: only Executor.submit touches the store
# ----------------------------------------------------------------------
def _drivers():
    """Each entry point at a tiny scale (the benchmark's smoke-test sizes)."""
    from repro import experiments
    from repro.backends import run_spec
    from repro.cli import main
    from repro.core.characterization import characterize
    from repro.core.metrics import EstimatorConfig
    from repro.protocols import presets

    config = EstimatorConfig(steps=60, n_senders=2)
    return {
        "table1": lambda: experiments.run_table1(link=_LINK, config=config),
        "claims": lambda: experiments.run_claims(link=_LINK, steps=60),
        "survey": lambda: experiments.run_survey(
            roster={"reno": presets.reno}, regimes={"wan": _LINK}, config=config
        ),
        "figure1": lambda: experiments.run_figure1(config=config),
        "figure1-batch": lambda: experiments.run_figure1(config=config, batch=True),
        "table2": lambda: experiments.run_table2(steps=60),
        "table2-batch": lambda: experiments.run_table2(steps=60, batch=True),
        "table2-packet": lambda: experiments.table2.run_table2_packet(
            senders=(2,), duration=0.5
        ),
        "emulab": lambda: experiments.run_emulab(duration=0.3),
        "fct": lambda: experiments.run_fct_study(
            duration=4.0, arrival_window=3.0, replications=1
        ),
        "fct-batch": lambda: experiments.run_fct_study(
            duration=4.0, arrival_window=3.0, replications=1, batch=True
        ),
        "characterize": lambda: characterize(presets.cubic(), _LINK, config),
        "run_spec": lambda: run_spec(_fluid_specs()[0]),
        "simulate": lambda: main(["simulate", "--protocols", "reno", "cubic",
                                  "--steps", "60"]),
    }


@pytest.fixture
def store_calls(monkeypatch):
    """Per-key reads and writes, failing any call made outside submit."""
    from repro.exec.executor import Executor

    reads: Counter = Counter()
    writes: Counter = Counter()
    submitted: set = set()
    outside: list = []

    def inside_submit() -> bool:
        return any(frame.name == "submit" and frame.filename.endswith(
            "executor.py") for frame in traceback.extract_stack())

    def wrap(name, tally):
        original = getattr(TraceCache, name)

        def wrapper(self, key, *args, **kwargs):
            if not inside_submit():
                outside.append(f"TraceCache.{name}")
            tally[key] += 1
            return original(self, key, *args, **kwargs)

        monkeypatch.setattr(TraceCache, name, wrapper)

    for name in ("get", "get_arrays"):
        wrap(name, reads)
    for name in ("put", "put_arrays"):
        wrap(name, writes)
    submit = Executor.submit

    def recording_submit(self, jobs, **options):
        submitted.update(key for key in (job.key() for job in jobs) if key)
        return submit(self, jobs, **options)

    monkeypatch.setattr(Executor, "submit", recording_submit)
    return reads, writes, submitted, outside


@pytest.mark.parametrize("name", sorted(_drivers()))
def test_only_the_executor_touches_the_store(tmp_path, store_calls, name, capsys):
    reads, writes, submitted, outside = store_calls
    run = _drivers()[name]
    with cache_enabled(tmp_path):
        run()
        assert not outside, outside
        assert submitted, "the driver never reached the executor"
        assert set(reads) == submitted
        assert set(reads.values()) == {1}, reads
        assert set(writes) == submitted
        assert set(writes.values()) == {1}, writes

        reads.clear()
        writes.clear()
        submitted.clear()
        reset_default_executor()
        run()
        assert not outside, outside
        assert set(reads) == submitted
        assert set(reads.values()) == {1}, reads
        assert not writes, writes
