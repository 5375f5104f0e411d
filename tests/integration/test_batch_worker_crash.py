"""The shared-memory chunk scheduler's failure paths.

The fluid lane's scheduler spreads a batch over a process pool in row
chunks. When a worker process dies mid-kernel, the caller must get an
error naming the lane, the chunk's rows and the submission positions of
its specs — not an anonymous ``BrokenProcessPool`` — and the failure
must leave no shared-memory segment, no in-flight executor claim, and
no effect on the next run. When the scheduler cannot start at all, the
batch runs in-process after a one-time warning naming the lane and the
error, with bit-identical results.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.backends import ScenarioSpec, run_spec, run_specs
from repro.backends import batch as batch_module
from repro.exec import default_executor, reset_default_executor
from repro.model.link import Link
from repro.protocols.aimd import AIMD

_SHM = Path("/dev/shm")
_TEST_PROCESS = os.getpid()


class ExitingAIMD(AIMD):
    """AIMD whose batched update kills any process but the test's own."""

    @staticmethod
    def batched_next(windows, loss_rate, rtt, params):
        if os.getpid() != _TEST_PROCESS:
            os._exit(3)
        return AIMD.batched_next(windows, loss_rate, rtt, params)


def _grid(protocol):
    return [
        ScenarioSpec(
            protocols=[protocol(1.0 + 0.25 * i, 0.5)] * 2,
            link=Link.from_mbps(20, 42, 100),
            steps=30,
        )
        for i in range(12)
    ]


def _segments() -> set[str]:
    return {name for name in os.listdir(_SHM) if name.startswith("psm_")}


@pytest.fixture(autouse=True)
def _three_row_chunks(monkeypatch):
    if not _SHM.is_dir():
        pytest.skip("needs POSIX shared memory under /dev/shm")
    monkeypatch.setattr(
        batch_module, "autotune_chunk_rows", lambda steps, backend="fluid": 3
    )
    reset_default_executor()
    yield
    reset_default_executor()


def test_dead_chunk_worker_names_lane_rows_and_specs():
    before = _segments()
    with pytest.raises(BrokenProcessPool) as caught:
        run_specs(_grid(ExitingAIMD), "fluid", batch=True, workers=2,
                  use_cache=False)
    message = str(caught.value)
    assert "fluid lane" in message
    assert "rows 0:3" in message
    assert "positions 0, 1, 2" in message
    assert isinstance(caught.value.__cause__, BrokenProcessPool)

    assert _segments() <= before
    assert default_executor()._inflight == {}

    specs = _grid(AIMD)
    traces = run_specs(specs, "fluid", batch=True, workers=2, use_cache=False)
    for spec, trace in zip(specs, traces):
        reference = run_spec(spec, "fluid", use_cache=False)
        for name in ("windows", "observed_loss", "rtts"):
            a = np.ascontiguousarray(getattr(trace, name))
            b = np.ascontiguousarray(getattr(reference, name))
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert _segments() <= before


def test_unavailable_shared_memory_warns_once_and_runs_in_process(monkeypatch):
    from multiprocessing import shared_memory

    def refuse(*args, **kwargs):
        raise OSError("no space left on /dev/shm")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
    monkeypatch.setattr(batch_module, "_warned_in_process", set())
    specs = _grid(AIMD)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traces = run_specs(specs, "fluid", batch=True, workers=2,
                           use_cache=False)
        run_specs(specs[::-1], "fluid", batch=True, workers=2, use_cache=False)
    fallbacks = [w for w in caught if "chunk scheduler" in str(w.message)]
    assert len(fallbacks) == 1
    message = str(fallbacks[0].message)
    assert "fluid lane" in message
    assert "OSError: no space left on /dev/shm" in message
    for spec, trace in zip(specs, traces):
        reference = run_spec(spec, "fluid", use_cache=False)
        for name in ("windows", "observed_loss", "rtts"):
            a = np.ascontiguousarray(getattr(trace, name))
            b = np.ascontiguousarray(getattr(reference, name))
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
