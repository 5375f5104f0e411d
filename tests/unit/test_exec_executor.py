"""The unified executor: planning, dedup tiers, routing, run_specs edges."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.backends import LoweringError, ScenarioSpec, run_spec, run_specs
from repro.exec import (
    Executor,
    SpecJob,
    default_executor,
    map_calls,
    reset_default_executor,
)
from repro.model.link import Link
from repro.netmodel.topology import single_link
from repro.perf.cache import cache_enabled
from repro.protocols.aimd import AIMD

_TRACE_FIELDS = ("windows", "observed_loss", "congestion_loss", "rtts",
                 "capacities", "pipe_limits", "base_rtts", "flow_rtts")


def _assert_bit_identical(a, b) -> None:
    for name in _TRACE_FIELDS:
        x = np.ascontiguousarray(getattr(a, name))
        y = np.ascontiguousarray(getattr(b, name))
        assert x.shape == y.shape, name
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


def _spec(alpha: float = 1.0, steps: int = 32) -> ScenarioSpec:
    return ScenarioSpec(
        protocols=[AIMD(alpha, 0.5)] * 2,
        link=Link.from_mbps(20, 42, 100),
        steps=steps,
    )


def _failing_spec() -> ScenarioSpec:
    """Constructs fine, raises LoweringError when the fluid backend runs it."""
    link = Link.from_mbps(20, 42, 100)
    return ScenarioSpec(
        protocols=[AIMD(1, 0.5)] * 2,
        link=link,
        steps=32,
        topology=single_link(link, 1),
    )


@pytest.fixture(autouse=True)
def _fresh_default_executor():
    reset_default_executor()
    yield
    reset_default_executor()


class _GateJob:
    """A keyed test job whose run() blocks on an event (in-flight tests)."""

    kind = "gate"

    def __init__(self, keyed: str, gate: threading.Event,
                 started: threading.Event | None = None,
                 fail: bool = False) -> None:
        self._key = keyed
        self._gate = gate
        self._started = started
        self._fail = fail

    def key(self) -> str:
        return self._key

    def probe(self, cache, key) -> None:
        return None

    def run(self, use_cache: bool = True, key=None) -> str:
        if self._started is not None:
            self._started.set()
        assert self._gate.wait(timeout=30)
        if self._fail:
            raise ValueError("gate job told to fail")
        return f"value:{self._key}"


class TestDedupTiers:
    def test_within_submission_followers(self):
        executor = Executor()
        spec = _spec()
        outcomes = executor.submit(
            [SpecJob(spec=spec), SpecJob(spec=spec), SpecJob(spec=_spec(2.0))]
        )
        assert [o.source for o in outcomes] == ["computed", "dedup", "computed"]
        _assert_bit_identical(outcomes[0].value, outcomes[1].value)
        stats = executor.snapshot()
        assert stats["computed"] == 2
        assert stats["deduped"] == 1
        assert stats["jobs"] == 3

    def test_store_tier_serves_second_submission(self, tmp_path):
        executor = Executor()
        spec = _spec()
        with cache_enabled(tmp_path):
            first = executor.submit([SpecJob(spec=spec)])
            second = executor.submit([SpecJob(spec=spec)])
        assert first[0].source == "computed"
        assert second[0].source == "cache"
        _assert_bit_identical(first[0].value, second[0].value)
        assert executor.snapshot()["cache_hits"] == 1

    def test_inflight_tier_one_computation_many_waiters(self):
        executor = Executor()
        gate = threading.Event()
        started = threading.Event()
        results: dict[str, list] = {}

        def leader():
            results["leader"] = executor.submit(
                [_GateJob("k", gate, started)]
            )

        def waiter(name):
            results[name] = executor.submit([_GateJob("k", gate)])

        lead = threading.Thread(target=leader)
        lead.start()
        assert started.wait(timeout=30)
        waiters = [
            threading.Thread(target=waiter, args=(f"w{i}",)) for i in range(2)
        ]
        for thread in waiters:
            thread.start()
        # Both waiters must have attached to the in-flight slot before we
        # release the leader, or they would just compute themselves.
        for _ in range(3000):
            if executor.snapshot()["inflight_waits"] == 2:
                break
            threading.Event().wait(0.01)
        assert executor.snapshot()["inflight_waits"] == 2
        gate.set()
        lead.join(timeout=30)
        for thread in waiters:
            thread.join(timeout=30)
        assert results["leader"][0].source == "computed"
        for name in ("w0", "w1"):
            assert results[name][0].source == "inflight"
            assert results[name][0].value == "value:k"
        assert executor.snapshot()["computed"] == 1

    def test_inflight_failure_reaches_waiter(self):
        executor = Executor()
        gate = threading.Event()
        started = threading.Event()
        errors: dict[str, BaseException] = {}

        def leader():
            try:
                executor.submit([_GateJob("bad", gate, started, fail=True)])
            except ValueError as exc:
                errors["leader"] = exc

        def waiter():
            try:
                executor.submit([_GateJob("bad", gate)])
            except ValueError as exc:
                errors["waiter"] = exc

        lead = threading.Thread(target=leader)
        lead.start()
        assert started.wait(timeout=30)
        wait = threading.Thread(target=waiter)
        wait.start()
        for _ in range(3000):
            if executor.snapshot()["inflight_waits"] == 1:
                break
            threading.Event().wait(0.01)
        gate.set()
        lead.join(timeout=30)
        wait.join(timeout=30)
        assert isinstance(errors["leader"], ValueError)
        assert isinstance(errors["waiter"], ValueError)
        # The slot was released: a later submission computes afresh.
        gate.set()
        fresh = executor.submit([_GateJob("bad", gate)], skip_errors=True)
        assert fresh[0].source == "computed"

    def test_failed_leader_marks_followers(self):
        executor = Executor()
        bad = _failing_spec()
        outcomes = executor.submit(
            [SpecJob(spec=bad), SpecJob(spec=bad)], skip_errors=True
        )
        assert [o.ok for o in outcomes] == [False, False]
        assert [o.source for o in outcomes] == ["computed", "dedup"]
        assert outcomes[1].value is None
        assert executor.snapshot()["errors"] == 2


class TestRunSpecsEdges:
    @pytest.mark.parametrize("backend", ["fluid", "meanfield", "packet",
                                         "network"])
    @pytest.mark.parametrize("batch", [False, True])
    def test_empty_list_every_backend(self, backend, batch):
        assert run_specs([], backend=backend, batch=batch) == []

    @pytest.mark.parametrize("batch", [False, True])
    def test_skip_errors_leaves_aligned_none_holes(self, batch):
        good = [_spec(1.0), _spec(2.0)]
        traces = run_specs(
            [good[0], _failing_spec(), good[1]],
            batch=batch, use_cache=False, skip_errors=True,
        )
        assert traces[1] is None
        for trace, spec in zip((traces[0], traces[2]), good):
            _assert_bit_identical(trace, run_spec(spec, "fluid",
                                                  use_cache=False))

    @pytest.mark.parametrize("batch", [False, True])
    def test_first_failure_raises_original_exception(self, batch):
        with pytest.raises(LoweringError):
            run_specs([_spec(), _failing_spec()], batch=batch,
                      use_cache=False)

    def test_batch_without_a_batched_engine_warns_once_then_falls_back(
        self, monkeypatch
    ):
        # A backend outside the batched lanes: batch=True warns exactly
        # once, naming the backend, then takes the per-spec path and
        # matches the serial result bit for bit.
        import warnings

        import repro.exec.executor as executor_mod
        from repro.backends.base import _BACKENDS, Backend, get_backend

        class LanelessBackend(Backend):
            name = "laneless"

            def run(self, spec):
                return get_backend("fluid").run(spec)

            def cache_key(self, spec):
                return None

        monkeypatch.setitem(_BACKENDS, "laneless", LanelessBackend())
        monkeypatch.setattr(executor_mod, "_warned_laneless", set())
        specs = [_spec(1.0, steps=24), _spec(1.5, steps=24)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batched = run_specs(specs, backend="laneless", batch=True,
                                use_cache=False)
            run_specs(specs, backend="laneless", batch=True, use_cache=False)
        laneless = [w for w in caught
                    if "has no batched engine" in str(w.message)]
        assert len(laneless) == 1
        assert "'laneless'" in str(laneless[0].message)
        serial = run_specs(specs, backend="laneless", use_cache=False)
        for a, b in zip(batched, serial):
            _assert_bit_identical(a, b)

    def test_pooled_matches_serial(self):
        specs = [_spec(1.0), _spec(2.0), _spec(3.0)]
        pooled = run_specs(specs, workers=2, use_cache=False)
        serial = run_specs(specs, use_cache=False)
        for a, b in zip(pooled, serial):
            _assert_bit_identical(a, b)

    def test_duplicate_specs_share_one_computation(self):
        spec = _spec()
        traces = run_specs([spec, spec], use_cache=False)
        _assert_bit_identical(traces[0], traces[1])
        assert default_executor().snapshot()["deduped"] == 1


class TestMapCalls:
    def test_results_in_cell_order(self):
        cells = [{"x": i} for i in range(5)]
        assert map_calls(_double, cells) == [0, 2, 4, 6, 8]

    def test_skip_errors_holes(self):
        cells = [{"x": 1}, {"x": -1}, {"x": 2}]
        assert map_calls(_refuses_negative, cells, skip_errors=True) == \
            [1, None, 2]

    def test_error_propagates(self):
        with pytest.raises(ValueError):
            map_calls(_refuses_negative, [{"x": -1}])

    def test_pooled_matches_serial(self):
        cells = [{"x": i} for i in range(4)]
        assert map_calls(_double, cells, workers=2) == map_calls(_double, cells)


def _double(x: int) -> int:
    return 2 * x


def _refuses_negative(x: int) -> int:
    if x < 0:
        raise ValueError("negative")
    return x
