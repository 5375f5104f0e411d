"""Sweeps through the executor's per-job and batched lanes.

A sweep is one submission of independent jobs. Without ``batch`` the
executor's per-job lane runs them in a serial loop; with it, the batch
kernel takes what it can express. Either way results come back in
submission order, a failing job leaves a ``None`` hole with
``skip_errors``, and otherwise the first failure in submission order
raises its original exception.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import LoweringError, ScenarioSpec, run_on, run_specs
from repro.core.metrics.friendliness import friendliness_from_trace
from repro.exec import Executor, SpecJob, reset_default_executor
from repro.experiments.table2 import friendliness_spec
from repro.model.link import Link
from repro.netmodel.topology import single_link
from repro.protocols.aimd import AIMD
from repro.protocols.presets import pcc_like
from repro.protocols.robust_aimd import RobustAIMD

_LINK = Link.from_mbps(20, 42, 100)


def _spec(alpha: float, steps: int = 24) -> ScenarioSpec:
    return ScenarioSpec(protocols=[AIMD(alpha, 0.5)] * 2, link=_LINK, steps=steps)


def _fails_on_fluid() -> SpecJob:
    """Constructs fine; the fluid backend rejects its topology."""
    spec = ScenarioSpec(protocols=[AIMD(1, 0.5)] * 2, link=_LINK, steps=24,
                        topology=single_link(_LINK, 1))
    return SpecJob(spec=spec)


def _fails_on_meanfield() -> SpecJob:
    """A stateful protocol the mean-field backend cannot lower."""
    spec = ScenarioSpec(protocols=[pcc_like()], link=_LINK, steps=24)
    return SpecJob(spec=spec, backend="meanfield")


def _bits(trace) -> list:
    return [
        np.ascontiguousarray(getattr(trace, name)).view(np.uint64).tolist()
        for name in ("windows", "observed_loss", "congestion_loss", "rtts")
    ]


def _reference(specs) -> list:
    """The engine's own results, one spec at a time, outside the executor."""
    return [_bits(run_on("fluid", spec)) for spec in specs]


@pytest.fixture(autouse=True)
def _fresh_default_executor():
    reset_default_executor()
    yield
    reset_default_executor()


class TestRun:
    def test_measures_every_cell(self):
        specs = [_spec(alpha) for alpha in (1.0, 2.0, 3.0)]
        traces = run_specs(specs, use_cache=False)
        assert [_bits(trace) for trace in traces] == _reference(specs)

    def test_errors_propagate_by_default(self):
        with pytest.raises(LoweringError):
            Executor().run([_fails_on_fluid()], use_cache=False)

    def test_skip_errors_records_them(self):
        jobs = [SpecJob(_spec(1.0)), _fails_on_fluid(), SpecJob(_spec(2.0))]
        outcomes = Executor().submit(jobs, use_cache=False, skip_errors=True)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].value is None
        assert outcomes[1].error.startswith("LoweringError: ")
        assert [_bits(outcomes[i].value) for i in (0, 2)] == _reference(
            [_spec(1.0), _spec(2.0)]
        )

    def test_errors_reset_between_runs(self):
        executor = Executor()
        jobs = [SpecJob(_spec(1.0)), _fails_on_fluid()]
        for _ in range(2):
            outcomes = executor.submit(jobs, use_cache=False, skip_errors=True)
            assert [o.ok for o in outcomes] == [True, False]
        assert executor.snapshot()["errors"] == 2

    def test_real_measurement(self):
        # A miniature Table 2-style sweep through the actual simulator.
        traces = run_specs(
            [friendliness_spec(AIMD(a, 0.5), 2, 20, steps=800) for a in (1.0, 2.0)],
            use_cache=False,
        )
        alphas = [friendliness_from_trace(t, [0], [1]) for t in traces]
        # Larger increment -> less friendly.
        assert alphas[0] > alphas[1]


class TestGrid:
    def test_rows_identical_to_serial(self):
        specs = [_spec(alpha) for alpha in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)]
        batched = run_specs(specs, batch=True, use_cache=False)
        # Same values AND same order.
        assert [_bits(trace) for trace in batched] == _reference(specs)

    def test_errors_propagate_in_grid_order(self):
        jobs = [SpecJob(_spec(1.0)), _fails_on_fluid(), _fails_on_meanfield()]
        with pytest.raises(LoweringError, match="single-link"):
            Executor().run(jobs, use_cache=False)
        with pytest.raises(LoweringError, match="mean-field"):
            Executor().run(jobs[::-1], use_cache=False)

    def test_skip_errors_records_them_in_grid_order(self):
        jobs = [SpecJob(_spec(1.0)), _fails_on_meanfield(), SpecJob(_spec(2.0))]
        outcomes = Executor().submit(jobs, use_cache=False, skip_errors=True)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].value is None
        assert "mean-field" in outcomes[1].error
        assert [_bits(outcomes[i].value) for i in (0, 2)] == _reference(
            [_spec(1.0), _spec(2.0)]
        )

    def test_real_measurement_batched_matches_serial(self):
        # A miniature Table 2-sized grid through the actual simulator; the
        # traces must be identical bits, not merely close.
        specs = [
            friendliness_spec(RobustAIMD(1, 0.8, 0.01), n, bw, steps=300)
            for n in (2, 3) for bw in (20, 30)
        ]
        serial = run_specs(specs, use_cache=False)
        batched = run_specs(specs, batch=True, use_cache=False)
        assert [_bits(t) for t in batched] == [_bits(t) for t in serial]
