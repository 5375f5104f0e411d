"""Batch planning and error isolation (repro.backends.batch)."""

import numpy as np
import pytest

from repro.backends import ScenarioSpec, run_batched, run_spec
from repro.backends.batch import (
    plan_batches,
    plan_meanfield_batches,
    plan_network_batches,
)
from repro.backends.spec import LoweringError
from repro.model.link import Link
from repro.perf import timing
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.presets import pcc_like


def _aimd_spec(a=1.0, b=0.5, bw=20.0, steps=100, n=2):
    return ScenarioSpec(
        protocols=[AIMD(a, b)] * n,
        link=Link.from_mbps(bw, 42, 100),
        steps=steps,
        initial_windows=[1.0] * n,
    )


def _multilink_spec():
    """A spec only the network backend can run: fluid lowering raises."""
    from repro.netmodel.topology import single_link

    return ScenarioSpec(
        protocols=[AIMD(1.0, 0.5)],
        link=Link.from_mbps(20, 42, 100),
        steps=50,
        topology=single_link(Link.from_mbps(20, 42, 100), 1),
    )


class TestPlanBatches:
    def test_singleton_spec_is_a_batch_of_one(self):
        plan = plan_batches([_aimd_spec()])
        assert plan.fallback == []
        assert len(plan.groups) == 1
        assert plan.groups[0].indices == [0]
        assert plan.groups[0].inputs.batch_size == 1

    def test_groups_by_flow_count_and_horizon(self):
        specs = [
            _aimd_spec(steps=100),
            _aimd_spec(steps=200),
            _aimd_spec(a=2.0, steps=100),  # params differ, steps+flows match
            _aimd_spec(steps=100, n=3),    # flow count differs
        ]
        plan = plan_batches(specs)
        assert plan.fallback == []
        groups = {tuple(g.indices) for g in plan.groups}
        assert groups == {(0, 2), (1,), (3,)}

    def test_mixed_protocol_classes_share_a_group(self):
        """Classes no longer split groups: dispatch is per cell."""
        specs = [
            _aimd_spec(steps=100),
            ScenarioSpec(
                protocols=[MIMD(1.01, 0.875)] * 2,
                link=Link.from_mbps(20, 42, 100),
                steps=100,
                initial_windows=[1.0, 1.0],
            ),
            ScenarioSpec(
                protocols=[AIMD(1.0, 0.5), MIMD(1.02, 0.9)],
                link=Link.from_mbps(40, 42, 100),
                steps=100,
                initial_windows=[1.0, 2.0],
            ),
        ]
        plan = plan_batches(specs)
        assert plan.fallback == []
        assert [g.indices for g in plan.groups] == [[0, 1, 2]]
        inputs = plan.groups[0].inputs
        assert len(inputs.class_table) == 2
        # Cell table: scenario 0 all-AIMD, 1 all-MIMD, 2 mixed per column.
        assert inputs.cell_classes.tolist() == [[0, 0], [1, 1], [0, 1]]
        # Merged param table is NaN where a cell's class lacks the name
        # (all classes here define a and b, so no NaN at all).
        assert np.isfinite(inputs.cell_params["a"]).all()

    def test_stateful_protocol_falls_back(self):
        specs = [
            _aimd_spec(),
            ScenarioSpec(
                protocols=[pcc_like(), AIMD(1.0, 0.5)],
                link=Link.from_mbps(20, 42, 100),
                steps=100,
                initial_windows=[1.0, 1.0],
            ),
        ]
        plan = plan_batches(specs)
        assert plan.fallback == [1]
        assert [g.indices for g in plan.groups] == [[0]]

    def test_stateful_grid_mix_groups_the_batchable_remainder(self):
        """CUBIC/Vegas/PccLike specs fall back; the rest still batch."""
        from repro.protocols.presets import cubic, vegas

        def stateful_spec(protocol):
            return ScenarioSpec(
                protocols=[protocol, AIMD(1.0, 0.5)],
                link=Link.from_mbps(20, 42, 100),
                steps=100,
                initial_windows=[1.0, 1.0],
            )

        specs = [
            _aimd_spec(a=1.0),                                  # 0 batch
            stateful_spec(cubic()),                             # 1
            ScenarioSpec(                                       # 2 batch
                protocols=[AIMD(1.0, 0.5), MIMD(1.02, 0.9)],
                link=Link.from_mbps(40, 42, 100),
                steps=100,
                initial_windows=[1.0, 2.0],
            ),
            stateful_spec(vegas()),                             # 3
            stateful_spec(pcc_like()),                          # 4
            _aimd_spec(a=2.0),                                  # 5 batch
        ]
        plan = plan_batches(specs)
        assert plan.fallback == [1, 3, 4]
        assert [g.indices for g in plan.groups] == [[0, 2, 5]]
        # Results come back in submission order, each equal to its serial
        # run — stateful fallbacks and batched rows interleaved.
        results = run_batched(specs)
        for spec, trace in zip(specs, results):
            reference = run_spec(spec, "fluid", use_cache=False)
            assert np.array_equal(
                np.ascontiguousarray(trace.windows).view(np.uint64),
                np.ascontiguousarray(reference.windows).view(np.uint64),
            )

    def test_unlowerable_spec_falls_back(self):
        plan = plan_batches([_aimd_spec(), _multilink_spec()])
        assert plan.fallback == [1]

    def test_indices_subset_restricts_planning(self):
        specs = [_aimd_spec(), _aimd_spec(a=2.0), _aimd_spec(a=3.0)]
        plan = plan_batches(specs, indices=[0, 2])
        assert plan.groups[0].indices == [0, 2]


class TestErrorIsolation:
    def test_fallback_error_raises_the_serial_exception(self):
        with pytest.raises(LoweringError):
            run_batched([_aimd_spec(), _multilink_spec()])

    def test_backend_without_a_stacked_kernel_is_named(self):
        # Packet specs merge in the executor's scenario lane instead.
        with pytest.raises(ValueError, match=r"'packet'.*fluid, meanfield, network"):
            run_batched([_aimd_spec()], "packet")

    def test_skip_errors_keeps_the_error_without_poisoning_the_batch(self):
        good = [_aimd_spec(a=1.0), _aimd_spec(a=2.0)]
        results = run_batched(
            [good[0], _multilink_spec(), good[1]], skip_errors=True
        )
        assert isinstance(results[1], LoweringError)
        for spec, trace in ((good[0], results[0]), (good[1], results[2])):
            reference = run_spec(spec, "fluid", use_cache=False)
            assert np.array_equal(trace.windows, reference.windows)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_row_is_isolated_and_raises_serially(self):
        """A diverging scenario reruns serially; batchmates are unharmed."""
        # An unbounded-buffer link never signals loss, so the huge additive
        # increase overflows float64 on the second step — exactly the
        # "protocol produced a non-finite window" error the serial engine
        # raises.
        diverging = ScenarioSpec(
            protocols=[AIMD(1e308, 0.5)],
            link=Link.from_mbps(20, 42, float("inf")),
            steps=30,
            initial_windows=[1e308],
            max_window=float("inf"),
        )
        healthy = ScenarioSpec(
            protocols=[AIMD(1.0, 0.5)],
            link=Link.from_mbps(30, 42, 100),
            steps=30,
            initial_windows=[1.0],
            max_window=float("inf"),
        )
        plan = plan_batches([diverging, healthy])
        assert plan.fallback == []  # same group: isolation happens in-kernel
        with pytest.raises(ValueError, match="non-finite"):
            run_batched([diverging, healthy])
        results = run_batched([diverging, healthy], skip_errors=True)
        assert isinstance(results[0], ValueError)
        assert "non-finite" in str(results[0])
        reference = run_spec(healthy, "fluid", use_cache=False)
        assert np.array_equal(results[1].windows, reference.windows)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_row_is_isolated_in_a_heterogeneous_group(self):
        """Divergence detection survives the per-cell class dispatch.

        A mixed-class group (the scenario itself mixes AIMD and MIMD
        columns, its batchmate is all-MIMD) with one diverging row must
        raise the exact serial error, and — with ``skip_errors`` — leave
        the healthy row bit-identical to its serial trace.
        """
        diverging = ScenarioSpec(
            protocols=[AIMD(1e308, 0.5), MIMD(1.01, 0.9)],
            link=Link.from_mbps(20, 42, float("inf")),
            steps=30,
            initial_windows=[1e308, 1.0],
            max_window=float("inf"),
        )
        healthy = ScenarioSpec(
            protocols=[MIMD(1.02, 0.9)] * 2,
            link=Link.from_mbps(30, 42, 100),
            steps=30,
            initial_windows=[1.0, 2.0],
            max_window=float("inf"),
        )
        plan = plan_batches([diverging, healthy])
        assert plan.fallback == []
        assert [g.indices for g in plan.groups] == [[0, 1]]
        assert len(plan.groups[0].inputs.class_table) == 2
        with pytest.raises(ValueError, match="non-finite"):
            run_batched([diverging, healthy])
        results = run_batched([diverging, healthy], skip_errors=True)
        assert isinstance(results[0], ValueError)
        assert "non-finite" in str(results[0])
        reference = run_spec(healthy, "fluid", use_cache=False)
        assert np.array_equal(
            np.ascontiguousarray(results[1].windows).view(np.uint64),
            np.ascontiguousarray(reference.windows).view(np.uint64),
        )


def _dumbbell_spec(a=1.0, bw=20.0, steps=60, n=3, protocols=None):
    from repro.netmodel.topology import dumbbell

    bottleneck = Link.from_mbps(bw, 42, 100)
    return ScenarioSpec(
        protocols=protocols or [AIMD(a, 0.5)] * n,
        link=bottleneck,
        steps=steps,
        topology=dumbbell(Link.from_mbps(200, 10, 200), bottleneck, n),
        initial_windows=[1.0] * (len(protocols) if protocols else n),
    )


def _bit_equal(a, b):
    return np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64),
    )


class TestPlanNetworkBatches:
    def test_mixed_class_grids_share_a_group(self):
        """Protocol classes never split network groups: per-cell dispatch."""
        specs = [
            _dumbbell_spec(a=1.0),
            _dumbbell_spec(protocols=[MIMD(1.01, 0.9)] * 3),
            _dumbbell_spec(protocols=[AIMD(1.0, 0.5), MIMD(1.02, 0.9),
                                      AIMD(2.0, 0.7)]),
        ]
        plan = plan_network_batches(specs)
        assert plan.fallback == []
        assert [g.indices for g in plan.groups] == [[0, 1, 2]]
        inputs = plan.groups[0].inputs
        assert len(inputs.class_table) == 2
        assert inputs.cell_classes.tolist() == [[0, 0, 0], [1, 1, 1], [0, 1, 0]]

    def test_topology_structure_splits_groups(self):
        """Same flow count, different path structure — separate kernels."""
        from repro.netmodel.topology import parking_lot

        link = Link.from_mbps(30, 42, 100)
        lot = ScenarioSpec(
            protocols=[AIMD(1.0, 0.5)] * 4,
            link=link,
            steps=60,
            topology=parking_lot(link, 3),
            initial_windows=[1.0] * 4,
        )
        specs = [_dumbbell_spec(n=4), lot, _dumbbell_spec(a=2.0, n=4)]
        plan = plan_network_batches(specs)
        assert plan.fallback == []
        assert {tuple(g.indices) for g in plan.groups} == {(0, 2), (1,)}

    def test_lossless_spec_batches_at_rate_zero(self):
        """lower_network passes the spec's random_loss_rate on, 0.0 by
        default, and the planner stacks it as the row's rate."""
        spec = _dumbbell_spec()
        assert spec.lower_network()[2]["random_loss_rate"] == 0.0
        plan = plan_network_batches([spec])
        assert plan.fallback == []
        assert float(plan.groups[0].inputs.random_rate[0]) == 0.0

    def test_stateful_protocol_falls_back_and_stays_serial_identical(self):
        specs = [
            _dumbbell_spec(),
            _dumbbell_spec(protocols=[pcc_like(), AIMD(1.0, 0.5),
                                      AIMD(1.0, 0.5)]),
        ]
        plan = plan_network_batches(specs)
        assert plan.fallback == [1]
        results = run_batched(specs, "network")
        for spec, trace in zip(specs, results):
            reference = run_spec(spec, "network", use_cache=False)
            assert _bit_equal(trace.windows, reference.windows)


def _sweep_spec(a=1.0, bw=20.0, steps=80, population=10):
    return ScenarioSpec.from_mbps(
        bw, 42, 100, [AIMD(a, 0.5)],
        steps=steps, flow_multiplicity=population,
    )


class TestPlanMeanFieldBatches:
    def test_single_population_sweeps_share_a_group(self):
        specs = [_sweep_spec(a=a, bw=bw) for a, bw in
                 ((1.0, 10.0), (2.0, 40.0), (0.5, 120.0))]
        plan = plan_meanfield_batches(specs)
        assert plan.fallback == []
        assert [g.indices for g in plan.groups] == [[0, 1, 2]]

    def test_multi_population_spec_is_isolated_per_spec(self):
        """Two densities per scenario exceed the stacked kernel's shape;
        the spec falls back to the serial engine, bit-identically."""
        multi = ScenarioSpec.from_mbps(
            20, 42, 100, [AIMD(1.0, 0.5), MIMD(1.01, 0.9)],
            steps=80, flow_multiplicity=5,
        )
        assert len(multi.lower_meanfield().groups) == 2
        specs = [_sweep_spec(), multi, _sweep_spec(a=2.0)]
        plan = plan_meanfield_batches(specs)
        assert plan.fallback == [1]
        assert [g.indices for g in plan.groups] == [[0, 2]]
        results = run_batched(specs, "meanfield")
        for spec, trace in zip(specs, results):
            reference = run_spec(spec, "meanfield", use_cache=False)
            assert _bit_equal(trace.windows, reference.windows)

    def test_incompatible_grids_are_isolated_per_spec(self):
        """Different cell counts cannot stack; each grid gets its own
        kernel pass and still matches its serial run bit for bit."""
        from repro.meanfield.grid import WindowGrid

        coarse = _sweep_spec()
        scenario = coarse.lower_meanfield()
        scenario.grid = WindowGrid(lo=1.0, hi=200.0, cells=512)
        coarse.lower_meanfield = lambda: scenario
        specs = [coarse, _sweep_spec(a=2.0)]
        plan = plan_meanfield_batches(specs)
        assert plan.fallback == []
        assert {tuple(g.indices) for g in plan.groups} == {(0,), (1,)}
        results = run_batched(specs, "meanfield")
        for spec, trace in zip(specs, results):
            reference = run_spec(spec, "meanfield", use_cache=False)
            assert _bit_equal(trace.windows, reference.windows)

    def test_horizon_splits_groups(self):
        specs = [_sweep_spec(steps=50), _sweep_spec(steps=100),
                 _sweep_spec(a=2.0, steps=50)]
        plan = plan_meanfield_batches(specs)
        assert {tuple(g.indices) for g in plan.groups} == {(0, 2), (1,)}


class TestKernelCounters:
    def test_batched_run_feeds_the_cell_counter(self, monkeypatch):
        # perfbench/tracing.py reads kernel_cells; --timing shows the
        # batch.kernel section. timing.measure is bound to the process-wide
        # registry, so compare its before/after totals instead of swapping
        # the registry out.
        import repro.model.batch as model_batch

        monkeypatch.setattr(model_batch, "_KERNEL_CELLS", 0)
        spent_before = timing.REGISTRY.total("batch.kernel")
        run_batched([_aimd_spec(), _aimd_spec(a=2.0)])
        assert model_batch.kernel_cells() == 2 * 100
        assert timing.REGISTRY.total("batch.kernel") > spent_before
