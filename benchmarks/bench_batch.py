"""Benchmark: the heterogeneous batched dispatch on a mixed-protocol grid.

``bench_figure1.py`` times the batched kernel on a *homogeneous* AIMD
frontier grid. This module times the acceptance case the dispatch
refactor exists for: a Table 1-style grid interleaving AIMD, MIMD and
Robust-AIMD scenarios — which previously planned into one batch *per
protocol class* and now plans into one batch total — must beat the
serial sweep by >= 5x with bit-identical traces, and the consolidated
summary records the measured speedup.
"""

from __future__ import annotations

import time

import numpy as np

from _support import record_summary
from repro.backends import ScenarioSpec, run_spec, run_specs
from repro.backends.batch import plan_batches
from repro.model.link import Link
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD


def _mixed_grid(steps: int = 3000) -> list[ScenarioSpec]:
    """A Table 1-style grid cycling through the three kernel classes.

    60 two-flow scenarios over three bandwidths: per bandwidth, a
    rotation of homogeneous AIMD / MIMD / Robust-AIMD cells plus
    mixed-class cells (AIMD vs MIMD sharing the link), with parameters
    varying per cell so nothing collapses to a cached duplicate.
    """
    specs = []
    for bw_i, bw in enumerate((20.0, 40.0, 60.0)):
        link = Link.from_mbps(bw, 42, 100)
        for i in range(20):
            a = 0.5 + 0.15 * i
            b = 0.2 + 0.03 * i
            mimd_b = 0.5 + 0.015 * i
            protocols = [
                [AIMD(a, b)] * 2,
                [MIMD(1.0 + 0.005 * (i + 1), mimd_b)] * 2,
                [RobustAIMD(a, b, 0.02 + 0.001 * i)] * 2,
                [AIMD(a, b), MIMD(1.0 + 0.004 * (i + 1), mimd_b)],
            ][(bw_i + i) % 4]
            specs.append(
                ScenarioSpec(protocols=protocols, link=link, steps=steps)
            )
    return specs


def test_mixed_protocol_grid_batched_speedup(monkeypatch):
    """Heterogeneous dispatch: one batch, >= 5x, bit-identical."""
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)  # time real runs
    specs = _mixed_grid()
    plan = plan_batches(specs)
    assert plan.fallback == []
    assert len(plan.groups) == 1, "mixed classes must share one batch"
    assert len(plan.groups[0].inputs.class_table) == 3

    t0 = time.perf_counter()
    batched = run_specs(specs, batch=True, use_cache=False)
    t_batched = time.perf_counter() - t0
    t0 = time.perf_counter()
    serial = [run_spec(spec, "fluid", use_cache=False) for spec in specs]
    t_serial = time.perf_counter() - t0

    for s, b in zip(serial, batched):
        assert np.array_equal(
            np.ascontiguousarray(b.windows).view(np.uint64),
            np.ascontiguousarray(s.windows).view(np.uint64),
        )
    speedup = t_serial / t_batched
    record_summary(
        "table1_mixed_batched",
        grid_scenarios=len(specs),
        serial_s=round(t_serial, 4),
        batched_s=round(t_batched, 4),
        speedup=round(speedup, 2),
    )
    print(f"\nmixed-protocol grid: serial {t_serial:.2f}s, "
          f"batched {t_batched:.2f}s ({speedup:.1f}x)")
    assert speedup >= 5.0, f"mixed grid only {speedup:.1f}x faster"
