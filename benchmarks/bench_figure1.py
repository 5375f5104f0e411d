"""Benchmark/regeneration target for **Figure 1** (the Pareto frontier).

Regenerates the figure's surface
``(alpha, beta) -> 3(1 - beta) / (alpha (1 + beta))`` over the plotted
range, verifies the frontier property (mutual non-domination), and
validates attainment: ``AIMD(alpha, beta)`` measured in the fluid model
lands on the surface.
"""

from __future__ import annotations

import time

import numpy as np

from _support import record_summary
from repro.core.metrics import EstimatorConfig
from repro.experiments.figure1 import (
    measure_aimd_point,
    measure_aimd_points,
    render_figure1,
    run_figure1,
)
from repro.experiments.results import save_result

_printed = False


def _run():
    return run_figure1(
        alphas=list(np.linspace(0.25, 4.0, 16)),
        betas=list(np.linspace(0.05, 0.95, 19)),
        empirical_alphas=[0.5, 1.0, 2.0],
        empirical_betas=[0.3, 0.5, 0.8],
        config=EstimatorConfig(steps=3000, n_senders=2),
    )


def test_figure1_regeneration(benchmark, results_dir):
    result = benchmark.pedantic(_run, rounds=1, iterations=1, warmup_rounds=0)
    global _printed
    if not _printed:
        _printed = True
        print()
        print(render_figure1(result))
        save_result(result, results_dir / "figure1.json")
    assert result.mutually_non_dominated
    assert len(result.surface) == 16 * 19
    # Attainment: AIMD realizes the surface within 10%.
    assert result.max_friendliness_error < 0.1


def test_figure1_batched_speedup(results_dir, monkeypatch):
    """The batched kernel beats the serial sweep >= 5x on the frontier grid.

    A 60-point (alpha, beta) grid — every point expanding to its three
    estimator scenarios — measured serially and through
    ``run_specs(batch=True)``; the scores must be equal *floats* (the
    kernel's bit-identity contract) and the consolidated summary records
    the speedup.
    """
    from repro.model.link import Link

    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)  # time real runs
    link = Link.from_mbps(20, 42, 100)
    config = EstimatorConfig(steps=3000, n_senders=2)
    points = [
        (a, b)
        for a in np.linspace(0.25, 4.0, 6)
        for b in np.linspace(0.1, 0.9, 10)
    ]

    t0 = time.perf_counter()
    batched = measure_aimd_points(points, link, config, batch=True, use_cache=False)
    t_batched = time.perf_counter() - t0
    t0 = time.perf_counter()
    serial = [measure_aimd_point(a, b, link, config) for a, b in points]
    t_serial = time.perf_counter() - t0

    for s, b in zip(serial, batched):
        assert s.measured_fast_utilization == b.measured_fast_utilization
        assert s.measured_efficiency == b.measured_efficiency
        assert s.measured_friendliness == b.measured_friendliness
    speedup = t_serial / t_batched
    record_summary(
        "figure1_batched",
        grid_points=len(points),
        serial_s=round(t_serial, 4),
        batched_s=round(t_batched, 4),
        speedup=round(speedup, 2),
    )
    print(f"\nfrontier grid: serial {t_serial:.2f}s, batched {t_batched:.2f}s "
          f"({speedup:.1f}x)")
    assert speedup >= 5.0, f"batched frontier grid only {speedup:.1f}x faster"
