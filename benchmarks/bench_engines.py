"""Microbenchmarks of the two simulation substrates.

These are genuine performance benchmarks (multiple rounds), tracking the
step rate of the fluid engine and the event rate of the packet engine so
regressions in the hot loops are visible. Results are merged into
``benchmarks/results/summary.json`` under ``engines``:

- ``fluid_run_ms``: the median wall time of one ``FluidSimulator.run``
  for AIMD, MIMD and Robust-AIMD at n = 2, 8 and 16 flows and 1,000 and
  4,000 steps. ``run`` picks the loop: n = 2 takes the general
  per-sender loop, n = 8 and 16 the row path.
- ``fluid_loop_cutoff_ms``: both loops timed directly at n = 2 to 6 and
  8 in 11 back-to-back pairs whose order alternates; per cell, each
  side's median and the median and quartiles of the per-pair
  general/row ratio. It is the measurement behind the flow count at
  which ``run`` switches loops (``_GENERAL_LOOP_MAX_FLOWS`` in
  ``repro.model.dynamics``).
- ``fluid_general_ns_per_flow_step``: a Reno + CUBIC pair, which only
  the general loop can run; ``packet_ns_per_event``: the packet engine.

The 4,000-step runs and the cutoff sweep are marked ``slow``, so
``-m "not slow"`` keeps this module near its old cost; ``bench_all.py``
runs them unless given ``--skip-slow``.
"""

from __future__ import annotations

import statistics
import time

import pytest
from _support import load_summary, record_summary

from repro.model.dynamics import FluidSimulator
from repro.model.link import Link
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.protocols import presets
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD

_PROTOCOLS = {
    "aimd": lambda: AIMD(1, 0.5),
    "mimd": lambda: MIMD(1.01, 0.875),
    "robust-aimd": lambda: RobustAIMD(1, 0.8, 0.01),
}
_LINK = Link.from_mbps(20, 42, 100)


def _merge(name: str, value) -> None:
    numbers = load_summary().get("engines", {})
    numbers[name] = value
    record_summary("engines", **numbers)


def _record(benchmark, name: str, units: int) -> None:
    """Merge the median nanoseconds per unit of work into summary.json."""
    if benchmark.stats is None:  # --benchmark-disable: nothing was timed
        return
    _merge(name, round(1e9 * benchmark.stats.stats.median / units, 1))


@pytest.mark.parametrize(
    "steps", [1000, pytest.param(4000, marks=pytest.mark.slow)]
)
@pytest.mark.parametrize("n", [2, 8, 16])
@pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
def test_fluid_single_run(benchmark, protocol, n, steps):
    """One homogeneous synchronized run, timed through ``run``."""
    simulator = FluidSimulator(_LINK, [_PROTOCOLS[protocol]()] * n)

    trace = benchmark(simulator.run, steps)
    assert trace.windows.shape == (steps, n)
    if benchmark.stats is None:
        return
    runs = load_summary().get("engines", {}).get("fluid_run_ms", {})
    runs[f"{protocol} n={n} steps={steps}"] = round(
        1e3 * benchmark.stats.stats.median, 2
    )
    _merge("fluid_run_ms", runs)


@pytest.mark.slow
def test_fluid_loop_cutoff():
    """Both loops at the flow counts around the switch, in alternating pairs.

    Each repetition times one general-loop run and one row-path run back
    to back, and which loop goes first alternates, so a clock shift
    within a cell falls on both sides. A pair's general/row ratio above
    1 means the row path was the faster of the pair.
    """
    timings = {}
    for protocol, make in sorted(_PROTOCOLS.items()):
        for n in (2, 3, 4, 5, 6, 8):
            simulator = FluidSimulator(_LINK, [make()] * n)
            loops = (
                ("general", simulator._run_general),
                ("row", simulator._run_vectorized),
            )
            samples = {name: [] for name, _ in loops}
            for repetition in range(11):
                for name, loop in loops if repetition % 2 == 0 else loops[::-1]:
                    start = time.perf_counter()
                    loop(1000)
                    samples[name].append(time.perf_counter() - start)
            ratios = [
                general / row
                for general, row in zip(samples["general"], samples["row"])
            ]
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            timings[f"{protocol} n={n}"] = {
                "general_ms": round(1e3 * statistics.median(samples["general"]), 2),
                "row_ms": round(1e3 * statistics.median(samples["row"]), 2),
                "ratio_median": round(statistics.median(ratios), 3),
                "ratio_q1": round(q1, 3),
                "ratio_q3": round(q3, 3),
            }
    _merge("fluid_loop_cutoff_ms", timings)


def test_fluid_engine_general_loop(benchmark):
    """A heterogeneous loss-based pair, which only the general loop runs."""
    simulator = FluidSimulator(_LINK, [presets.reno(), presets.cubic()])

    trace = benchmark(lambda: simulator.run(2000))
    assert trace.steps == 2000
    _record(benchmark, "fluid_general_ns_per_flow_step", 2000 * 2)


def test_packet_engine_event_rate(benchmark):
    def run():
        scenario = PacketScenario.from_mbps(
            20, 42, 100, [presets.reno(), presets.reno()], duration=10.0
        )
        return run_scenario(scenario)

    result = benchmark(run)
    assert result.events > 10_000
    _record(benchmark, "packet_ns_per_event", result.events)


def test_metric_vector_estimation_cost(benchmark):
    """End-to-end cost of characterizing one protocol on one link."""
    from repro.core.metrics import EstimatorConfig, estimate_all_metrics

    link = Link.from_mbps(20, 42, 100)
    config = EstimatorConfig(steps=1000, n_senders=2)

    def run():
        return estimate_all_metrics(
            AIMD(1, 0.5), link, config, include_robustness=False
        )

    vector = benchmark(run)
    assert vector.efficiency > 0.5
