"""Microbenchmarks of the two simulation substrates.

These are genuine performance benchmarks (multiple rounds), tracking the
step rate of the fluid engine and the event rate of the packet engine so
regressions in the hot loops are visible. The two homogeneous AIMD cases
take the fluid engine's vectorized path; the Reno + CUBIC pair is
heterogeneous, so it times the per-sender general loop. Each case's
median cost per flow-step (fluid) or per event (packet) is merged into
``benchmarks/results/summary.json`` under ``engines``.
"""

from __future__ import annotations

from _support import load_summary, record_summary

from repro.model.dynamics import FluidSimulator
from repro.model.link import Link
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.protocols import presets
from repro.protocols.aimd import AIMD


def _record(benchmark, name: str, units: int) -> None:
    """Merge the median nanoseconds per unit of work into summary.json."""
    if benchmark.stats is None:  # --benchmark-disable: nothing was timed
        return
    numbers = load_summary().get("engines", {})
    numbers[name] = round(1e9 * benchmark.stats.stats.median / units, 1)
    record_summary("engines", **numbers)


def test_fluid_engine_step_rate(benchmark):
    link = Link.from_mbps(20, 42, 100)

    def run():
        return FluidSimulator(link, [AIMD(1, 0.5)] * 4).run(2000)

    trace = benchmark(run)
    assert trace.steps == 2000
    _record(benchmark, "fluid_vectorized_ns_per_flow_step", 2000 * 4)


def test_fluid_engine_many_senders(benchmark):
    link = Link.from_mbps(100, 42, 100)

    def run():
        return FluidSimulator(link, [AIMD(1, 0.5)] * 16).run(500)

    trace = benchmark(run)
    assert trace.n_senders == 16
    _record(benchmark, "fluid_vectorized_16_ns_per_flow_step", 500 * 16)


def test_fluid_engine_general_loop(benchmark):
    """A heterogeneous loss-based pair, which only the general loop runs."""
    link = Link.from_mbps(20, 42, 100)
    simulator = FluidSimulator(link, [presets.reno(), presets.cubic()])
    assert not simulator._fast_path_eligible()

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
