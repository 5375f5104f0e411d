"""Bit-identity properties of the unified backend layer.

The backend layer must be a pure re-expression: lowering a
``ScenarioSpec`` to an engine and adapting the result back cannot change
a single bit relative to driving that engine by hand, and a trace served
from the unified cache must equal the trace computed fresh. Exact
``np.array_equal`` throughout — no tolerances.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ScenarioSpec, run_spec
from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.link import Link
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.perf.cache import cache_enabled, simulation_key
from repro.perf.store import unified_key
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD

links = st.builds(
    Link.from_mbps,
    bandwidth_mbps=st.sampled_from([10.0, 20.0, 60.0]),
    rtt_ms=st.sampled_from([10.0, 42.0]),
    buffer_mss=st.sampled_from([10.0, 100.0]),
)
protocol_lists = st.lists(
    st.one_of(
        st.builds(AIMD, st.sampled_from([0.5, 1.0, 2.0]),
                  st.sampled_from([0.5, 0.8])),
        st.builds(MIMD, st.just(1.01), st.just(0.875)),
    ),
    min_size=1,
    max_size=3,
)


def _trace_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
        for name in ("windows", "observed_loss", "congestion_loss", "rtts",
                     "capacities", "pipe_limits", "base_rtts")
    )


@settings(deadline=None, max_examples=25)
@given(
    link=links,
    protocols=protocol_lists,
    steps=st.integers(min_value=16, max_value=96),
    loss=st.sampled_from([0.0, 0.01]),
    slow_start=st.booleans(),
)
def test_fluid_lowering_is_bit_identical_to_hand_driver(
    link, protocols, steps, loss, slow_start
):
    spec = ScenarioSpec(
        protocols=protocols, link=link, steps=steps,
        random_loss_rate=loss, slow_start=slow_start,
    )
    unified = run_spec(spec, "fluid", use_cache=False)

    lowered_link, lowered_protocols, config, lowered_steps = spec.lower_fluid()
    reference = FluidSimulator(
        lowered_link, lowered_protocols, config=config
    ).run(lowered_steps)
    assert lowered_steps == steps
    assert _trace_equal(unified, reference)
    assert unified.backend == "fluid"
    assert np.array_equal(
        unified.flow_rtts,
        np.repeat(reference.rtts[:, None], len(protocols), axis=1),
    )


@settings(deadline=None, max_examples=25)
@given(
    link=links,
    protocols=protocol_lists,
    steps=st.integers(min_value=16, max_value=96),
    spread=st.booleans(),
)
def test_from_fluid_round_trip_preserves_config_and_key(
    link, protocols, steps, spread
):
    initial = [1.0 + (i if spread else 0.0) for i in range(len(protocols))]
    config = SimulationConfig(initial_windows=initial)
    spec = ScenarioSpec.from_fluid(link, protocols, steps, config)
    lowered_link, lowered_protocols, lowered_config, lowered_steps = (
        spec.lower_fluid()
    )
    assert lowered_link == link
    assert lowered_steps == steps
    # The schedule round-trips by content (an empty one normalizes to a
    # fresh default); every other field is the very same value.
    assert dataclasses.asdict(lowered_config) == dataclasses.asdict(config)
    assert (
        simulation_key(lowered_link, lowered_protocols, lowered_config,
                       lowered_config.initial_windows, lowered_steps)
        == simulation_key(link, protocols, config,
                          config.initial_windows, steps)
    )


@settings(deadline=None, max_examples=25)
@given(
    protocols=protocol_lists,
    duration=st.sampled_from([4.0, 8.0]),
    loss=st.sampled_from([0.0, 0.01]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_packet_lowering_is_field_identical(protocols, duration, loss, seed):
    spec = ScenarioSpec.from_mbps(
        20, 42, 100, protocols, duration=duration,
        random_loss_rate=loss, seed=seed,
    )
    lowered = spec.lower_packet()
    reference = PacketScenario.from_mbps(
        20, 42, 100, protocols, duration=duration,
        random_loss_rate=loss, seed=seed,
    )
    assert lowered.link == reference.link
    assert lowered.duration == reference.duration
    assert lowered.initial_window == reference.initial_window
    assert lowered.random_loss_rate == reference.random_loss_rate
    assert lowered.seed == reference.seed
    assert lowered.start_times == reference.start_times
    assert [type(p) for p in lowered.protocols] == [
        type(p) for p in reference.protocols
    ]
    # Same engine, same stats — flow for flow.
    ours = run_scenario(lowered)
    theirs = run_scenario(reference)
    assert ours.throughputs() == theirs.throughputs()
    for a, b in zip(ours.flows, theirs.flows):
        assert a.window_samples == b.window_samples
        assert (a.packets_acked, a.packets_lost) == (
            b.packets_acked, b.packets_lost
        )


@settings(deadline=None, max_examples=10)
@given(
    backend_name=st.sampled_from(["fluid", "network", "packet"]),
    steps=st.integers(min_value=16, max_value=64),
    loss=st.sampled_from([0.0, 0.01]),
)
def test_cached_run_equals_uncached_run(tmp_path_factory, backend_name,
                                        steps, loss):
    spec = ScenarioSpec(
        protocols=[AIMD(1.0, 0.5), AIMD(1.0, 0.8)],
        link=Link.from_mbps(20, 42, 100),
        steps=steps,
        random_loss_rate=loss if backend_name != "network" else 0.0,
        seed=1,
    )
    fresh = run_spec(spec, backend_name, use_cache=False)
    directory = tmp_path_factory.mktemp(f"unified-{backend_name}")
    with cache_enabled(directory) as cache:
        warm = run_spec(spec, backend_name)  # miss: runs and stores
        hit = run_spec(spec, backend_name)   # hit: served from the store
        key = unified_key(backend_name, spec)
        assert key is not None
        assert cache.stats()["entries"] >= 1
    assert _trace_equal(fresh, warm)
    assert _trace_equal(warm, hit)
    assert warm.backend == hit.backend == backend_name
    assert np.array_equal(warm.flow_rtts, hit.flow_rtts, equal_nan=True)
    if warm.times is None:
        assert hit.times is None
    else:
        assert np.array_equal(warm.times, hit.times, equal_nan=True)


def test_cache_keys_distinct_across_backends():
    spec = ScenarioSpec(
        protocols=[AIMD(1.0, 0.5)], link=Link.from_mbps(20, 42, 100), steps=32
    )
    keys = {
        name: unified_key(name, spec) for name in ("fluid", "network", "packet")
    }
    assert all(isinstance(k, str) and len(k) == 64 for k in keys.values())
    assert len(set(keys.values())) == 3
