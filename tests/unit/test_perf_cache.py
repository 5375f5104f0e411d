"""The content-addressed simulation cache (repro.perf.cache)."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.link import Link
from repro.model.random_loss import BernoulliLoss
from repro.perf.cache import (
    CACHE_ENV,
    TraceCache,
    active_cache,
    cache_enabled,
    configure_cache,
    deactivate_cache,
    default_cache_dir,
    simulation_key,
)
from repro.protocols.aimd import AIMD
from repro.protocols.pcc import PccLike
from repro.protocols.robust_aimd import RobustAIMD


@pytest.fixture(autouse=True)
def _clean_cache_state(monkeypatch):
    """Keep the process-global cache state from leaking between tests."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    deactivate_cache()
    yield
    deactivate_cache()


def _key(link, protocols, config, steps=100):
    n = len(protocols)
    initial = list(config.initial_windows or [1.0] * n)
    return simulation_key(link, protocols, config, initial, steps)


class TestSimulationKey:
    def test_stable_across_equal_inputs(self, emulab_link):
        cfg = SimulationConfig(initial_windows=[1.0, 2.0])
        k1 = _key(emulab_link, [AIMD(1, 0.5)] * 2, cfg)
        k2 = _key(emulab_link, [AIMD(1, 0.5)] * 2, cfg)
        assert k1 == k2
        assert len(k1) == 64  # sha256 hex

    def test_sensitive_to_every_input(self, emulab_link, big_link):
        cfg = SimulationConfig(initial_windows=[1.0, 2.0])
        base = _key(emulab_link, [AIMD(1, 0.5)] * 2, cfg)
        assert _key(big_link, [AIMD(1, 0.5)] * 2, cfg) != base
        assert _key(emulab_link, [AIMD(1, 0.6)] * 2, cfg) != base
        assert _key(emulab_link, [AIMD(1, 0.5)] * 2, cfg, steps=101) != base
        other = SimulationConfig(initial_windows=[1.0, 3.0])
        assert _key(emulab_link, [AIMD(1, 0.5)] * 2, other) != base
        lossy = SimulationConfig(
            initial_windows=[1.0, 2.0], loss_process=BernoulliLoss(0.01)
        )
        assert _key(emulab_link, [AIMD(1, 0.5)] * 2, lossy) != base

    def test_close_floats_do_not_collide(self, emulab_link):
        cfg = SimulationConfig(initial_windows=[1.0])
        tweaked = AIMD(1, 0.5 + 1e-16)
        if tweaked.b != 0.5:  # only meaningful if the floats really differ
            assert _key(emulab_link, [tweaked], cfg) != _key(
                emulab_link, [AIMD(1, 0.5)], cfg
            )

    def test_protocol_runtime_state_does_not_leak_into_key(self, emulab_link):
        from repro.model.sender import Observation

        cfg = SimulationConfig(initial_windows=[1.0, 1.0])
        fresh = PccLike()
        used = PccLike()
        window = 10.0
        for step in range(20):  # drive the stateful phase machine
            window = used.next_window(
                Observation(step=step, window=window, loss_rate=0.0,
                            rtt=1.0, min_rtt=1.0)
            )
        assert vars(used) != vars(fresh)  # state really did change
        key_fresh = _key(emulab_link, [fresh] * 2, cfg)
        assert key_fresh is not None  # stateful PccLike is still cacheable
        assert key_fresh == _key(emulab_link, [used] * 2, cfg)

    def test_unkeyable_input_is_uncacheable(self, emulab_link):
        class Weird:
            pass

        cfg = SimulationConfig(initial_windows=[1.0])
        assert (
            simulation_key(Weird(), [AIMD(1, 0.5)], cfg, [1.0], 100) is None
        )


class TestTraceCache:
    def test_round_trip_is_bit_identical(self, tmp_path, emulab_link):
        cache = TraceCache(tmp_path)
        sim = FluidSimulator(
            emulab_link, [AIMD(1, 0.5)] * 3,
            SimulationConfig(initial_windows=[1.0, 2.0, 3.0]),
        )
        trace = sim.run(400)
        key = "ab" + "0" * 62
        cache.put(key, trace)
        loaded = cache.get(key)
        for name in ("windows", "observed_loss", "congestion_loss", "rtts",
                     "capacities", "pipe_limits", "base_rtts"):
            a = getattr(trace, name)
            b = getattr(loaded, name)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name

    def test_hit_and_miss_counters(self, tmp_path, emulab_link):
        cache = TraceCache(tmp_path)
        key = "cd" + "1" * 62
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        trace = FluidSimulator(emulab_link, [AIMD(1, 0.5)]).run(50)
        cache.put(key, trace)
        assert cache.get(key) is not None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_is_dropped_as_miss(self, tmp_path, emulab_link):
        cache = TraceCache(tmp_path)
        key = "ef" + "2" * 62
        trace = FluidSimulator(emulab_link, [AIMD(1, 0.5)]).run(50)
        path = cache.put(key, trace)
        path.write_bytes(b"not an npz file")
        assert cache.get(key) is None
        assert not path.exists()

    def test_clear_and_stats(self, tmp_path, emulab_link):
        cache = TraceCache(tmp_path)
        trace = FluidSimulator(emulab_link, [AIMD(1, 0.5)]).run(50)
        cache.put("11" + "a" * 62, trace)
        cache.put("22" + "b" * 62, trace)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_default_directory_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        monkeypatch.delenv("REPRO_SIM_CACHE")
        assert default_cache_dir() == Path("~/.cache/repro/sim").expanduser()

    def test_unwritable_directory_is_best_effort(self, tmp_path, emulab_link):
        # A bogus cache location (here: a regular file) must not kill the
        # simulation whose trace was being archived.
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("in the way")
        cache = TraceCache(bogus)
        trace = FluidSimulator(emulab_link, [AIMD(1, 0.5)]).run(50)
        assert cache.put("33" + "c" * 62, trace) is None
        assert cache.get("33" + "c" * 62) is None
        assert cache.stats()["entries"] == 0
        assert cache.clear() == 0


class TestActivation:
    def test_inactive_by_default(self):
        assert active_cache() is None

    def test_configure_and_deactivate(self, tmp_path):
        cache = configure_cache(tmp_path)
        assert active_cache() is cache
        assert os.environ[CACHE_ENV] == str(tmp_path)
        deactivate_cache()
        assert active_cache() is None
        assert CACHE_ENV not in os.environ

    def test_env_variable_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        cache = active_cache()
        assert cache is not None
        assert cache.directory == tmp_path

    def test_cache_enabled_scopes_activation(self, tmp_path):
        with cache_enabled(tmp_path) as cache:
            assert active_cache() is cache
            assert os.environ[CACHE_ENV] == str(tmp_path)
        assert active_cache() is None
        assert CACHE_ENV not in os.environ


class TestSimulatorIntegration:
    """Fluid runs reach the store through ``run_spec``, never directly."""

    @staticmethod
    def _run(link, protocols, cfg, steps):
        from repro.backends import ScenarioSpec, run_spec

        return run_spec(ScenarioSpec.from_fluid(link, protocols, steps, cfg))

    def test_second_run_hits_and_matches_bitwise(self, tmp_path, emulab_link):
        with cache_enabled(tmp_path) as cache:
            cfg = SimulationConfig(initial_windows=[1.0, 5.0])
            protocols = [RobustAIMD(1, 0.8, 0.01)] * 2
            first = self._run(emulab_link, protocols, cfg, 400)
            second = self._run(emulab_link, protocols, cfg, 400)
            assert cache.hits == 1
            # The executor reads a key once: the cold run is one miss.
            assert cache.misses == 1
            assert np.array_equal(
                first.windows.view(np.uint64), second.windows.view(np.uint64)
            )

    def test_cached_result_matches_uncached(self, tmp_path, emulab_link):
        cfg = SimulationConfig(initial_windows=[1.0, 2.0])
        uncached = FluidSimulator(emulab_link, [AIMD(1, 0.5)] * 2, cfg).run(300)
        with cache_enabled(tmp_path) as cache:
            # A direct simulator run never touches the store.
            FluidSimulator(emulab_link, [AIMD(1, 0.5)] * 2, cfg).run(300)
            assert cache.entries() == [] and cache.misses == 0
            self._run(emulab_link, [AIMD(1, 0.5)] * 2, cfg, 300)
            cached = self._run(emulab_link, [AIMD(1, 0.5)] * 2, cfg, 300)
            assert cache.hits == 1
        assert np.array_equal(
            uncached.windows.view(np.uint64), cached.windows.view(np.uint64)
        )

    def test_different_steps_do_not_collide(self, tmp_path, emulab_link):
        with cache_enabled(tmp_path) as cache:
            cfg = SimulationConfig(initial_windows=[1.0])
            long = self._run(emulab_link, [AIMD(1, 0.5)], cfg, 200)
            short = self._run(emulab_link, [AIMD(1, 0.5)], cfg, 100)
            assert long.windows.shape == (200, 1)
            assert short.windows.shape == (100, 1)
            assert len(cache.entries()) == 2
