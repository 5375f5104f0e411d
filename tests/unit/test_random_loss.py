"""Non-congestion loss processes (repro.model.random_loss)."""

import pytest

from repro.backends import ScenarioSpec
from repro.model.link import Link
from repro.model.random_loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    NoLoss,
    TraceLoss,
    combine_loss,
)
from repro.perf.store import unified_key
from repro.protocols import presets


class TestCombine:
    def test_zero_plus_zero(self):
        assert combine_loss(0.0, 0.0) == 0.0

    def test_one_source_only(self):
        assert combine_loss(0.3, 0.0) == pytest.approx(0.3)
        assert combine_loss(0.0, 0.3) == pytest.approx(0.3)

    def test_independent_combination(self):
        assert combine_loss(0.5, 0.5) == pytest.approx(0.75)

    def test_saturates_at_one(self):
        assert combine_loss(1.0, 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_range_validation(self, bad):
        with pytest.raises(ValueError):
            combine_loss(bad, 0.0)
        with pytest.raises(ValueError):
            combine_loss(0.0, bad)


class TestNoLoss:
    def test_always_zero(self):
        process = NoLoss()
        assert process.rate(0, 0) == 0.0
        assert process.rate(999, 5) == 0.0
        process.reset()  # no-op


class TestBernoulli:
    def test_deterministic_constant_rate(self):
        process = BernoulliLoss(0.05)
        assert all(process.rate(t, 0) == 0.05 for t in range(50))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)
        with pytest.raises(ValueError):
            BernoulliLoss(0.1, p_active=2.0)

    def test_stochastic_mode_is_seeded(self):
        p1 = BernoulliLoss(0.1, deterministic=False, seed=7)
        p2 = BernoulliLoss(0.1, deterministic=False, seed=7)
        rates1 = [p1.rate(t, 0) for t in range(100)]
        rates2 = [p2.rate(t, 0) for t in range(100)]
        assert rates1 == rates2

    def test_stochastic_mode_caches_per_step(self):
        process = BernoulliLoss(0.1, deterministic=False, seed=1)
        assert process.rate(3, 0) == process.rate(3, 0)

    def test_reset_replays_sequence(self):
        process = BernoulliLoss(0.1, deterministic=False, seed=3)
        first = [process.rate(t, 0) for t in range(20)]
        process.reset()
        second = [process.rate(t, 0) for t in range(20)]
        assert first == second

    def test_stochastic_values_are_zero_or_p(self):
        process = BernoulliLoss(0.1, deterministic=False, p_active=0.5)
        values = {process.rate(t, 0) for t in range(200)}
        assert values <= {0.0, 0.1}
        assert len(values) == 2  # both outcomes occur


    def test_deterministic_mode_builds_no_generator(self):
        # A spec's random_loss_rate lowers to this mode, and a generator
        # would load numpy.random into a server that never draws.
        process = BernoulliLoss(0.05)
        process.rate(3, 0)
        process.reset()
        assert "_rng" not in vars(process)

    def test_seeded_draws_are_pinned(self):
        # The sequence the generator drew when it was built eagerly.
        process = BernoulliLoss(0.1, deterministic=False, p_active=0.5, seed=11)
        for _ in range(2):
            drawn = "".join("1" if process.rate(t, t % 2) else "0" for t in range(48))
            assert drawn == "110110110010011000000101101001111011010111110011"
            process.reset()

    def test_loss_process_keys_are_pinned(self):
        # Keys of specs carrying the process, pinned from when the generator
        # was built eagerly: the keyer skipped it then and never sees it now.
        link = Link.from_mbps(20, 42, 100)
        flipping = BernoulliLoss(0.05, deterministic=False, seed=4)
        for step in range(30):  # draws made before keying do not move the key
            flipping.rate(step, 0)
        keys = [
            unified_key("fluid", ScenarioSpec(
                protocols=[presets.reno(), presets.reno()], link=link, steps=300,
                loss_process=process,
            ))
            for process in (BernoulliLoss(0.02), flipping)
        ]
        assert keys == [
            "55f97a6264708958657d8f65f62b430d37058aa6e0dd92c0d2f295ce5799d9e0",
            "488318eb9ce9a418770ddba18fd33fb77e36ea40eca56b31832d4b4d1fb07b5e",
        ]


class TestGilbertElliott:
    def test_rates_are_state_values(self):
        process = GilbertElliottLoss(loss_good=0.0, loss_bad=0.2, seed=1)
        values = {process.rate(t, 0) for t in range(500)}
        assert values <= {0.0, 0.2}

    def test_bad_state_reachable(self):
        process = GilbertElliottLoss(p_gb=0.2, p_bg=0.2, loss_bad=0.3, seed=2)
        values = [process.rate(t, 0) for t in range(300)]
        assert 0.3 in values

    def test_burstiness(self):
        # With sticky states, consecutive steps often share their rate.
        process = GilbertElliottLoss(p_gb=0.05, p_bg=0.05, loss_bad=1.0, seed=3)
        values = [process.rate(t, 0) for t in range(400)]
        same = sum(1 for a, b in zip(values, values[1:]) if a == b)
        assert same > 300

    def test_per_sender_chains_independent(self):
        process = GilbertElliottLoss(p_gb=0.3, p_bg=0.3, loss_bad=1.0, seed=4)
        a = [process.rate(t, 0) for t in range(100)]
        b = [process.rate(t, 1) for t in range(100)]
        assert a != b

    def test_reset_and_determinism(self):
        process = GilbertElliottLoss(seed=5)
        first = [process.rate(t, 0) for t in range(100)]
        process.reset()
        second = [process.rate(t, 0) for t in range(100)]
        assert first == second

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_gb=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(loss_bad=-0.1)

    def test_cached_rate_is_stable_even_queried_out_of_order(self):
        process = GilbertElliottLoss(p_gb=0.3, p_bg=0.3, seed=6)
        late = process.rate(10, 0)
        early = process.rate(5, 0)  # cache miss behind the chain; allowed
        assert process.rate(10, 0) == late
        assert process.rate(5, 0) == early


class TestTraceLoss:
    def test_replays_sequence(self):
        process = TraceLoss([0.0, 0.1, 0.2])
        assert [process.rate(t, 0) for t in range(3)] == [0.0, 0.1, 0.2]

    def test_final_value_persists(self):
        process = TraceLoss([0.0, 0.3])
        assert process.rate(100, 0) == pytest.approx(0.3)

    def test_same_for_all_senders(self):
        process = TraceLoss([0.1])
        assert process.rate(0, 0) == process.rate(0, 7)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceLoss([])

    def test_out_of_range_rates_rejected(self):
        with pytest.raises(ValueError):
            TraceLoss([0.0, 1.2])

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            TraceLoss([0.1]).rate(-1, 0)
