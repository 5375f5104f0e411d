"""Combining congestion loss with a random loss rate (repro.model.random_loss)."""

import pytest

from repro.model.random_loss import combine_loss


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
