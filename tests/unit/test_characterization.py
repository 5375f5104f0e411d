"""Protocol characterization and hierarchy helpers (repro.core.characterization)."""

import pytest

from repro.core.characterization import (
    CharacterizationResult,
    characterize,
    hierarchy,
    theoretical_row_for,
)
from repro.core.metrics import EstimatorConfig, MetricVector
from repro.protocols.aimd import AIMD
from repro.protocols.binomial import BIN
from repro.protocols.cubic import CUBIC
from repro.protocols.mimd import MIMD
from repro.protocols.pcc import PccLike
from repro.protocols.robust_aimd import RobustAIMD


class TestTheoreticalRowFor:
    def test_known_families_resolve(self, emulab_link):
        for protocol in (AIMD(1, 0.5), MIMD(1.01, 0.875), BIN(1, 1, 1, 0),
                         CUBIC(0.4, 0.8), RobustAIMD(1, 0.8, 0.01)):
            row = theoretical_row_for(protocol, emulab_link, 2)
            assert row is not None
            assert protocol.name == row.protocol

    def test_robust_aimd_not_shadowed_by_aimd(self, emulab_link):
        # RobustAIMD must resolve to its own row even though it could be
        # confused with the AIMD family.
        row = theoretical_row_for(RobustAIMD(1, 0.8, 0.01), emulab_link, 2)
        assert row.worst_case.robustness == pytest.approx(0.01)

    def test_unknown_family_returns_none(self, emulab_link):
        assert theoretical_row_for(PccLike(), emulab_link, 2) is None


class TestCharacterize:
    def test_full_characterization(self, emulab_link, fast_config):
        result = characterize(AIMD(1, 0.5), emulab_link, fast_config)
        assert result.protocol == "AIMD(1,0.5)"
        assert result.theoretical is not None
        assert result.empirical.efficiency > 0.9

    def test_without_robustness_is_nan(self, emulab_link, fast_config):
        import math

        result = characterize(
            AIMD(1, 0.5), emulab_link, fast_config, include_robustness=False
        )
        assert math.isnan(result.empirical.robustness)

    def test_discrepancy(self, emulab_link, fast_config):
        result = characterize(AIMD(1, 0.5), emulab_link, fast_config)
        gap = result.discrepancy("loss_avoidance")
        assert gap is not None
        assert abs(gap) < 0.02

    @pytest.mark.parametrize("n_senders", [2, 3])
    def test_one_submission_matches_single_metric_estimators(
        self, emulab_link, n_senders
    ):
        # characterize scores one submission of metric_specs; each score
        # must be the very float the metric's own estimator returns.
        from repro.core import metrics

        config = EstimatorConfig(steps=600, n_senders=n_senders)
        protocol = CUBIC(0.4, 0.8)
        vector = characterize(
            protocol, emulab_link, config, include_robustness=False
        ).empirical
        single = {
            "efficiency": metrics.estimate_efficiency,
            "fast_utilization": metrics.estimate_fast_utilization,
            "loss_avoidance": metrics.estimate_loss_avoidance,
            "fairness": metrics.estimate_fairness,
            "convergence": metrics.estimate_convergence,
            "tcp_friendliness": metrics.estimate_tcp_friendliness,
            "latency_avoidance": metrics.estimate_latency_avoidance,
        }
        for name, estimate in single.items():
            expected = estimate(protocol, emulab_link, config).score
            assert getattr(vector, name) == expected, name

    def test_discrepancy_none_without_theory(self, emulab_link, fast_config):
        result = characterize(
            PccLike(), emulab_link, fast_config, include_robustness=False
        )
        assert result.discrepancy("efficiency") is None


class TestHierarchy:
    def make_results(self):
        return [
            CharacterizationResult(
                protocol="good",
                empirical=MetricVector(efficiency=0.9, loss_avoidance=0.01),
                theoretical=None,
            ),
            CharacterizationResult(
                protocol="bad",
                empirical=MetricVector(efficiency=0.4, loss_avoidance=0.2),
                theoretical=None,
            ),
        ]

    def test_larger_better_ordering(self):
        assert hierarchy(self.make_results(), "efficiency") == ["good", "bad"]

    def test_lower_better_ordering(self):
        # loss-avoidance ranks ascending: less loss is better.
        assert hierarchy(self.make_results(), "loss_avoidance") == ["good", "bad"]

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            hierarchy(self.make_results(), "speed")

    def test_theory_ranking_requires_rows(self):
        with pytest.raises(ValueError):
            hierarchy(self.make_results(), "efficiency", use_theory=True)
