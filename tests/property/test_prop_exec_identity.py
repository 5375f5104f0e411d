"""Drivers rerouted through repro.exec stay bit-identical on every lane.

The executor promises that routing — serial loop or batched kernel —
never changes results. The emulab and FCT drivers have one lane only:
their packet jobs always take the merged runner, which
``test_prop_packet_batch.py`` holds to the frozen references. These
tests cover Figure 1 and Table 2.
"""

from __future__ import annotations

import pytest

from repro.core.metrics.base import EstimatorConfig
from repro.experiments.figure1 import run_figure1
from repro.experiments.table2 import run_table2


@pytest.fixture(scope="module")
def figure1_kwargs() -> dict:
    return dict(
        alphas=[1.0],
        betas=[0.5],
        empirical_alphas=[0.5, 1.0],
        empirical_betas=[0.5, 0.8],
        config=EstimatorConfig(steps=1500, n_senders=2),
    )


class TestFigure1Lanes:
    @pytest.fixture(scope="class")
    def serial(self, figure1_kwargs):
        return run_figure1(**figure1_kwargs)

    def test_batched_lane(self, figure1_kwargs, serial):
        batched = run_figure1(batch=True, **figure1_kwargs)
        assert batched.empirical == serial.empirical
        assert batched.series() == serial.series()


class TestTable2Lanes:
    KWARGS = dict(senders=(2, 3), bandwidths_mbps=(20,), steps=1500)

    @pytest.fixture(scope="class")
    def serial(self):
        return run_table2(**self.KWARGS)

    def test_batched_lane(self, serial):
        batched = run_table2(batch=True, **self.KWARGS)
        assert batched.to_jsonable() == serial.to_jsonable()
