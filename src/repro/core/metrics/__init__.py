"""Empirical estimators for the paper's eight axioms (Section 3).

Each submodule implements one metric:

========  ======================  ==============================================
Metric    Module                  Estimated quantity
========  ======================  ==============================================
I         ``efficiency``          min tail ``X(t)/C`` (larger better)
II        ``fast_utilization``    worst witnessed growth alpha (larger better)
III       ``loss_avoidance``      max tail loss rate (smaller better)
IV        ``fairness``            min/max tail-average windows (larger better)
V         ``convergence``         band alpha ``2 x_min/(x_min+x_max)`` (larger)
VI        ``robustness``          max tolerated random-loss rate (larger)
VII       ``friendliness``        min Reno-share / P-share (larger better)
VIII      ``latency``             max tail RTT inflation (smaller better)
========  ======================  ==============================================

:func:`estimate_all_metrics` bundles all eight into a
:class:`~repro.core.metrics.vector.MetricVector`: the scenarios behind
the seven link-bound metrics (:func:`metric_specs`) go to the executor as
one submission and :func:`metrics_from_traces` scores them; robustness
runs its own bisection. Drivers that characterize many protocols submit
all their :func:`metric_specs` at once and score with the same reducer.
"""

from __future__ import annotations

import math

from repro.core.metrics.base import EstimatorConfig, MetricResult, homogeneous_spec
from repro.core.metrics.convergence import convergence_from_trace, estimate_convergence
from repro.core.metrics.extensions import (
    estimate_churn_resilience,
    estimate_responsiveness,
)
from repro.core.metrics.efficiency import efficiency_from_trace, estimate_efficiency
from repro.core.metrics.fairness import estimate_fairness, fairness_from_trace
from repro.core.metrics.fast_utilization import (
    estimate_fast_utilization,
    estimate_unconstrained_growth,
    fast_utilization_from_trace,
    fast_utilization_spec,
)
from repro.core.metrics.friendliness import (
    estimate_friendliness,
    estimate_tcp_friendliness,
    friendliness_from_mixes,
    friendliness_from_trace,
    friendliness_mix_specs,
)
from repro.core.metrics.latency import (
    estimate_latency_avoidance,
    latency_from_trace,
    latency_spec,
)
from repro.core.metrics.loss_avoidance import (
    estimate_loss_avoidance,
    loss_avoidance_from_trace,
)
from repro.core.metrics.robustness import (
    divergence_from_trace,
    diverges_under_loss,
    estimate_robustness,
    robustness_profile,
)
from repro.core.metrics.vector import LOWER_IS_BETTER, METRIC_ORDER, MetricVector
from repro.model.link import Link
from repro.model.trace import SimulationTrace
from repro.protocols.aimd import AIMD
from repro.protocols.base import Protocol

__all__ = [
    "EstimatorConfig",
    "LOWER_IS_BETTER",
    "METRIC_ORDER",
    "MetricResult",
    "MetricVector",
    "convergence_from_trace",
    "divergence_from_trace",
    "diverges_under_loss",
    "efficiency_from_trace",
    "estimate_all_metrics",
    "estimate_churn_resilience",
    "estimate_convergence",
    "estimate_efficiency",
    "estimate_fairness",
    "estimate_fast_utilization",
    "estimate_friendliness",
    "estimate_latency_avoidance",
    "estimate_responsiveness",
    "estimate_loss_avoidance",
    "estimate_robustness",
    "estimate_tcp_friendliness",
    "estimate_unconstrained_growth",
    "fairness_from_trace",
    "fast_utilization_from_trace",
    "friendliness_from_trace",
    "latency_from_trace",
    "loss_avoidance_from_trace",
    "metric_specs",
    "metrics_from_traces",
    "robustness_profile",
]


def metric_specs(
    protocol: Protocol, link: Link, config: EstimatorConfig | None = None
) -> list:
    """The scenarios of the seven link-bound metrics, in scoring order.

    The homogeneous run (efficiency, loss-avoidance, fairness,
    convergence), the probing sender (fast-utilization), every P/Q mix
    toward Reno (TCP-friendliness) and the deep-buffer run
    (latency-avoidance) — exactly the specs the single-metric estimators
    run, so :func:`metrics_from_traces` reproduces their scores.
    """
    config = config or EstimatorConfig()
    if config.n_senders < 2:
        raise ValueError("fairness estimation requires n_senders >= 2")
    reno = AIMD(1.0, 0.5)
    return [
        homogeneous_spec(protocol, link, config),
        fast_utilization_spec(protocol, link, config),
        *(spec for _, spec in friendliness_mix_specs(protocol, reno, link, config)),
        latency_spec(protocol, link, config),
    ]


def metrics_from_traces(
    traces: list[SimulationTrace],
    config: EstimatorConfig | None = None,
    robustness: float = math.nan,
) -> MetricVector:
    """Score the traces of :func:`metric_specs` (same config, same order)."""
    config = config or EstimatorConfig()
    homogeneous, probing, *mixes, deep = traces
    tail = config.tail_fraction
    return MetricVector(
        efficiency=efficiency_from_trace(homogeneous, tail).score,
        fast_utilization=fast_utilization_from_trace(probing, sender=0).score,
        loss_avoidance=loss_avoidance_from_trace(homogeneous, tail).score,
        fairness=fairness_from_trace(homogeneous, tail).score,
        convergence=convergence_from_trace(homogeneous, tail).score,
        robustness=robustness,
        tcp_friendliness=friendliness_from_mixes(mixes, config).score,
        latency_avoidance=latency_from_trace(deep, tail).score,
    )


def estimate_all_metrics(
    protocol: Protocol,
    link: Link,
    config: EstimatorConfig | None = None,
    include_robustness: bool = True,
) -> MetricVector:
    """Estimate every axiom for ``protocol`` on ``link``.

    The link-bound scenarios run as one executor submission. Robustness
    runs its own (infinite-link) scenario and a bisection, so it
    dominates the cost; disable it with ``include_robustness=False``
    when only the link-bound metrics matter.
    """
    from repro.backends import run_specs

    config = config or EstimatorConfig()
    traces = run_specs(metric_specs(protocol, link, config))
    robustness = estimate_robustness(protocol).score if include_robustness else math.nan
    return metrics_from_traces(traces, config, robustness)
