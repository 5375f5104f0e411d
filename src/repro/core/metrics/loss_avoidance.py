"""Metric III — loss-avoidance.

A protocol is *alpha-loss-avoiding* if, when all senders employ it, from
some time T onwards the loss rate ``L(t)`` never exceeds alpha (so
``alpha = 0.01`` means loss stays under 1%). Protocols that eventually
incur no loss at all are "0-loss".

The estimator reports the *maximum* congestion loss rate over the
measurement tail — the smallest alpha the run witnesses. Note the
direction: unlike the other metrics, smaller is better here; comparison
helpers in :mod:`repro.core.metrics.vector` handle the inversion.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics.base import EstimatorConfig, MetricResult, run_homogeneous_trace
from repro.model.link import Link
from repro.model.trace import SimulationTrace
from repro.protocols.base import Protocol

METRIC_NAME = "loss_avoidance"


def loss_avoidance_from_trace(
    trace: SimulationTrace, tail_fraction: float = 0.5
) -> MetricResult:
    """Estimate the loss-avoidance alpha (max tail loss) from a trace."""
    tail = trace.tail(tail_fraction)
    loss = tail.congestion_loss
    score = float(np.max(loss))
    return MetricResult(
        metric=METRIC_NAME,
        score=score,
        detail={
            "mean_loss": float(np.mean(loss)),
            "loss_event_fraction": float(np.mean(loss > 0)),
            # max() of exact 0.0 entries is exactly 0.0 — no rounding.
            "is_zero_loss": bool(score == 0.0),
            "tail_steps": tail.steps,
        },
    )


def estimate_loss_avoidance(
    protocol: Protocol, link: Link, config: EstimatorConfig | None = None
) -> MetricResult:
    """Run the homogeneous Metric III scenario and estimate the alpha."""
    config = config or EstimatorConfig()
    trace = run_homogeneous_trace(protocol, link, config)
    return loss_avoidance_from_trace(trace, config.tail_fraction)
