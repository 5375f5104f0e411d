"""Metric VIII — latency-avoidance.

A protocol is *alpha-latency-avoiding* if, for sufficiently large capacity
and buffer, from some time T onwards the RTT stays below
``(1 + alpha) * 2 * Theta`` — the queue never inflates latency by more
than a factor alpha over the propagation floor.

Loss-based protocols fill the buffer before reacting, so their latency
score is unbounded (Table 1 omits the column for them); latency-sensitive
protocols such as the Vegas-like comparator keep the standing queue small.

The estimator reports the *maximum* RTT inflation ``RTT/(2 Theta) - 1``
over the measurement tail on a deep-buffered link. Like loss-avoidance,
smaller is better.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics.base import EstimatorConfig, MetricResult, homogeneous_spec
from repro.model.link import Link
from repro.model.trace import SimulationTrace
from repro.protocols.base import Protocol

METRIC_NAME = "latency_avoidance"


def deep_buffer_link(base: Link, buffer_capacity_ratio: float = 4.0) -> Link:
    """A copy of ``base`` with a buffer of ``ratio * C`` MSS.

    Metric VIII quantifies over "sufficiently large" buffers: a shallow
    buffer would cap the measurable inflation and flatter loss-based
    protocols.
    """
    if buffer_capacity_ratio <= 0:
        raise ValueError(
            f"buffer_capacity_ratio must be positive, got {buffer_capacity_ratio}"
        )
    return Link(
        bandwidth=base.bandwidth,
        theta=base.theta,
        buffer_size=buffer_capacity_ratio * base.capacity,
    )


def latency_from_trace(trace: SimulationTrace, tail_fraction: float = 0.5) -> MetricResult:
    """Estimate the latency-avoidance alpha (max tail RTT inflation)."""
    tail = trace.tail(tail_fraction)
    inflation = tail.rtt_inflation()
    score = float(np.max(inflation))
    return MetricResult(
        metric=METRIC_NAME,
        score=score,
        detail={
            "mean_inflation": float(np.mean(inflation)),
            "tail_steps": tail.steps,
        },
    )


def latency_spec(
    protocol: Protocol,
    link: Link,
    config: EstimatorConfig | None = None,
    buffer_capacity_ratio: float = 4.0,
):
    """The homogeneous Metric VIII scenario on a deep-buffered link.

    Senders cold-start at 1 MSS regardless of ``config``: latency-avoiding
    protocols estimate the propagation delay from their minimum observed
    RTT, and starting them behind a pre-filled queue poisons that estimate
    (the classic Vegas baseRTT pathology), collapsing every protocol's
    score to the timeout cap and destroying the metric's discriminating
    power.
    """
    from repro.model.dynamics import SimulationConfig

    config = config or EstimatorConfig()
    deep = deep_buffer_link(link, buffer_capacity_ratio)
    sim_config = SimulationConfig(initial_windows=[1.0] * config.n_senders)
    return homogeneous_spec(protocol, deep, config, sim_config)


def estimate_latency_avoidance(
    protocol: Protocol,
    link: Link,
    config: EstimatorConfig | None = None,
    buffer_capacity_ratio: float = 4.0,
) -> MetricResult:
    """Run :func:`latency_spec` and estimate the latency-avoidance alpha."""
    from repro.backends import run_spec

    config = config or EstimatorConfig()
    trace = run_spec(latency_spec(protocol, link, config, buffer_capacity_ratio))
    return latency_from_trace(trace, config.tail_fraction)
