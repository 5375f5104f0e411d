"""Extension axioms beyond the paper's eight (its "Other axioms" agenda).

Section 6 of the paper asks "what other metrics of performance, fairness,
etc., should be incorporated?" (pointing at RFC 5166). We contribute two
that the existing machinery makes cheap to formalize and measure:

**Metric IX — responsiveness.** How quickly a protocol reclaims capacity
that appears mid-run (a bandwidth upgrade, a competing flow leaving).
A protocol is *T-responsive* if, after the link bandwidth doubles, the
aggregate re-attains a target fraction of the new pipe limit within
``T`` steps. Smaller ``T`` is better; we report the measured step count.

**Metric X — churn resilience.** How a late-joining flow fares: a
protocol is *T-churn-resilient* if a flow joining an occupied link
reaches half its fair share within ``T`` steps. Again, the measured step
count is reported (``inf`` when the run never gets there — e.g. MIMD's
ratio preservation starves joiners forever).

Both are "temporal" axioms the paper's asymptotic metrics cannot see:
AIMD(0.1, b) and AIMD(10, b) score identically on fairness and
efficiency, but differ by 100x here.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.metrics.base import MetricResult
from repro.model.dynamics import SimulationConfig
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.model.trace import SimulationTrace
from repro.protocols.base import Protocol

RESPONSIVENESS = "responsiveness"
CHURN_RESILIENCE = "churn_resilience"


def _responsiveness_target(link: Link, target_fraction: float) -> float:
    """The aggregate window that counts as having reclaimed the doubled link."""
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError(f"target_fraction must be in (0, 1], got {target_fraction}")
    target = target_fraction * link.with_bandwidth(2 * link.bandwidth).pipe_limit
    if target <= link.pipe_limit:
        raise ValueError(
            f"target {target:.1f} MSS does not exceed the pre-upgrade pipe "
            f"limit {link.pipe_limit:.1f}; raise target_fraction"
        )
    return target


def responsiveness_spec(
    protocol: Protocol,
    link: Link,
    n_senders: int = 2,
    warmup_steps: int = 1500,
    measure_steps: int = 3000,
):
    """The Metric IX run: ``link``'s bandwidth doubles at ``warmup_steps``."""
    from repro.backends import ScenarioSpec

    if warmup_steps <= 0 or measure_steps <= 0:
        raise ValueError("warmup_steps and measure_steps must be positive")
    upgraded = link.with_bandwidth(2 * link.bandwidth)
    schedule = EventSchedule().add_link_change(warmup_steps, upgraded)
    config = SimulationConfig(
        initial_windows=[1.0] * n_senders, schedule=schedule
    )
    return ScenarioSpec.from_fluid(
        link, [protocol] * n_senders, warmup_steps + measure_steps, config
    )


def responsiveness_from_trace(
    trace: SimulationTrace,
    link: Link,
    warmup_steps: int = 1500,
    target_fraction: float = 0.85,
) -> MetricResult:
    """Score a :func:`responsiveness_spec` run on ``link``."""
    target = _responsiveness_target(link, target_fraction)
    total = trace.total_window()[warmup_steps:]
    hit = np.nonzero(total >= target)[0]
    steps_needed = float(hit[0]) if hit.size else math.inf
    return MetricResult(
        metric=RESPONSIVENESS,
        score=steps_needed,
        detail={
            "target_windows": target,
            "final_total_window": float(total[-1]),
            "new_capacity": link.with_bandwidth(2 * link.bandwidth).capacity,
        },
    )


def estimate_responsiveness(
    protocol: Protocol,
    link: Link,
    n_senders: int = 2,
    warmup_steps: int = 1500,
    measure_steps: int = 3000,
    target_fraction: float = 0.85,
) -> MetricResult:
    """Steps to reclaim a doubled link (Metric IX).

    The run warms up on ``link``, doubles the bandwidth at
    ``warmup_steps``, and reports how many further steps pass before the
    aggregate window first reaches ``target_fraction`` of the new *pipe
    limit* (capacity plus buffer — the target must exceed the old pipe
    limit, or a buffer-standing protocol trivially "responds" at step 0).
    ``inf`` if it never does within the horizon.
    """
    from repro.backends import run_spec

    _responsiveness_target(link, target_fraction)
    spec = responsiveness_spec(protocol, link, n_senders, warmup_steps, measure_steps)
    return responsiveness_from_trace(
        run_spec(spec, "fluid"), link, warmup_steps, target_fraction
    )


def churn_resilience_spec(
    protocol: Protocol,
    link: Link,
    incumbents: int = 1,
    warmup_steps: int = 1500,
    measure_steps: int = 4000,
):
    """The Metric X run: one more flow joins ``incumbents`` at ``warmup_steps``."""
    from repro.backends import ScenarioSpec

    if incumbents <= 0:
        raise ValueError(f"incumbents must be positive, got {incumbents}")
    n = incumbents + 1
    schedule = EventSchedule().add_sender_start(n - 1, warmup_steps, window=1.0)
    config = SimulationConfig(initial_windows=[1.0] * n, schedule=schedule)
    return ScenarioSpec.from_fluid(
        link, [protocol] * n, warmup_steps + measure_steps, config
    )


def churn_resilience_from_trace(
    trace: SimulationTrace,
    link: Link,
    warmup_steps: int = 1500,
    share_fraction: float = 0.5,
) -> MetricResult:
    """Score a :func:`churn_resilience_spec` run on ``link``."""
    if not 0.0 < share_fraction <= 1.0:
        raise ValueError(f"share_fraction must be in (0, 1], got {share_fraction}")
    n = trace.n_senders
    joiner = trace.sender_series(n - 1)[warmup_steps:]
    fair_share = link.capacity / n
    target = share_fraction * fair_share
    hit = np.nonzero(joiner >= target)[0]
    steps_needed = float(hit[0]) if hit.size else math.inf
    return MetricResult(
        metric=CHURN_RESILIENCE,
        score=steps_needed,
        detail={
            "fair_share": fair_share,
            "target_window": target,
            "joiner_final_window": float(joiner[-1]),
        },
    )


def estimate_churn_resilience(
    protocol: Protocol,
    link: Link,
    incumbents: int = 1,
    warmup_steps: int = 1500,
    measure_steps: int = 4000,
    share_fraction: float = 0.5,
) -> MetricResult:
    """Steps for a late joiner to reach half its fair share (Metric X).

    ``incumbents`` flows warm up alone; one more flow joins at
    ``warmup_steps`` with a 1 MSS window. The fair share is
    ``C / (incumbents + 1)``; the score is the number of post-join steps
    until the joiner's window first reaches ``share_fraction`` of it.
    """
    from repro.backends import run_spec

    if not 0.0 < share_fraction <= 1.0:
        raise ValueError(f"share_fraction must be in (0, 1], got {share_fraction}")
    spec = churn_resilience_spec(protocol, link, incumbents, warmup_steps, measure_steps)
    return churn_resilience_from_trace(
        run_spec(spec, "fluid"), link, warmup_steps, share_fraction
    )
