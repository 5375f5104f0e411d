"""Metric VII — friendliness (and TCP-friendliness).

A protocol P is *alpha-friendly* to Q if, in any mix of P- and Q-senders
and from any initial windows, every Q-sender's long-run average window is
at least an alpha-fraction of every P-sender's. P is alpha-TCP-friendly
when Q is ``AIMD(1, 0.5)`` (TCP Reno).

The witnessed alpha of one run is::

    min over Q-senders j, P-senders i of  avg_j / avg_i

over the measurement tail. The estimator sweeps the P/Q mix (1..n-1
P-senders out of n) and reports the worst case, approximating the
definition's "for any combination".

Friendliness relates to fairness (Metric IV) but across *different*
protocols; scores above 1 mean Q actually outcompetes P.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics.base import EstimatorConfig, MetricResult, initial_windows_for
from repro.model.dynamics import SimulationConfig
from repro.model.link import Link
from repro.model.trace import SimulationTrace
from repro.protocols.aimd import AIMD
from repro.protocols.base import Protocol

METRIC_NAME = "tcp_friendliness"


def friendliness_from_trace(
    trace: SimulationTrace,
    p_senders: list[int],
    q_senders: list[int],
    tail_fraction: float = 0.5,
) -> float:
    """Witnessed friendliness alpha of P toward Q in one mixed run."""
    if not p_senders or not q_senders:
        raise ValueError("both protocol groups must be non-empty")
    if set(p_senders) & set(q_senders):
        raise ValueError("a sender cannot run both protocols")
    averages = trace.tail(tail_fraction).mean_windows()
    worst = float("inf")
    for j in q_senders:
        for i in p_senders:
            if averages[i] <= 0:
                # P got starved entirely; Q trivially holds any fraction.
                continue
            worst = min(worst, float(averages[j] / averages[i]))
    return worst if np.isfinite(worst) else float("inf")


def friendliness_mix_specs(
    protocol: Protocol,
    toward: Protocol,
    link: Link,
    config: EstimatorConfig | None = None,
) -> list[tuple[int, "object"]]:
    """``(n_p, spec)`` for every P/Q split the friendliness estimator runs.

    Exposed so batched sweep drivers stack the identical mixed scenarios;
    scoring a mix's trace uses ``p_senders=range(n_p)``,
    ``q_senders=range(n_p, n)`` exactly as :func:`estimate_friendliness`.
    """
    from repro.backends import ScenarioSpec

    config = config or EstimatorConfig()
    n = max(2, config.n_senders)
    specs = []
    for n_p in range(1, n):
        protocols: list[Protocol] = [protocol] * n_p + [toward] * (n - n_p)
        sim_config = SimulationConfig(
            initial_windows=initial_windows_for(link, n, config.spread_initial_windows)
        )
        specs.append(
            (n_p, ScenarioSpec.from_fluid(link, protocols, config.steps, sim_config))
        )
    return specs


def friendliness_from_mixes(
    traces: list[SimulationTrace], config: EstimatorConfig | None = None
) -> MetricResult:
    """The worst witnessed alpha over the traces of
    :func:`friendliness_mix_specs` (same config, same order)."""
    config = config or EstimatorConfig()
    n = max(2, config.n_senders)
    worst = float("inf")
    per_mix: dict[str, float] = {}
    for n_p, trace in zip(range(1, n), traces):
        alpha = friendliness_from_trace(
            trace,
            p_senders=list(range(n_p)),
            q_senders=list(range(n_p, n)),
            tail_fraction=config.tail_fraction,
        )
        per_mix[f"{n_p}P/{n - n_p}Q"] = alpha
        worst = min(worst, alpha)
    return MetricResult(metric=METRIC_NAME, score=worst, detail={"per_mix": per_mix})


def estimate_friendliness(
    protocol: Protocol,
    toward: Protocol,
    link: Link,
    config: EstimatorConfig | None = None,
) -> MetricResult:
    """Estimate how friendly ``protocol`` is toward ``toward`` on ``link``.

    Sweeps every split of ``config.n_senders`` senders into P- and
    Q-groups (at least one of each) and reports the minimum witnessed
    alpha.
    """
    from repro.backends import run_specs

    mixes = friendliness_mix_specs(protocol, toward, link, config)
    result = friendliness_from_mixes(run_specs([spec for _, spec in mixes]), config)
    result.detail["toward"] = toward.name
    return result


def estimate_tcp_friendliness(
    protocol: Protocol, link: Link, config: EstimatorConfig | None = None
) -> MetricResult:
    """Friendliness toward TCP Reno (``AIMD(1, 0.5)``) — the paper's Metric VII."""
    return estimate_friendliness(protocol, AIMD(1.0, 0.5), link, config)
