"""Metric II — fast-utilization.

A protocol is *alpha-fast-utilizing* if, after any sufficiently long
loss-free (and, for non-loss-based protocols, RTT-stable) period starting
at ``t1`` with window ``x(t1)``, the cumulative extra traffic satisfies::

    sum_{t = t1}^{t1 + dt} (x(t) - x(t1)) >= alpha * dt**2 / 2

i.e. the protocol consumes spare capacity at least as fast as one that
adds ``alpha`` MSS per RTT. For ``AIMD(a, b)`` the left side is
``a * dt * (dt + 1) / 2``, so AIMD is exactly ``a``-fast-utilizing;
MIMD's superlinear growth makes it infinity-fast-utilizing; binomial
protocols with ``k > 0`` slow down as the window grows and score 0 in the
worst case.

The estimator examines every sufficiently long loss-free interval of a
trace, computes the witnessed ``alpha_hat = 2 * S / dt**2`` for each, and
reports the minimum — the adversarial ``t1`` of the definition. A
protocol that stops probing after its first loss (the Claim 1
counterexample) produces an endless zero-growth loss-free interval and
scores 0.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import loss_free_runs
from repro.core.metrics.base import EstimatorConfig, MetricResult
from repro.model.dynamics import SimulationConfig
from repro.model.link import Link
from repro.model.trace import SimulationTrace
from repro.protocols.base import Protocol

METRIC_NAME = "fast_utilization"

#: Loss-free intervals shorter than this carry too little signal to witness
#: the definition's "for any dt >= T" clause and are skipped.
DEFAULT_MIN_INTERVAL = 16


def witnessed_alpha(windows: np.ndarray) -> float:
    """``2 * S / dt**2`` for one loss-free interval's window series.

    ``windows[0]`` is ``x(t1)``; the cumulative excess ``S`` sums
    ``x(t) - x(t1)`` over the interval.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.size < 2:
        raise ValueError("interval must contain at least two steps")
    dt = windows.size - 1
    excess = float(np.sum(windows - windows[0]))
    return 2.0 * excess / dt**2


def fast_utilization_from_trace(
    trace: SimulationTrace,
    sender: int = 0,
    min_interval: int = DEFAULT_MIN_INTERVAL,
    adaptive: bool = True,
) -> MetricResult:
    """Worst witnessed alpha over all long loss-free intervals of ``sender``.

    Protocols with short probing periods (kernel-style CUBIC recovers
    within a handful of RTTs at small windows) may have no loss-free
    interval of the requested length; with ``adaptive`` (default) the
    requirement is halved, down to 4 steps, before giving up with NaN.
    """
    if min_interval < 2:
        raise ValueError(f"min_interval must be at least 2, got {min_interval}")
    loss = trace.observed_loss[:, sender]
    loss = np.where(np.isnan(loss), 1.0, loss)  # inactive steps break intervals
    windows = trace.sender_series(sender)
    runs = loss_free_runs(loss)

    effective = min_interval
    while True:
        alphas: list[float] = []
        intervals = []
        for start, stop in runs:
            if stop - start >= effective:
                alphas.append(witnessed_alpha(windows[start:stop]))
                intervals.append((start, stop))
        if alphas or not adaptive or effective <= 4:
            break
        effective = max(4, effective // 2)

    if not alphas:
        return MetricResult(
            metric=METRIC_NAME,
            score=float("nan"),
            detail={"reason": "no loss-free interval long enough", "intervals": 0},
        )
    score = max(0.0, min(alphas))
    return MetricResult(
        metric=METRIC_NAME,
        score=score,
        detail={
            "intervals": len(alphas),
            "max_alpha": max(alphas),
            "min_interval_used": effective,
            "interval_bounds": intervals[:16],
        },
    )


def fast_utilization_spec(
    protocol: Protocol, link: Link, config: EstimatorConfig | None = None
):
    """The single-probing-sender spec :func:`estimate_fast_utilization` runs.

    Exposed so batched sweep drivers stack the identical scenario.
    """
    from repro.backends import ScenarioSpec

    config = config or EstimatorConfig()
    return ScenarioSpec.from_fluid(
        link, [protocol], config.steps, SimulationConfig(initial_windows=[1.0])
    )


def estimate_fast_utilization(
    protocol: Protocol,
    link: Link,
    config: EstimatorConfig | None = None,
    min_interval: int = DEFAULT_MIN_INTERVAL,
) -> MetricResult:
    """Run the Metric II scenario: one sender probing the given link.

    A single sender ensures the loss-free intervals reflect the protocol's
    own probing, not other senders' behaviour.
    """
    from repro.backends import run_spec

    trace = run_spec(fast_utilization_spec(protocol, link, config), "fluid")
    return fast_utilization_from_trace(trace, sender=0, min_interval=min_interval)


def unconstrained_growth_spec(
    protocol: Protocol, horizon: int = 512, start_window: float = 1.0
):
    """The one-sender infinite-link spec :func:`estimate_unconstrained_growth` runs."""
    from repro.backends import ScenarioSpec

    if horizon < 4:
        raise ValueError(f"horizon must be at least 4, got {horizon}")
    return ScenarioSpec.from_fluid(
        Link.infinite(), [protocol], horizon,
        SimulationConfig(initial_windows=[start_window]),
    )


def unconstrained_growth_from_trace(trace: SimulationTrace) -> MetricResult:
    """The growth score and trend of a :func:`unconstrained_growth_spec` run.

    No loss ever occurs, so the full horizon is one loss-free interval;
    the detail dict reports ``alpha_hat`` at half and full horizon so the
    trend is visible.
    """
    windows = trace.sender_series(0)
    half = witnessed_alpha(windows[: windows.shape[0] // 2])
    full = witnessed_alpha(windows)
    # Linear growth keeps alpha_hat constant in the horizon (ratio ~ 1.00);
    # any polynomial decay (e.g. IIAD's Delta**-0.5, ratio 0.71 per
    # doubling) lands below 0.9, any superlinear growth above 1.1.
    trend = "superlinear" if full > 1.1 * half else (
        "sublinear" if full < 0.9 * half else "linear"
    )
    return MetricResult(
        metric=METRIC_NAME,
        score=max(0.0, full),
        detail={"alpha_half": half, "alpha_full": full, "trend": trend},
    )


def estimate_unconstrained_growth(
    protocol: Protocol,
    horizon: int = 512,
    start_window: float = 1.0,
) -> MetricResult:
    """The clean-room variant: growth on an effectively infinite link.

    Useful for exhibiting MIMD's superlinearity (``alpha_hat`` grows with
    the horizon) versus binomial ``k > 0`` decay (``alpha_hat`` shrinks);
    see :func:`unconstrained_growth_from_trace`.
    """
    from repro.backends import run_spec

    spec = unconstrained_growth_spec(protocol, horizon, start_window)
    return unconstrained_growth_from_trace(run_spec(spec, "fluid"))
