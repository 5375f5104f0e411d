"""Experiment: regenerate Figure 1 (the 3-D Pareto frontier).

Figure 1 plots the Pareto frontier of the subspace spanned by
fast-utilization (alpha), efficiency (beta) and TCP-friendliness: the
surface ``(alpha, beta, 3(1 - beta) / (alpha (1 + beta)))`` of Theorem 2.
Every point of the surface is *feasible* because ``AIMD(alpha, beta)``
attains those scores (Table 1), and no point can be improved without
worsening another coordinate.

This driver regenerates the figure's data three ways:

1. the analytic surface over an (alpha, beta) grid (the plotted mesh);
2. a mutual-non-domination check over the surface samples (the defining
   frontier property);
3. empirical attainment: for a sub-grid of (alpha, beta), it measures
   ``AIMD(alpha, beta)``'s worst-case efficiency, fast-utilization and
   TCP-friendliness in the fluid model and compares each to the surface
   coordinates.

The result's ``series`` gives the (alpha, beta, friendliness) triples in
a plot-ready layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics.base import EstimatorConfig
from repro.core.metrics.efficiency import efficiency_from_trace, estimate_efficiency
from repro.core.metrics.fast_utilization import (
    estimate_fast_utilization,
    fast_utilization_from_trace,
    fast_utilization_spec,
)
from repro.core.metrics.friendliness import (
    estimate_tcp_friendliness,
    friendliness_from_mixes,
    friendliness_mix_specs,
)
from repro.core.theory.pareto import (
    Figure1Point,
    figure1_surface,
    frontier_friendliness,
    surface_is_mutually_non_dominated,
)
from repro.experiments.report import Table
from repro.model.link import Link
from repro.protocols.aimd import AIMD


@dataclass(frozen=True)
class EmpiricalFrontierPoint:
    """Measured AIMD(alpha, beta) scores next to the predicted surface point."""

    alpha: float
    beta: float
    predicted_friendliness: float
    measured_fast_utilization: float
    measured_efficiency: float
    measured_friendliness: float

    def friendliness_error(self) -> float:
        """Relative deviation of measured friendliness from the surface."""
        if self.predicted_friendliness == 0:
            return abs(self.measured_friendliness)
        return (
            abs(self.measured_friendliness - self.predicted_friendliness)
            / self.predicted_friendliness
        )


@dataclass
class Figure1Result:
    """Surface samples, frontier property check and empirical attainment."""

    surface: list[Figure1Point] = field(default_factory=list)
    mutually_non_dominated: bool = True
    empirical: list[EmpiricalFrontierPoint] = field(default_factory=list)

    def series(self) -> dict[str, list[float]]:
        """Plot-ready arrays of the surface coordinates."""
        return {
            "fast_utilization": [p.fast_utilization for p in self.surface],
            "efficiency": [p.efficiency for p in self.surface],
            "tcp_friendliness": [p.tcp_friendliness for p in self.surface],
        }

    @property
    def max_friendliness_error(self) -> float:
        if not self.empirical:
            return 0.0
        return max(p.friendliness_error() for p in self.empirical)

    def to_jsonable(self) -> dict:
        return {
            "mutually_non_dominated": self.mutually_non_dominated,
            "surface": [
                {
                    "alpha": p.fast_utilization,
                    "beta": p.efficiency,
                    "friendliness": p.tcp_friendliness,
                }
                for p in self.surface
            ],
            "empirical": [
                {
                    "alpha": p.alpha,
                    "beta": p.beta,
                    "predicted": p.predicted_friendliness,
                    "measured_friendliness": p.measured_friendliness,
                    "measured_efficiency": p.measured_efficiency,
                    "measured_fast_utilization": p.measured_fast_utilization,
                }
                for p in self.empirical
            ],
        }


def measure_aimd_point(
    alpha: float,
    beta: float,
    link: Link,
    config: EstimatorConfig,
) -> EmpiricalFrontierPoint:
    """Measure AIMD(alpha, beta)'s coordinates in the Figure 1 subspace."""
    protocol = AIMD(alpha, beta)
    fast = estimate_fast_utilization(protocol, link, config).score
    efficiency = estimate_efficiency(protocol, link, config).detail["capped_score"]
    friendliness = estimate_tcp_friendliness(protocol, link, config).score
    return EmpiricalFrontierPoint(
        alpha=alpha,
        beta=beta,
        predicted_friendliness=frontier_friendliness(alpha, beta),
        measured_fast_utilization=fast,
        measured_efficiency=efficiency,
        measured_friendliness=friendliness,
    )


def measure_aimd_points(
    points: list[tuple[float, float]],
    link: Link,
    config: EstimatorConfig,
    batch: bool = False,
    use_cache: bool = True,
) -> list[EmpiricalFrontierPoint]:
    """All grid points' frontier coordinates as one executor submission.

    Builds, for every ``(alpha, beta)``, the *same* three estimator
    scenarios :func:`measure_aimd_point` runs — the probing sender, the
    homogeneous efficiency run, and the P/Q friendliness mixes — submits
    them together, and scores the traces with the same ``*_from_trace``
    reducers. With ``batch`` they advance through the batched fluid
    kernel; traces are bit-identical either way, so the scores are equal
    floats and only the wall-clock differs.
    """
    from repro.backends import run_spec_groups
    from repro.core.metrics.base import homogeneous_spec

    groups = []
    for alpha, beta in points:
        protocol = AIMD(alpha, beta)
        groups.append([
            fast_utilization_spec(protocol, link, config),
            homogeneous_spec(protocol, link, config),
            *(spec for _, spec in
              friendliness_mix_specs(protocol, AIMD(1.0, 0.5), link, config)),
        ])
    results = []
    for (alpha, beta), (probing, homogeneous, *mixes) in zip(
        points,
        run_spec_groups(groups, batch=batch, use_cache=use_cache),
    ):
        results.append(
            EmpiricalFrontierPoint(
                alpha=alpha,
                beta=beta,
                predicted_friendliness=frontier_friendliness(alpha, beta),
                measured_fast_utilization=fast_utilization_from_trace(
                    probing, sender=0
                ).score,
                measured_efficiency=efficiency_from_trace(
                    homogeneous, config.tail_fraction
                ).detail["capped_score"],
                measured_friendliness=friendliness_from_mixes(mixes, config).score,
            )
        )
    return results


def run_figure1(
    alphas: list[float] | None = None,
    betas: list[float] | None = None,
    empirical_alphas: list[float] | None = None,
    empirical_betas: list[float] | None = None,
    link: Link | None = None,
    config: EstimatorConfig | None = None,
    batch: bool = False,
) -> Figure1Result:
    """Generate the Figure 1 surface and its empirical validation points.

    The empirical (alpha, beta) grid is one executor submission
    (:func:`measure_aimd_points`): ``batch`` runs it through the batched
    fluid kernel, one NumPy pass per step for all cells.
    """
    surface = figure1_surface(alphas, betas)
    link = link or Link.from_mbps(20, 42, 100)
    config = config or EstimatorConfig(steps=4000, n_senders=2)
    empirical_alphas = empirical_alphas or [0.5, 1.0, 2.0]
    empirical_betas = empirical_betas or [0.3, 0.5, 0.8]
    points = [(a, b) for a in empirical_alphas for b in empirical_betas]
    return Figure1Result(
        surface=surface,
        mutually_non_dominated=surface_is_mutually_non_dominated(surface),
        empirical=measure_aimd_points(
            points, link, config, batch=batch
        ),
    )


def render_figure1(result: Figure1Result, markdown: bool = False,
                   max_surface_rows: int = 12) -> str:
    """Text rendering: surface excerpt plus the empirical attainment table."""
    surface_table = Table(
        title="Figure 1 surface (excerpt): (fast-util alpha, efficiency beta) -> "
        "TCP-friendliness 3(1-beta)/(alpha(1+beta))",
        headers=["alpha", "beta", "friendliness"],
    )
    stride = max(1, len(result.surface) // max_surface_rows)
    for point in result.surface[::stride][:max_surface_rows]:
        surface_table.add_row(
            point.fast_utilization, point.efficiency, point.tcp_friendliness
        )
    empirical_table = Table(
        title="AIMD(alpha, beta) attainment of the frontier (fluid model)",
        headers=[
            "alpha",
            "beta",
            "predicted friendliness",
            "measured friendliness",
            "measured efficiency",
            "measured fast-util",
        ],
    )
    for p in result.empirical:
        empirical_table.add_row(
            p.alpha,
            p.beta,
            p.predicted_friendliness,
            p.measured_friendliness,
            p.measured_efficiency,
            p.measured_fast_utilization,
        )
    lines = [
        surface_table.to_markdown() if markdown else surface_table.to_text(),
        "",
        empirical_table.to_markdown() if markdown else empirical_table.to_text(),
        "",
        f"surface mutually non-dominated: {result.mutually_non_dominated}; "
        f"max friendliness deviation from surface: "
        f"{result.max_friendliness_error:.1%}",
    ]
    return "\n".join(lines)
