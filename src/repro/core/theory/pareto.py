"""The Pareto frontier of Section 5.2 and the Figure 1 surface.

In the 3-dimensional subspace (fast-utilization alpha, efficiency beta,
TCP-friendliness), Theorem 2 caps friendliness at
``3(1 - beta) / (alpha (1 + beta))`` and ``AIMD(alpha, beta)`` attains the
cap, so the frontier is exactly the surface::

    { (alpha, beta, 3(1 - beta) / (alpha (1 + beta))) }

This module generates that surface (Figure 1), tests feasibility and
frontier membership of arbitrary points, and verifies mutual
non-domination of surface samples — the property that makes each point a
distinct, defensible design choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.dominance import is_on_front, pareto_front
from repro.core.theory.theorems import theorem2_friendliness_bound


@dataclass(frozen=True)
class Figure1Point:
    """One sample of the Figure 1 frontier surface."""

    fast_utilization: float
    efficiency: float
    tcp_friendliness: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.fast_utilization, self.efficiency, self.tcp_friendliness)

    @property
    def aimd_parameters(self) -> tuple[float, float]:
        """The ``AIMD(a, b)`` instance attaining this point: ``a = alpha, b = beta``."""
        return (self.fast_utilization, self.efficiency)


def frontier_friendliness(fast_utilization: float, efficiency: float) -> float:
    """The frontier's friendliness coordinate at ``(alpha, beta)`` (Theorem 2 cap)."""
    return theorem2_friendliness_bound(fast_utilization, efficiency)


def figure1_surface(
    alphas: np.ndarray | list[float] | None = None,
    betas: np.ndarray | list[float] | None = None,
) -> list[Figure1Point]:
    """Sample the Figure 1 surface over a grid of (alpha, beta).

    Defaults mirror the figure's visible range: alpha (fast-utilization)
    in [0.25, 4], beta (efficiency) in [0.05, 0.95].
    """
    if alphas is None:
        alphas = np.linspace(0.25, 4.0, 16)
    if betas is None:
        betas = np.linspace(0.05, 0.95, 19)
    points = []
    for alpha in np.asarray(alphas, dtype=float):
        if alpha <= 0:
            raise ValueError(f"fast-utilization alpha must be positive, got {alpha}")
        for beta in np.asarray(betas, dtype=float):
            if not 0.0 <= beta <= 1.0:
                raise ValueError(f"efficiency beta must be in [0, 1], got {beta}")
            points.append(
                Figure1Point(
                    fast_utilization=float(alpha),
                    efficiency=float(beta),
                    tcp_friendliness=frontier_friendliness(float(alpha), float(beta)),
                )
            )
    return points


def is_feasible_point(fast_utilization: float, efficiency: float,
                      tcp_friendliness: float, slack: float = 1e-12) -> bool:
    """Whether a (alpha, beta, friendliness) triple is feasible per Theorem 2."""
    if tcp_friendliness < 0:
        raise ValueError(f"friendliness must be non-negative, got {tcp_friendliness}")
    bound = theorem2_friendliness_bound(fast_utilization, efficiency)
    return tcp_friendliness <= bound + slack


def is_frontier_point(fast_utilization: float, efficiency: float,
                      tcp_friendliness: float, slack: float = 1e-9) -> bool:
    """Whether a feasible triple sits *on* the Theorem 2 surface."""
    bound = theorem2_friendliness_bound(fast_utilization, efficiency)
    return abs(tcp_friendliness - bound) <= slack


def surface_is_mutually_non_dominated(points: list[Figure1Point],
                                      tol: float = 1e-12) -> bool:
    """No surface sample Pareto-dominates another (all axes larger-better).

    This is the defining property of a frontier; it holds for distinct
    (alpha, beta) samples because improving alpha or beta strictly lowers
    the friendliness coordinate.
    """
    coords = [p.as_tuple() for p in points]
    front = pareto_front(coords, tol=tol)
    return len(front) == len(coords)


def dominated_by_surface(point: tuple[float, float, float],
                         points: list[Figure1Point], tol: float = 0.0) -> bool:
    """Whether any surface sample dominates the given triple."""
    return not is_on_front(point, [p.as_tuple() for p in points], tol)
