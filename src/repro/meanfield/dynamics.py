"""The mean-field simulation engine.

Evolves one window-size density per (protocol, initial-window) group on a
shared :class:`~repro.meanfield.grid.WindowGrid`, closing each step
through the same link formulas as the fluid engine
(:mod:`repro.model.formulas` via :class:`~repro.model.link.Link`):

1. the aggregate ``X(t)`` is the population-weighted sum of the groups'
   mean windows (a density moment, not a per-flow sum);
2. the link maps ``X`` to the step's loss rate ``L(X)`` (droptail), RTT
   (Eq. (1)) and ECN/RED mark fraction;
3. each group's decrease probability comes from its protocol's
   :attr:`~repro.protocols.base.Protocol.meanfield_trigger` applied to
   the observed signal — in synchronized mode every flow sees the same
   combined loss and the whole density jumps together (the paper's
   synchronized-feedback model); in unsynchronized mode a flow of window
   ``x`` notices a lossy step with probability ``1 - (1 - s)**x`` (the
   same per-flow notice rule as the fluid engine's
   ``unsynchronized_loss``), whose N → ∞ limit this deterministic mixture
   is;
4. mass moves via the two branch images derived from the protocol's own
   ``batched_next`` rule (loss probe 0 for growth, 1 for decrease), so
   the mean-field advection is definitionally the same update the other
   engines apply per flow.

Marked traffic (step ECN or RED) counts toward the decrease signal: the
mean-field senders are ECN-responsive, reacting to a mark exactly as to a
drop (RFC 3168's contract, and the McDonald-Reynier RED setting). The
fluid engine instead surfaces marks through ``Observation.ecn_fraction``,
which only stateful protocols like DCTCP consume — so cross-backend
agreement holds on droptail links, and marking scenarios are a mean-field
extension rather than a shared behaviour (documented in
``docs/backends.md``).

Per-step cost is O(groups * cells), independent of the number of flows.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from repro import debug
from repro.meanfield.grid import WindowGrid, default_grid
from repro.meanfield.kernel import (
    DepositPlan,
    meanfield_deposit,
    meanfield_moment,
    meanfield_plan,
    meanfield_step,
)
from repro.model.dynamics import check_window_clamp
from repro.model.link import Link
from repro.model.random_loss import combine_loss
from repro.protocols.base import Protocol

__all__ = [
    "MASS_TOLERANCE",
    "MeanFieldGroup",
    "MeanFieldResult",
    "MeanFieldScenario",
    "MeanFieldSimulator",
]

MASS_TOLERANCE = 1e-9
"""Sanitizer bound on total-probability drift (float rounding only)."""

_PLACEHOLDER_RTT = 1.0
"""RTT probe fed to ``batched_next``; mean-field protocols are loss-based."""


@dataclass(frozen=True)
class MeanFieldGroup:
    """One exchangeable population of flows sharing a density.

    ``population`` flows all run ``protocol`` (same class, same
    parameters) from the same ``initial_window``; the mean-field ansatz
    is that such flows are statistically identical, so one density
    describes them all.
    """

    protocol: Protocol
    population: int
    initial_window: float = 1.0

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if not math.isfinite(self.initial_window) or self.initial_window < 0:
            raise ValueError(
                f"initial window must be finite and >= 0, got {self.initial_window}"
            )
        cls = type(self.protocol)
        if getattr(cls, "meanfield_trigger", None) is None or not getattr(
            cls, "supports_batched", False
        ):
            raise ValueError(
                f"{cls.__name__} declares no mean-field decrease trigger"
            )


@dataclass
class MeanFieldScenario:
    """What to simulate: groups on a link, a horizon, and the feedback mode."""

    link: Link
    groups: list[MeanFieldGroup]
    steps: int = 4000
    synchronized: bool = True
    random_loss_rate: float = 0.0
    min_window: float = 1.0
    max_window: float = 1e9
    grid: WindowGrid | None = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("at least one group is required")
        self.groups = list(self.groups)
        if self.steps <= 0:
            raise ValueError(f"steps must be positive, got {self.steps}")
        if not 0.0 <= self.random_loss_rate < 1.0:
            raise ValueError(
                f"random_loss_rate must be in [0, 1), got {self.random_loss_rate}"
            )
        check_window_clamp(self.min_window, self.max_window)

    @property
    def n_flows(self) -> int:
        """Total flows represented across all groups."""
        return sum(group.population for group in self.groups)

    def resolved_grid(self) -> WindowGrid:
        """The explicit grid, or the default sized to this scenario."""
        if self.grid is not None:
            return self.grid
        return default_grid(
            self.link,
            self.n_flows,
            min_window=self.min_window,
            max_initial_window=max(g.initial_window for g in self.groups),
        )


@dataclass
class MeanFieldResult:
    """A finished mean-field run: per-group moments plus the final densities.

    ``mean_windows[t, g]`` is group ``g``'s *per-flow* expected window at
    step ``t`` (multiply by ``populations[g]`` for the group aggregate);
    ``observed_loss[t, g]`` the density-weighted expected loss signal its
    flows observed. ``masses[g]`` is the final density, for inspection
    and invariant tests.
    """

    grid: WindowGrid
    link: Link
    populations: np.ndarray
    group_names: list[str]
    mean_windows: np.ndarray
    observed_loss: np.ndarray
    congestion_loss: np.ndarray
    rtts: np.ndarray
    masses: list[np.ndarray] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return self.mean_windows.shape[0]

    @property
    def n_groups(self) -> int:
        return self.mean_windows.shape[1]


class _GroupState:
    """Per-group precomputation: branch plans, trigger, live mass vector."""

    def __init__(
        self,
        group: MeanFieldGroup,
        grid: WindowGrid,
        min_window: float,
        max_window: float,
    ) -> None:
        self.population = group.population
        self.protocol = copy.deepcopy(group.protocol)
        cls = type(self.protocol)
        points = grid.points()
        params = {
            name: np.float64(getattr(self.protocol, name))
            for name in cls.batch_param_names
        }
        probe_rtt = np.float64(_PLACEHOLDER_RTT)
        op, threshold = cls.meanfield_trigger
        if isinstance(threshold, str):
            threshold = float(getattr(self.protocol, threshold))
        if op not in ("gt", "ge"):
            raise ValueError(f"unknown mean-field trigger op {op!r}")
        self._op = op
        self._threshold = float(threshold)
        # The trigger must separate the two probes, or the branch images
        # below would not be the protocol's growth/decrease maps.
        if self.trigger_hit(0.0) or not self.trigger_hit(1.0):
            raise ValueError(
                f"{cls.__name__}'s mean-field trigger does not separate "
                "loss 0 from loss 1"
            )
        growth = cls.batched_next(points, np.float64(0.0), probe_rtt, params)
        decrease = cls.batched_next(points, np.float64(1.0), probe_rtt, params)
        growth = np.clip(np.asarray(growth, dtype=float), min_window, max_window)
        decrease = np.clip(np.asarray(decrease, dtype=float), min_window, max_window)
        if not (np.isfinite(growth).all() and np.isfinite(decrease).all()):
            raise ValueError(
                f"{cls.__name__} produced non-finite windows on the grid"
            )
        self.growth_plan: DepositPlan = meanfield_plan(growth, grid)
        self.decrease_plan: DepositPlan = meanfield_plan(decrease, grid)
        # Initial condition: a point mass at the (clamped) initial window.
        start = min(max(group.initial_window, min_window), max_window)
        self.mass = meanfield_deposit(
            meanfield_plan(np.array([start]), grid), np.array([1.0])
        )

    @property
    def trigger_op(self) -> str:
        """The trigger comparator, ``"gt"`` or ``"ge"`` (batch group key)."""
        return self._op

    @property
    def trigger_threshold(self) -> float:
        """The resolved numeric trigger threshold (batch kernel input)."""
        return self._threshold

    def trigger_hit(self, observed: float) -> bool:
        """Whether an observed loss signal takes the decrease branch."""
        if self._op == "gt":
            return observed > self._threshold
        return observed >= self._threshold


class MeanFieldSimulator:
    """Runs the deterministic density evolution of a scenario."""

    def __init__(self, scenario: MeanFieldScenario) -> None:
        self.scenario = scenario
        self.grid = scenario.resolved_grid()
        self._groups = [
            _GroupState(g, self.grid, scenario.min_window, scenario.max_window)
            for g in scenario.groups
        ]

    # ------------------------------------------------------------------
    def run(self) -> MeanFieldResult:
        """Simulate ``scenario.steps`` RTT-sized steps of density evolution."""
        scenario = self.scenario
        link = scenario.link
        steps = scenario.steps
        groups = self._groups
        n_groups = len(groups)
        points = self.grid.points()
        random_rate = scenario.random_loss_rate
        checks = debug.enabled()

        mean_windows = np.zeros((steps, n_groups))
        observed_loss = np.zeros((steps, n_groups))
        congestion_loss = np.zeros(steps)
        rtts = np.zeros(steps)

        for t in range(steps):
            # Closure: the aggregate is a population-weighted moment.
            total = 0.0
            for g, state in enumerate(groups):
                mean = meanfield_moment(state.mass, points)
                mean_windows[t, g] = mean
                total += state.population * mean
            loss = link.loss_rate(total)
            rtt = link.rtt(total)
            # Marked traffic signals decrease exactly like dropped traffic
            # (mean-field senders are ECN-responsive; see module docstring).
            signal = combine_loss(loss, link.mark_fraction(total))
            seen_hit = combine_loss(signal, random_rate)
            seen_miss = random_rate
            congestion_loss[t] = loss
            rtts[t] = rtt

            for g, state in enumerate(groups):
                hit = 1.0 if state.trigger_hit(seen_hit) else 0.0
                if scenario.synchronized:
                    # Synchronized feedback: every flow sees the combined
                    # signal, so the whole density jumps (or grows) together.
                    p_decrease: np.ndarray | float = hit
                    observed_loss[t, g] = seen_hit
                else:
                    # Unsynchronized: a flow of window x notices the lossy
                    # step with probability 1 - (1 - s)^x (the fluid
                    # engine's per-flow notice rule); flows that miss it
                    # still observe the constant random rate.
                    miss = 1.0 if state.trigger_hit(seen_miss) else 0.0
                    notice = 1.0 - (1.0 - signal) ** points
                    p_decrease = notice * hit + (1.0 - notice) * miss
                    noticed = meanfield_moment(state.mass, notice)
                    observed_loss[t, g] = (
                        noticed * seen_hit + (1.0 - noticed) * seen_miss
                    )
                state.mass = meanfield_step(
                    state.mass, p_decrease, state.growth_plan, state.decrease_plan
                )
                if checks:
                    self._check_mass(state.mass, t)

        return MeanFieldResult(
            grid=self.grid,
            link=link,
            populations=np.array([s.population for s in groups], dtype=float),
            group_names=[s.protocol.name for s in groups],
            mean_windows=mean_windows,
            observed_loss=observed_loss,
            congestion_loss=congestion_loss,
            rtts=rtts,
            masses=[s.mass for s in groups],
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _check_mass(mass: np.ndarray, step: int) -> None:
        """Sanitizer observer: the density stays a probability vector."""
        if not np.isfinite(mass).all():
            debug.fail("meanfield-finite", f"non-finite density at step {step}")
        if (mass < 0.0).any():
            debug.fail("meanfield-nonnegative", f"negative density at step {step}")
        drift = abs(float(mass.sum()) - 1.0)
        if drift > MASS_TOLERANCE:
            debug.fail(
                "meanfield-mass",
                f"total probability drifted by {drift:.3e} at step {step}",
            )
