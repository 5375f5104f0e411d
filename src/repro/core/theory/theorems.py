"""The axiomatic derivations of Section 4: Claim 1 and Theorems 1-5.

Each theorem becomes a *bound function* (the quantitative content) plus,
where the statement is a predicate, a checker that experiments can apply
to empirical estimates. The experiment drivers in
:mod:`repro.experiments.claims` exercise all of them against simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# ----------------------------------------------------------------------
# Claim 1 — loss-based + 0-loss  =>  not fast-utilizing
# ----------------------------------------------------------------------
def claim1_consistent(is_loss_based: bool, is_zero_loss: bool,
                      fast_utilization: float) -> bool:
    """Whether an empirical triple is consistent with Claim 1.

    Claim 1: a loss-based protocol that eventually incurs no loss cannot
    be alpha-fast-utilizing for any alpha > 0. A loss-based, 0-loss
    protocol with strictly positive fast-utilization would contradict it.
    """
    if fast_utilization < 0:
        raise ValueError(f"fast_utilization must be non-negative, got {fast_utilization}")
    if is_loss_based and is_zero_loss:
        # Claim 1 is about *exactly* zero fast-utilization; the estimator
        # returns an exact 0.0 when no loss-free interval qualifies.
        return fast_utilization == 0.0
    return True


# ----------------------------------------------------------------------
# Theorem 1 — alpha-convergent + beta-fast-utilizing => efficiency bound
# ----------------------------------------------------------------------
def theorem1_efficiency_bound(convergence_alpha: float) -> float:
    """Theorem 1: a convergent, fast-utilizing protocol is at least
    ``alpha / (2 - alpha)``-efficient.

    Intuition: convergence pins windows within ``[alpha x*, (2-alpha) x*]``;
    fast-utilization forces the fixed point up against capacity, so the
    lower band edge relative to the upper gives the efficiency floor.
    """
    if not 0.0 <= convergence_alpha <= 1.0:
        raise ValueError(
            f"convergence alpha must be in [0, 1], got {convergence_alpha}"
        )
    return convergence_alpha / (2.0 - convergence_alpha)


def theorem1_holds(convergence_alpha: float, fast_utilization: float,
                   efficiency: float, slack: float = 0.0) -> bool:
    """Check Theorem 1 on empirical scores (vacuous if not fast-utilizing)."""
    if fast_utilization <= 0.0:
        return True
    return efficiency + slack >= theorem1_efficiency_bound(convergence_alpha)


# ----------------------------------------------------------------------
# Theorem 2 — fast-utilizing + efficient caps TCP-friendliness
# ----------------------------------------------------------------------
def theorem2_friendliness_bound(fast_utilization: float, efficiency: float) -> float:
    """Theorem 2: a loss-based, alpha-fast-utilizing, beta-efficient
    protocol is at most ``3(1 - beta) / (alpha (1 + beta))``-TCP-friendly.

    The bound is tight: ``AIMD(alpha, beta)`` attains it (Table 1, citing
    Cai et al.). ``beta = 1`` forces friendliness 0 — full efficiency and
    any fast-utilization leave TCP nothing.
    """
    if fast_utilization <= 0:
        raise ValueError(
            f"fast-utilization alpha must be positive, got {fast_utilization}"
        )
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency beta must be in [0, 1], got {efficiency}")
    return 3.0 * (1.0 - efficiency) / (fast_utilization * (1.0 + efficiency))


def theorem2_holds(fast_utilization: float, efficiency: float,
                   tcp_friendliness: float, slack: float = 0.0) -> bool:
    """Check Theorem 2 on empirical scores (vacuous if not fast-utilizing)."""
    if fast_utilization <= 0.0:
        return True
    bound = theorem2_friendliness_bound(fast_utilization, min(1.0, efficiency))
    return tcp_friendliness <= bound + slack


# ----------------------------------------------------------------------
# Theorem 3 — adding robustness tightens the friendliness cap
# ----------------------------------------------------------------------
def theorem3_friendliness_bound(
    fast_utilization: float,
    efficiency: float,
    robustness: float,
    capacity: float,
    buffer_size: float,
) -> float:
    """Theorem 3: with eps-robustness (eps > 0) the cap drops to
    ``3(1 - beta) / ((4 (C + tau)/(1 - eps) - alpha)(1 + beta))``.

    Requires the paper's footnote assumption ``C + tau > alpha / 2``.
    Robustness forces the protocol to shrug off loss rates up to eps, so
    against Reno it concedes only the tiny share the expression allows.
    """
    if fast_utilization <= 0:
        raise ValueError(
            f"fast-utilization alpha must be positive, got {fast_utilization}"
        )
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency beta must be in [0, 1], got {efficiency}")
    if not 0.0 < robustness < 1.0:
        raise ValueError(f"robustness eps must be in (0, 1), got {robustness}")
    pipe = capacity + buffer_size
    if pipe <= fast_utilization / 2.0:
        raise ValueError(
            f"Theorem 3 assumes C + tau > alpha/2; got C+tau={pipe}, "
            f"alpha={fast_utilization}"
        )
    denominator = (4.0 * pipe / (1.0 - robustness) - fast_utilization) * (
        1.0 + efficiency
    )
    return 3.0 * (1.0 - efficiency) / denominator


def theorem3_holds(
    fast_utilization: float,
    efficiency: float,
    robustness: float,
    tcp_friendliness: float,
    capacity: float,
    buffer_size: float,
    slack: float = 0.0,
) -> bool:
    """Check Theorem 3 on empirical scores (vacuous when robustness is 0)."""
    if robustness <= 0.0 or fast_utilization <= 0.0:
        return True
    bound = theorem3_friendliness_bound(
        fast_utilization, min(1.0, efficiency), robustness, capacity, buffer_size
    )
    return tcp_friendliness <= bound + slack


# ----------------------------------------------------------------------
# Theorem 4 — friendliness transfers to more-aggressive protocols
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggressivenessVerdict:
    """Outcome of an empirical 'P is more aggressive than Q' comparison."""

    p_name: str
    q_name: str
    p_goodput: float
    q_goodput: float

    @property
    def p_more_aggressive(self) -> bool:
        return self.p_goodput > self.q_goodput


def theorem4_transfer(alpha_tcp_friendly: float) -> float:
    """Theorem 4: an alpha-TCP-friendly AIMD/BIN/MIMD protocol is
    alpha-friendly to any protocol more aggressive than Reno.

    The transferred friendliness level equals the TCP-friendliness level
    itself; the function exists to make the statement executable and to
    validate its argument.
    """
    if alpha_tcp_friendly < 0:
        raise ValueError(
            f"friendliness level must be non-negative, got {alpha_tcp_friendly}"
        )
    return alpha_tcp_friendly


# ----------------------------------------------------------------------
# Theorem 5 — loss-based efficiency destroys latency-avoiders
# ----------------------------------------------------------------------
def theorem5_friendliness_bound() -> float:
    """Theorem 5: an efficient loss-based protocol is 0-friendly (i.e. not
    beta-friendly for any beta > 0) toward every latency-avoiding protocol.
    """
    return 0.0


def theorem5_holds(loss_based_efficiency: float, friendliness_to_latency_avoider: float,
                   tolerance: float = 0.05) -> bool:
    """Check Theorem 5: friendliness toward a latency-avoider collapses.

    Empirically "collapses" means the latency-avoider's share ratio is
    within ``tolerance`` of zero whenever the loss-based protocol achieves
    positive efficiency.
    """
    if loss_based_efficiency <= 0.0:
        return True
    return friendliness_to_latency_avoider <= tolerance


def friendliness_is_finite_positive(value: float) -> bool:
    """Small helper used by checkers: a usable friendliness estimate."""
    return math.isfinite(value) and value >= 0.0
