"""Robust-AIMD — the paper's new protocol (Section 5.2).

A hybrid of AIMD and PCC: the sender keeps a congestion window (like TCP)
but reacts to the *measured loss rate* of a monitor interval rather than
to the mere presence of loss (like PCC)::

    x(t+1) = x(t) + a   if L(t) <  epsilon
    x(t+1) = x(t) * b   if L(t) >= epsilon

Tolerating loss below the threshold ``epsilon`` is what buys robustness to
non-congestion loss: random loss of rate under ``epsilon`` never triggers
a decrease, so the window keeps growing (Robust-AIMD is
``epsilon``-robust), while every other protocol in Table 1 is 0-robust.

The price, per Theorem 3 and Table 1, is a *tighter upper bound* on
TCP-friendliness than plain AIMD — yet a dramatically better one than
PCC's. Table 2's experiments use ``RobustAIMD(1, 0.8, 0.01)``.
"""

from __future__ import annotations

import numpy as np

from repro.model.sender import Observation
from repro.protocols.base import Protocol, format_params, validate_in_range


class RobustAIMD(Protocol):
    """``Robust-AIMD(a, b, epsilon)``: threshold-triggered AIMD stepping."""

    loss_based = True
    supports_batched = True
    batch_param_names = ("a", "b", "epsilon")
    meanfield_trigger = ("ge", "epsilon")

    def __init__(self, a: float = 1.0, b: float = 0.8, epsilon: float = 0.01) -> None:
        if a <= 0:
            raise ValueError(f"additive increase a must be positive, got {a}")
        self.a = a
        self.b = validate_in_range("decrease factor b", b, 0.0, 1.0, low_open=True, high_open=True)
        self.epsilon = validate_in_range(
            "loss threshold epsilon", epsilon, 0.0, 1.0, low_open=True, high_open=True
        )

    def next_window(self, obs: Observation) -> float:
        if obs.loss_rate >= self.epsilon:
            return obs.window * self.b
        return obs.window + self.a

    @staticmethod
    def batched_next(
        windows: np.ndarray,
        loss_rate: np.ndarray,
        rtt: np.ndarray,
        params: dict[str, np.ndarray],
    ) -> np.ndarray:
        return np.where(
            loss_rate >= params["epsilon"],
            windows * params["b"],
            windows + params["a"],
        )

    @property
    def name(self) -> str:
        return f"Robust-AIMD({format_params(self.a, self.b, self.epsilon)})"
