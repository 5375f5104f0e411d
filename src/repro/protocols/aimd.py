"""Additive-Increase / Multiplicative-Decrease — ``AIMD(a, b)``.

The classic Chiu-Jain family: add ``a`` MSS per RTT while no loss is
observed, multiply the window by ``b`` when loss occurs. ``AIMD(1, 0.5)``
is TCP Reno in congestion-avoidance mode.

Table 1 of the paper characterizes ``AIMD(a, b)`` as:

- efficiency ``min(1, b (1 + tau/C))`` (worst case ``b``),
- loss-avoidance ``1 - (C + tau)/(C + tau + n a)`` (worst case 1),
- ``a``-fast-utilizing,
- ``3(1 - b) / (a (1 + b))``-TCP-friendly (tight, per Cai et al.),
- 1-fair, ``2b/(1 + b)``-convergent, 0-robust.
"""

from __future__ import annotations

import numpy as np

from repro.model.sender import Observation
from repro.protocols.base import Protocol, format_params, validate_in_range


class AIMD(Protocol):
    """``AIMD(a, b)``: window += a without loss; window *= b on loss."""

    loss_based = True
    supports_batched = True
    batch_param_names = ("a", "b")
    meanfield_trigger = ("gt", 0.0)

    def __init__(self, a: float = 1.0, b: float = 0.5) -> None:
        if a <= 0:
            raise ValueError(f"additive increase a must be positive, got {a}")
        self.a = a
        self.b = validate_in_range("decrease factor b", b, 0.0, 1.0, low_open=True, high_open=True)

    def next_window(self, obs: Observation) -> float:
        if obs.loss_rate > 0.0:
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
            loss_rate > 0.0, windows * params["b"], windows + params["a"]
        )

    @property
    def name(self) -> str:
        return f"AIMD({format_params(self.a, self.b)})"


def reno() -> AIMD:
    """TCP Reno: ``AIMD(1, 0.5)``."""
    return AIMD(1.0, 0.5)
