"""Non-congestion loss: one constant random loss rate.

Metric VI (robustness) asks how a protocol behaves when packets are lost
for reasons other than congestion — the scenario PCC uses as motivation.
The paper's formulation is a "constant random packet loss rate of at most
alpha", so every engine takes that loss as one float,
``random_loss_rate`` in ``[0, 1]``: the fluid and network engines apply
it to every sender at every step, and the loss a sender sees combines it
with the step's congestion loss (:func:`combine_loss`).
"""

from __future__ import annotations

import numpy as np


def combine_loss(congestion: float, random_loss: float) -> float:
    """Combined loss rate of two independent loss sources.

    A packet survives only if it survives both drop opportunities, so the
    combined rate is ``1 - (1 - congestion) * (1 - random_loss)``.
    """
    if not (0.0 <= congestion <= 1.0 and 0.0 <= random_loss <= 1.0):
        for name, value in (("congestion", congestion), ("random_loss", random_loss)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} loss rate must be in [0, 1], got {value}")
    return 1.0 - (1.0 - congestion) * (1.0 - random_loss)


def combine_loss_array(
    congestion: np.ndarray, random_loss: np.ndarray
) -> np.ndarray:
    """Elementwise :func:`combine_loss` over a batch of scenarios.

    The survival-product formula is branch-free, so the array form is the
    same float64 expression; callers validate ranges up front (the batch
    planner only admits rates the engines' configurations checked).
    """
    return 1.0 - (1.0 - congestion) * (1.0 - random_loss)
