"""Non-congestion loss processes.

Metric VI (robustness) asks how a protocol behaves when packets are lost
for reasons other than congestion — the scenario PCC uses as motivation.
The paper's formulation is "constant random packet loss rate of at most
alpha"; :class:`BernoulliLoss` realizes exactly that. We additionally
provide a bursty Gilbert-Elliott process and a replayable trace process,
which the paper's framework accommodates without modification (the loss a
sender sees is simply the combination of congestion loss and the process's
loss for the step).

All processes are deterministic given their seed, preserving the paper's
requirement that a protocol-plus-initial-windows choice *deterministically*
induces the dynamics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

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
    planner only admits rates already checked by the loss processes).
    """
    return 1.0 - (1.0 - congestion) * (1.0 - random_loss)


class LossProcess(ABC):
    """A source of per-step, per-sender non-congestion loss."""

    @abstractmethod
    def rate(self, step: int, sender: int) -> float:
        """Loss rate in ``[0, 1]`` applied to ``sender`` during ``step``."""

    @abstractmethod
    def reset(self) -> None:
        """Return the process to its initial (seeded) state."""


class NoLoss(LossProcess):
    """The default: no non-congestion loss at all."""

    def rate(self, step: int, sender: int) -> float:
        return 0.0

    def reset(self) -> None:
        return None


class BernoulliLoss(LossProcess):
    """Constant random loss at a fixed rate — the paper's Metric VI setting.

    With ``deterministic=True`` (the default) every step simply experiences
    loss rate ``p``, matching the fluid-model reading of "constant random
    packet loss rate". With ``deterministic=False`` each step is an
    independent coin flip: the *whole step* sees loss rate ``p`` with
    probability ``p_active`` — useful for stress-testing threshold
    protocols against intermittent loss. The generator is built at the
    first coin flip, so the deterministic mode never loads
    ``numpy.random``.
    """

    #: The seeded generator, an instance attribute from the first coin flip.
    _rng: np.random.Generator | None = None

    def __init__(
        self,
        p: float,
        deterministic: bool = True,
        p_active: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {p}")
        if not 0.0 <= p_active <= 1.0:
            raise ValueError(f"p_active must be in [0, 1], got {p_active}")
        self.p = p
        self.deterministic = deterministic
        self.p_active = p_active
        self.seed = seed
        self._cache: dict[tuple[int, int], float] = {}

    def rate(self, step: int, sender: int) -> float:
        if self.deterministic:
            return self.p
        key = (step, sender)
        if key not in self._cache:
            if self._rng is None:
                self._rng = np.random.default_rng(self.seed)
            active = self._rng.random() < self.p_active
            self._cache[key] = self.p if active else 0.0
        return self._cache[key]

    def reset(self) -> None:
        vars(self).pop("_rng", None)
        self._cache.clear()


class GilbertElliottLoss(LossProcess):
    """Two-state bursty loss: a good state and a bad (lossy) state.

    Each sender gets an independent chain. Transitions happen per step:
    good -> bad with probability ``p_gb``, bad -> good with ``p_bg``. The
    loss rate is ``loss_good`` in the good state and ``loss_bad`` in the
    bad state. This models wireless-style burst loss, one of the
    "non-congestion loss" environments the paper cites BBR/PCC against.
    """

    def __init__(
        self,
        p_gb: float = 0.01,
        p_bg: float = 0.2,
        loss_good: float = 0.0,
        loss_bad: float = 0.1,
        seed: int = 0,
    ) -> None:
        for name, value in (
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._state: dict[int, bool] = {}  # True = bad state
        self._last_step: dict[int, int] = {}
        self._cache: dict[tuple[int, int], float] = {}

    def rate(self, step: int, sender: int) -> float:
        key = (step, sender)
        if key in self._cache:
            return self._cache[key]
        bad = self._state.get(sender, False)
        last = self._last_step.get(sender, -1)
        # Advance the chain once per (sender, step), regardless of query order.
        for _ in range(max(0, step - last)):
            if bad:
                if self._rng.random() < self.p_bg:
                    bad = False
            else:
                if self._rng.random() < self.p_gb:
                    bad = True
        self._state[sender] = bad
        self._last_step[sender] = step
        value = self.loss_bad if bad else self.loss_good
        self._cache[key] = value
        return value


class TraceLoss(LossProcess):
    """Replay a fixed per-step loss-rate sequence (same for all senders).

    Steps beyond the end of the trace repeat the final value, so a finite
    trace describes a loss regime that persists. An empty trace is not
    allowed.
    """

    def __init__(self, rates: Sequence[float]) -> None:
        if len(rates) == 0:
            raise ValueError("trace must contain at least one rate")
        arr = np.asarray(rates, dtype=float)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("all trace rates must be in [0, 1]")
        self._rates = arr

    def rate(self, step: int, sender: int) -> float:
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        index = min(step, len(self._rates) - 1)
        return float(self._rates[index])

    def reset(self) -> None:
        return None
