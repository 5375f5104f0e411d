"""Recorded time series of a fluid-model simulation.

A :class:`SimulationTrace` is the bridge between the simulator and the
metric estimators: every axiom of Section 3 is estimated by reducing these
series over a measurement tail. The trace stores, per step:

- each sender's congestion window ``x_i(t)`` (NaN before the sender starts),
- the aggregate ``X(t)``,
- the congestion loss rate ``L(t)`` of the link,
- each sender's *observed* loss rate (congestion loss combined with the
  random loss rate),
- the step RTT per Eq. (1),
- the capacity ``C`` and pipe limit ``C + tau`` in force (these can change
  mid-run via :class:`repro.model.events.LinkChange`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SimulationTrace:
    """Immutable-by-convention container of simulation time series.

    All arrays have ``steps`` rows; per-sender arrays have ``n`` columns.
    Entries for steps before a sender's start are NaN in ``windows`` and
    ``observed_loss``.
    """

    windows: np.ndarray
    observed_loss: np.ndarray
    congestion_loss: np.ndarray
    rtts: np.ndarray
    capacities: np.ndarray
    pipe_limits: np.ndarray
    base_rtts: np.ndarray

    def __post_init__(self) -> None:
        self.windows = np.asarray(self.windows, dtype=float)
        self.observed_loss = np.asarray(self.observed_loss, dtype=float)
        if self.windows.ndim != 2:
            raise ValueError("windows must be a (steps, n) array")
        if self.windows.shape != self.observed_loss.shape:
            raise ValueError("windows and observed_loss must have identical shape")
        for name in ("congestion_loss", "rtts", "capacities", "pipe_limits", "base_rtts"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape != (self.windows.shape[0],):
                raise ValueError(f"{name} must be a (steps,) array")

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Number of simulated steps."""
        return self.windows.shape[0]

    @property
    def n_senders(self) -> int:
        """Number of senders (columns)."""
        return self.windows.shape[1]

    def tail(self, fraction: float = 0.5) -> "SimulationTrace":
        """The final ``fraction`` of the trace, as a new trace.

        Metric estimators use tails to approximate the paper's "from some
        time step T onwards" quantifier.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        start = self.steps - max(1, int(round(self.steps * fraction)))
        return self.slice(start, self.steps)

    def slice(self, start: int, stop: int) -> "SimulationTrace":
        """Steps ``start:stop`` as a new trace (views, not copies)."""
        if not 0 <= start < stop <= self.steps:
            raise ValueError(f"invalid slice [{start}, {stop}) for {self.steps} steps")
        return SimulationTrace(
            windows=self.windows[start:stop],
            observed_loss=self.observed_loss[start:stop],
            congestion_loss=self.congestion_loss[start:stop],
            rtts=self.rtts[start:stop],
            capacities=self.capacities[start:stop],
            pipe_limits=self.pipe_limits[start:stop],
            base_rtts=self.base_rtts[start:stop],
        )

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    def total_window(self) -> np.ndarray:
        """``X(t)``: aggregate in-flight traffic per step (NaN-safe)."""
        return np.nansum(self.windows, axis=1)

    def utilization(self) -> np.ndarray:
        """``X(t) / C``: fraction of capacity consumed, clipped at the pipe limit.

        Values above 1 indicate a standing queue; the link never *carries*
        more than ``C + tau``, so the series is capped there (in units of C).
        """
        x = self.total_window()
        return np.minimum(x, self.pipe_limits) / self.capacities

    def goodput(self) -> np.ndarray:
        """Per-sender delivered rate in MSS/s: ``x_i (1 - l_i) / RTT``."""
        return self.windows * (1.0 - self.observed_loss) / self.rtts[:, None]

    def mean_windows(self) -> np.ndarray:
        """Per-sender time-average window over the trace (NaN-aware)."""
        with np.errstate(invalid="ignore"):
            return np.nanmean(self.windows, axis=0)

    def mean_goodput(self) -> np.ndarray:
        """Per-sender time-average goodput over the trace (NaN-aware)."""
        with np.errstate(invalid="ignore"):
            return np.nanmean(self.goodput(), axis=0)

    def loss_events(self) -> np.ndarray:
        """Boolean per step: did the link drop anything (``L(t) > 0``)?"""
        return self.congestion_loss > 0.0

    def rtt_inflation(self) -> np.ndarray:
        """``RTT(t) / (2 Theta) - 1``: queueing-induced latency inflation."""
        return self.rtts / self.base_rtts - 1.0

    def sender_series(self, sender: int) -> np.ndarray:
        """One sender's window series (with NaNs before its start)."""
        if not 0 <= sender < self.n_senders:
            raise ValueError(f"sender index {sender} out of range [0, {self.n_senders})")
        return self.windows[:, sender]

    def active_mask(self) -> np.ndarray:
        """Boolean (steps, n): whether each sender was active at each step."""
        return ~np.isnan(self.windows)

    def summary(self) -> dict[str, float]:
        """A small dict of headline statistics for logging and reports."""
        tail = self.tail(0.5)
        return {
            "steps": float(self.steps),
            "senders": float(self.n_senders),
            "mean_utilization": float(np.mean(tail.utilization())),
            "mean_loss": float(np.mean(tail.congestion_loss)),
            "loss_event_fraction": float(np.mean(tail.loss_events())),
            "mean_rtt_inflation": float(np.mean(tail.rtt_inflation())),
        }
