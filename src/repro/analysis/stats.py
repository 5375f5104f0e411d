"""Statistics over simulation time series.

These reducers turn finite traces into the quantities the paper's axioms
speak about: tail averages (the "from some time T onwards" quantifier),
fairness ratios, convergence bands, and loss-free run lengths (used by the
fast-utilization estimator).
"""

from __future__ import annotations

import numpy as np


def tail_mean(series: np.ndarray, fraction: float = 0.5) -> float:
    """Mean of the final ``fraction`` of ``series`` (NaN-aware).

    Raises if the tail is entirely NaN — that indicates the measured
    sender never became active, which is a caller bug.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size == 0:
        raise ValueError("series must be a non-empty 1-D array")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    start = series.size - max(1, int(round(series.size * fraction)))
    tail = series[start:]
    if np.all(np.isnan(tail)):
        raise ValueError("tail contains no observations")
    return float(np.nanmean(tail))


def jain_index(values: np.ndarray) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)`` in ``(0, 1]``.

    1 means perfectly equal shares; ``1/n`` means one sender holds
    everything. A standard complement to the paper's min-ratio fairness.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if np.any(values < 0):
        raise ValueError("values must be non-negative")
    total = values.sum()
    if total == 0:
        return 1.0  # all-zero allocations are (vacuously) equal
    # Normalize before squaring: squaring raw values under- or overflows
    # for subnormal/huge inputs even though the index itself is scale-free.
    shares = values / total
    return float(1.0 / (values.size * np.sum(shares**2)))


def min_over_max(values: np.ndarray) -> float:
    """``min(values) / max(values)``: the paper's pairwise fairness alpha.

    The protocol is alpha-fair exactly when every sender's average window
    is at least alpha times any other's, i.e. alpha = min/max.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if np.any(values < 0):
        raise ValueError("values must be non-negative")
    top = values.max()
    if top == 0:
        return 1.0
    return float(values.min() / top)


def convergence_alpha(series: np.ndarray) -> float:
    """The largest alpha for which a series fits the paper's Metric V band.

    Metric V asks for a fixed point ``x*`` with
    ``alpha * x* <= x(t) <= (2 - alpha) * x*``. For a given ``x*`` the best
    alpha is ``min(x_min / x*, 2 - x_max / x*)``; maximizing over ``x*``
    yields ``x* = (x_min + x_max) / 2`` and::

        alpha = 2 * x_min / (x_min + x_max)

    For an AIMD sawtooth oscillating between ``b*W`` and ``W`` this evaluates
    to ``2b / (1 + b)`` — exactly Table 1's convergence column.
    """
    series = np.asarray(series, dtype=float)
    series = series[~np.isnan(series)]
    if series.size == 0:
        raise ValueError("series contains no observations")
    if np.any(series < 0):
        raise ValueError("window series must be non-negative")
    low = float(series.min())
    high = float(series.max())
    if high == 0:
        return 1.0
    return 2.0 * low / (low + high)


def relative_band(series: np.ndarray) -> float:
    """Half-width of the series' oscillation relative to its midpoint.

    ``0`` for a constant series; ``(max - min) / (max + min)`` otherwise.
    Equals ``1 - convergence_alpha``.
    """
    return 1.0 - convergence_alpha(series)


def detect_settling_step(
    series: np.ndarray, band: float = 0.1, min_hold: int = 10
) -> int | None:
    """First step from which the series stays within ``+-band`` of its final band.

    The reference band is computed from the last ``min_hold`` samples'
    midpoint. Returns None when the series never settles (including when
    it is shorter than ``min_hold``).
    """
    series = np.asarray(series, dtype=float)
    series = series[~np.isnan(series)]
    if band <= 0:
        raise ValueError(f"band must be positive, got {band}")
    if min_hold <= 0:
        raise ValueError(f"min_hold must be positive, got {min_hold}")
    if series.size < min_hold:
        return None
    reference = float(np.mean(series[-min_hold:]))
    if reference == 0:
        inside = series == 0
    else:
        inside = np.abs(series - reference) <= band * abs(reference)
    # The settling step is the start of the final all-inside suffix.
    outside = np.nonzero(~inside)[0]
    first = 0 if outside.size == 0 else int(outside[-1]) + 1
    if first >= series.size:
        return None
    return first


def loss_free_runs(loss_series: np.ndarray) -> list[tuple[int, int]]:
    """Maximal ``[start, stop)`` intervals with zero loss throughout."""
    loss_series = np.asarray(loss_series, dtype=float)
    runs: list[tuple[int, int]] = []
    start: int | None = None
    for t, value in enumerate(loss_series):
        # Zero-loss steps carry an exact 0.0 from Link.loss_rate, never a
        # rounded near-zero, so equality is the correct test here.
        if value == 0.0:
            if start is None:
                start = t
        else:
            if start is not None:
                runs.append((start, t))
                start = None
    if start is not None:
        runs.append((start, len(loss_series)))
    return runs


def longest_loss_free_run(loss_series: np.ndarray) -> tuple[int, int]:
    """The longest zero-loss interval, or ``(0, 0)`` when every step lost."""
    runs = loss_free_runs(loss_series)
    if not runs:
        return (0, 0)
    return max(runs, key=lambda r: r[1] - r[0])
