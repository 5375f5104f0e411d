"""Trace persistence: save and reload simulation traces.

Long sweeps are expensive; these helpers export
:class:`~repro.model.trace.SimulationTrace` objects losslessly as ``.npz``
(numpy's compressed container) for external tooling, plus human-readable
CSV. :func:`trace_to_arrays` / :func:`trace_from_arrays` define the
trace's array layout, shared with the content-addressed store
(:mod:`repro.perf.cache`), which archives the same arrays in its own
format. Experiment *results* (scalar tables) go through
:mod:`repro.experiments.results` instead.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.model.trace import SimulationTrace

_TRACE_FIELDS = (
    "windows",
    "observed_loss",
    "congestion_loss",
    "rtts",
    "capacities",
    "pipe_limits",
    "base_rtts",
)

_FORMAT_VERSION = 1


def trace_to_arrays(trace: SimulationTrace) -> dict[str, np.ndarray]:
    """A trace's archived array form: its fields plus a format tag."""
    arrays = {name: getattr(trace, name) for name in _TRACE_FIELDS}
    arrays["format_version"] = np.array(_FORMAT_VERSION)
    return arrays


def trace_from_arrays(arrays: Mapping[str, np.ndarray],
                      source: object = "arrays") -> SimulationTrace:
    """Rebuild a trace from :func:`trace_to_arrays` output.

    Raises :class:`ValueError` naming ``source`` on a format-version
    mismatch or a missing field.
    """
    version = int(arrays["format_version"]) if "format_version" in arrays else 0
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version} in {source}")
    missing = [name for name in _TRACE_FIELDS if name not in arrays]
    if missing:
        raise ValueError(f"{source} is missing trace fields {missing}")
    return SimulationTrace(**{name: arrays[name] for name in _TRACE_FIELDS})


def save_trace(trace: SimulationTrace, path: str | Path) -> Path:
    """Write a trace to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **trace_to_arrays(trace))
    return path


def load_trace(path: str | Path) -> SimulationTrace:
    """Reload a trace written by :func:`save_trace`."""
    path = Path(path)
    with np.load(path) as data:
        return trace_from_arrays(data, path)


def trace_to_csv(trace: SimulationTrace, path: str | Path) -> Path:
    """Export a trace as CSV: one row per step, one window column per sender.

    Columns: ``step, congestion_loss, rtt, capacity, pipe_limit,
    window_0..window_{n-1}, loss_0..loss_{n-1}``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = trace.n_senders
    header = (
        ["step", "congestion_loss", "rtt", "capacity", "pipe_limit"]
        + [f"window_{i}" for i in range(n)]
        + [f"loss_{i}" for i in range(n)]
    )
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for t in range(trace.steps):
            writer.writerow(
                [
                    t,
                    repr(float(trace.congestion_loss[t])),
                    repr(float(trace.rtts[t])),
                    repr(float(trace.capacities[t])),
                    repr(float(trace.pipe_limits[t])),
                ]
                + [repr(float(w)) for w in trace.windows[t]]
                + [repr(float(l)) for l in trace.observed_loss[t]]
            )
    return path
