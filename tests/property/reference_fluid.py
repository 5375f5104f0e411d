"""Frozen per-sender fluid loop, kept as a bit-identity oracle.

This module is a verbatim copy (modulo naming) of
``FluidSimulator._run_general`` as it stood before its per-sender step
was flattened: a ``SenderState`` per sender that appends its window,
loss and RTT history every step, an ``Observation`` built from that
history and then copied with ``dataclasses.replace`` for ECN marks and
the loss-based RTT placeholder, and the link's derived quantities
(``capacity``, ``pipe_limit``, ``base_rtt``) re-read every step. The
property tests in ``test_prop_fluid_identity.py`` run the same
configurations through this reference and through
``FluidSimulator.run`` and require every trace array to match as raw
uint64 patterns.

Do not "improve" this file: its value is that it does NOT change when the
production loop is optimised. Its one edit since it was frozen keeps it
the same on every Python: the aggregate window is an explicit ``+=``
fold, not ``sum()``, which from Python 3.12 compensates float rounding;
on 3.10 and 3.11 the two give the same bits.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.model.dynamics import SimulationConfig
from repro.model.link import Link
from repro.model.random_loss import combine_loss
from repro.model.sender import Observation
from repro.model.trace import SimulationTrace
from repro.protocols.base import Protocol

_PLACEHOLDER_RTT = 1.0


@dataclass
class ReferenceSenderState:
    """The pre-flattening per-sender record, history lists included."""

    index: int
    window: float
    start_step: int = 0
    windows: list[float] = field(default_factory=list)
    loss_rates: list[float] = field(default_factory=list)
    rtts: list[float] = field(default_factory=list)
    min_rtt: float = float("inf")

    def active(self, step: int) -> bool:
        return step >= self.start_step

    def record(self, window: float, loss_rate: float, rtt: float) -> None:
        self.windows.append(window)
        self.loss_rates.append(loss_rate)
        self.rtts.append(rtt)
        if rtt < self.min_rtt:
            self.min_rtt = rtt

    def observation(self, step: int) -> Observation:
        if not self.windows:
            raise ValueError("no history recorded yet")
        return Observation(
            step=step,
            window=self.windows[-1],
            loss_rate=self.loss_rates[-1],
            rtt=self.rtts[-1],
            min_rtt=self.min_rtt,
        )


def _clamp(cfg: SimulationConfig, window: float) -> float:
    if not math.isfinite(window):
        raise ValueError(f"protocol produced a non-finite window: {window}")
    value = min(max(window, cfg.min_window), cfg.max_window)
    if cfg.integer_windows:
        value = float(round(value))
        value = min(max(value, math.ceil(cfg.min_window)), math.floor(cfg.max_window))
    return value


def reference_run_general(
    link: Link,
    protocols: Sequence[Protocol],
    config: SimulationConfig,
    steps: int,
) -> SimulationTrace:
    """The pre-flattening ``FluidSimulator.run`` on the general loop.

    Deep-copies the protocols and resets them and the loss process first,
    as ``FluidSimulator`` does, so a caller may pass the same objects to
    both sides of a comparison.
    """
    protocols = [copy.deepcopy(p) for p in protocols]
    cfg = config
    n = len(protocols)
    initial = cfg.initial_windows
    if initial is None:
        initial = [1.0] * n
    initial = [float(w) for w in initial]
    cfg.loss_process.reset()
    for protocol in protocols:
        protocol.reset()
    rng = np.random.default_rng(cfg.seed) if cfg.unsynchronized_loss else None

    senders = []
    for i in range(n):
        start = cfg.schedule.start_for(i)
        if start is None:
            senders.append(ReferenceSenderState(index=i, window=_clamp(cfg, initial[i])))
        else:
            senders.append(
                ReferenceSenderState(
                    index=i,
                    window=_clamp(cfg, start.window),
                    start_step=start.step,
                )
            )

    windows = np.full((steps, n), np.nan)
    observed_loss = np.full((steps, n), np.nan)
    congestion_loss = np.zeros(steps)
    rtts = np.zeros(steps)
    capacities = np.zeros(steps)
    pipe_limits = np.zeros(steps)
    base_rtts = np.zeros(steps)

    schedule = cfg.schedule
    has_link_changes = bool(schedule.link_changes)
    static_membership = not schedule.sender_starts
    current = link
    active = senders

    for t in range(steps):
        if has_link_changes:
            current = schedule.link_at(t, link)
        if not static_membership:
            active = [s for s in senders if s.active(t)]
        total = 0.0  # a left fold on every Python (3.12's sum() is compensated)
        for s in active:
            total += s.window
        loss = current.loss_rate(total)
        rtt = current.rtt(total)
        ecn = current.mark_fraction(total)

        congestion_loss[t] = loss
        rtts[t] = rtt
        capacities[t] = current.capacity
        pipe_limits[t] = current.pipe_limit
        base_rtts[t] = current.base_rtt

        for state in active:
            i = state.index
            congestion_seen = loss
            if rng is not None and loss > 0.0:
                notice_probability = 1.0 - (1.0 - loss) ** state.window
                if rng.random() >= notice_probability:
                    congestion_seen = 0.0
            random_loss = cfg.loss_process.rate(t, i)
            seen = combine_loss(congestion_seen, random_loss)
            windows[t, i] = state.window
            observed_loss[t, i] = seen
            state.record(state.window, seen, rtt)

            protocol = protocols[i]
            obs = state.observation(t)
            if ecn > 0.0:
                obs = replace(obs, ecn_fraction=ecn)
            if cfg.enforce_loss_based and protocol.loss_based:
                obs = replace(obs, rtt=_PLACEHOLDER_RTT, min_rtt=_PLACEHOLDER_RTT)
            state.window = _clamp(cfg, protocol.next_window(obs))

    return SimulationTrace(
        windows=windows,
        observed_loss=observed_loss,
        congestion_loss=congestion_loss,
        rtts=rtts,
        capacities=capacities,
        pipe_limits=pipe_limits,
        base_rtts=base_rtts,
    )
