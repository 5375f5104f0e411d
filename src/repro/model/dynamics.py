"""The fluid-model simulation engine.

Implements the dynamics of Section 2: at each RTT-sized step ``t``, every
active sender transmits its window ``x_i(t)``; the link computes the loss
rate ``L(t)`` (droptail) and the step RTT (Eq. (1)) from the aggregate
``X(t)``; each sender then consults its protocol with its own observation
to pick ``x_i(t+1)``. The induced dynamic is deterministic given the
protocols, initial windows and (seeded) loss process, exactly as the paper
requires.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import debug
from repro.model.events import EventSchedule
from repro.model.formulas import droptail_loss_rate, eq1_rtt
from repro.model.link import Link
from repro.model.random_loss import BernoulliLoss, LossProcess, NoLoss, combine_loss
from repro.model.sender import Observation, SenderState
from repro.model.trace import SimulationTrace
from repro.perf import timing
from repro.protocols.base import Protocol

DEFAULT_MAX_WINDOW = 1e9
"""Default ``M``: effectively unbounded, consistent with the paper's 1 << M."""


@dataclass
class SimulationConfig:
    """Knobs controlling a fluid simulation.

    Attributes
    ----------
    initial_windows:
        ``x_i(0)`` per sender; defaults to 1 MSS each. The paper reasons
        about late-joining flows via unequal initial windows — set them
        here, or use an :class:`EventSchedule` for genuinely delayed starts.
    min_window / max_window:
        Window clamp. The paper's windows live in ``{0, ..., M}``; a floor
        of 1 MSS (the default) keeps multiplicative-decrease protocols
        live, mirroring real stacks that never shrink below one segment.
    integer_windows:
        Round windows to whole MSS after each protocol decision, matching
        the paper's integral window space. Off by default: the fluid
        analyses in the paper treat windows as reals.
    loss_process:
        Non-congestion loss (Metric VI and robustness experiments).
    schedule:
        Staggered sender starts and mid-run link changes.
    enforce_loss_based:
        When true (default), protocols whose ``loss_based`` flag is set see
        a constant placeholder RTT, making it impossible for them to react
        to latency even by accident — the paper's definition of loss-based
        ("choice of window-sizes is invariant to the RTT values").
    unsynchronized_loss:
        The paper's model gives every sender the same ``L(t)`` each step
        ("senders experience synchronized feedback"); it names relaxing
        this as future work. With this flag, a lossy step notifies each
        sender only with probability ``1 - (1 - L)**x_i`` — the chance at
        least one of its packets was among the drops — so small flows
        often sail through a loss event unscathed, as they do in real
        droptail queues. Seeded and deterministic via ``seed``.
    allow_vectorized:
        Permit the homogeneous fast path: when every sender runs the same
        protocol with the same parameters, feedback is synchronized and
        the protocol opts in (``Protocol.supports_vectorized``), the
        simulator steps all windows with one numpy expression per step
        instead of per-sender Python objects. Traces are bit-identical to
        the general path (property-tested); disable to force the general
        loop.
    """

    initial_windows: Sequence[float] | None = None
    min_window: float = 1.0
    max_window: float = DEFAULT_MAX_WINDOW
    integer_windows: bool = False
    loss_process: LossProcess = field(default_factory=NoLoss)
    schedule: EventSchedule = field(default_factory=EventSchedule)
    enforce_loss_based: bool = True
    unsynchronized_loss: bool = False
    seed: int = 0
    allow_vectorized: bool = True

    def __post_init__(self) -> None:
        if self.min_window < 0:
            raise ValueError(f"min_window must be non-negative, got {self.min_window}")
        if self.max_window < self.min_window:
            raise ValueError(
                f"max_window ({self.max_window}) must be >= min_window ({self.min_window})"
            )


_PLACEHOLDER_RTT = 1.0
"""RTT shown to loss-based protocols when enforcement is on (arbitrary constant)."""


def _validate_trace(trace: SimulationTrace) -> None:
    """Sanitizer pass over a finished trace (``REPRO_DEBUG_CHECKS=1``).

    Windows may legitimately be NaN (senders that have not started yet),
    but never Inf; loss rates live in [0, 1]; RTTs and link parameters
    are positive and finite. Runs only as an observer — it never mutates
    the trace — so checked and unchecked runs stay bit-identical.
    """
    if np.isinf(trace.windows).any():
        debug.fail("trace-finite", "windows contain Inf")
    loss = trace.congestion_loss
    if not np.isfinite(loss).all() or (loss < 0).any() or (loss > 1).any():
        debug.fail("trace-loss-range", "congestion loss outside [0, 1] or non-finite")
    observed = trace.observed_loss
    with np.errstate(invalid="ignore"):
        if np.isinf(observed).any() or (observed < 0).any() or (observed > 1).any():
            debug.fail("trace-loss-range", "observed loss outside [0, 1] or Inf")
    for name in ("rtts", "capacities", "pipe_limits", "base_rtts"):
        values = getattr(trace, name)
        if not np.isfinite(values).all() or (values <= 0).any():
            debug.fail("trace-finite", f"{name} must be positive and finite")


class FluidSimulator:
    """Runs the discrete-time dynamics of protocols sharing one link.

    Protocol instances are deep-copied at construction, so the same object
    may safely be passed for several senders::

        sim = FluidSimulator(link, [AIMD(1, 0.5)] * 4)
    """

    def __init__(
        self,
        link: Link,
        protocols: Sequence[Protocol],
        config: SimulationConfig | None = None,
    ) -> None:
        if not protocols:
            raise ValueError("at least one sender is required")
        self.link = link
        self.protocols: list[Protocol] = [copy.deepcopy(p) for p in protocols]
        self.config = config or SimulationConfig()
        n = len(self.protocols)
        initial = self.config.initial_windows
        if initial is None:
            initial = [1.0] * n
        if len(initial) != n:
            raise ValueError(
                f"got {len(initial)} initial windows for {n} senders"
            )
        for w in initial:
            if w < 0 or not math.isfinite(w):
                raise ValueError(f"initial windows must be finite and non-negative, got {w}")
        self._initial = [float(w) for w in initial]
        for event in self.config.schedule.sender_starts:
            if event.sender >= n:
                raise ValueError(
                    f"schedule references sender {event.sender} but only {n} exist"
                )

    # ------------------------------------------------------------------
    def run(self, steps: int) -> SimulationTrace:
        """Simulate ``steps`` RTT-sized time steps and return the trace.

        Always simulates: stored traces come through
        :func:`repro.backends.run_spec` or an executor job. Homogeneous
        runs whose protocol opts in take the vectorized fast path (see
        ``SimulationConfig.allow_vectorized``).
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        cfg = self.config
        cfg.loss_process.reset()
        for protocol in self.protocols:
            protocol.reset()
        if self._fast_path_eligible():
            with timing.measure("sim.run.vectorized"):
                trace = self._run_vectorized(steps)
        else:
            with timing.measure("sim.run.general"):
                trace = self._run_general(steps)
        if debug.enabled():
            _validate_trace(trace)
        return trace

    # ------------------------------------------------------------------
    def _fast_path_eligible(self) -> bool:
        """Whether the vectorized homogeneous fast path applies.

        Requirements: every sender runs the same protocol class with the
        same parameters and the protocol opts in via
        ``supports_vectorized``; feedback is synchronized (no
        ``unsynchronized_loss``, no ECN marking); no scheduled events; no
        per-sender non-congestion loss (``NoLoss`` or a deterministic
        ``BernoulliLoss``, both constant across senders); and real-valued
        windows (``integer_windows`` off). Everything else falls back to
        the general per-sender loop.
        """
        cfg = self.config
        if not cfg.allow_vectorized:
            return False
        if cfg.unsynchronized_loss or cfg.integer_windows:
            return False
        if cfg.schedule.sender_starts or cfg.schedule.link_changes:
            return False
        if self.link.marking_enabled:
            return False
        lp = cfg.loss_process
        if not (
            isinstance(lp, NoLoss)
            or (isinstance(lp, BernoulliLoss) and lp.deterministic)
        ):
            return False
        first = self.protocols[0]
        if not getattr(first, "supports_vectorized", False):
            return False
        try:
            signature = vars(first)
            return all(
                type(p) is type(first) and vars(p) == signature
                for p in self.protocols[1:]
            )
        except Exception:  # noqa: BLE001 - any doubt means "not eligible"
            return False

    # ------------------------------------------------------------------
    def _run_general(self, steps: int) -> SimulationTrace:
        """The per-sender reference loop (handles every configuration).

        A sender-step is flat: the protocol's :class:`Observation` is
        built once with its final fields (ECN marks, and the placeholder
        RTT a loss-based protocol sees under enforcement), windows and
        observed losses go into flat lists that become the trace arrays at
        the end, and the link's derived quantities are read once per link
        rather than once per step.
        """
        cfg = self.config
        protocols = self.protocols
        n = len(protocols)
        rng = np.random.default_rng(cfg.seed) if cfg.unsynchronized_loss else None
        clamp = self._clamp

        senders = []
        for i in range(n):
            start = cfg.schedule.start_for(i)
            if start is None:
                senders.append(SenderState(index=i, window=clamp(self._initial[i])))
            else:
                senders.append(
                    SenderState(
                        index=i,
                        window=clamp(start.window),
                        start_step=start.step,
                    )
                )

        windows = [math.nan] * (steps * n)
        observed_loss = [math.nan] * (steps * n)
        congestion_loss = [0.0] * steps
        rtts = [0.0] * steps

        # Loop invariants hoisted for the (overwhelmingly common) case of
        # an empty schedule: the link never changes and every sender is
        # active from step 0, so neither needs recomputing per step.
        schedule = cfg.schedule
        has_link_changes = bool(schedule.link_changes)
        static_membership = not schedule.sender_starts
        link_columns: list[tuple[float, float, float]] = []
        loss_rate_of = cfg.loss_process.rate
        enforce = cfg.enforce_loss_based
        link = None
        active = senders

        for t in range(steps):
            current = schedule.link_at(t, self.link) if has_link_changes else self.link
            if current is not link:
                link = current
                capacity, pipe_limit, base_rtt = (
                    link.capacity, link.pipe_limit, link.base_rtt
                )
                bandwidth, timeout_rtt = link.bandwidth, link.timeout_rtt
                marking = link.marking_enabled
            if has_link_changes:
                link_columns.append((capacity, pipe_limit, base_rtt))
            if not static_membership:
                active = [s for s in senders if s.active(t)]
            total = sum([s.window for s in active])
            if total < 0:
                link.loss_rate(total)  # raises the link's negative-total error
            loss = droptail_loss_rate(total, pipe_limit)
            rtt = eq1_rtt(total, capacity, bandwidth, base_rtt, pipe_limit, timeout_rtt)
            # Marking off: mark_fraction is 0.0 (loss_rate already vetted total).
            ecn = link.mark_fraction(total) if marking else 0.0
            if not ecn > 0.0:
                ecn = 0.0

            congestion_loss[t] = loss
            rtts[t] = rtt
            row = t * n
            for state in active:
                i = state.index
                window = state.window
                congestion_seen = loss
                if rng is not None and loss > 0.0:
                    notice_probability = 1.0 - (1.0 - loss) ** window
                    if rng.random() >= notice_probability:
                        congestion_seen = 0.0
                seen = combine_loss(congestion_seen, loss_rate_of(t, i))
                windows[row + i] = window
                observed_loss[row + i] = seen
                if rtt < state.min_rtt:
                    state.min_rtt = rtt

                protocol = protocols[i]
                if enforce and protocol.loss_based:
                    obs = Observation(
                        t, window, seen, _PLACEHOLDER_RTT, _PLACEHOLDER_RTT, ecn
                    )
                else:
                    obs = Observation(t, window, seen, rtt, state.min_rtt, ecn)
                state.window = clamp(protocol.next_window(obs))

        if has_link_changes:
            capacities, pipe_limits, base_rtts = (
                np.array(column, dtype=float) for column in zip(*link_columns)
            )
        else:
            capacities = np.full(steps, capacity)
            pipe_limits = np.full(steps, pipe_limit)
            base_rtts = np.full(steps, base_rtt)
        return SimulationTrace(
            windows=np.array(windows, dtype=float).reshape(steps, n),
            observed_loss=np.array(observed_loss, dtype=float).reshape(steps, n),
            congestion_loss=np.array(congestion_loss, dtype=float),
            rtts=np.array(rtts, dtype=float),
            capacities=capacities,
            pipe_limits=pipe_limits,
            base_rtts=base_rtts,
        )

    # ------------------------------------------------------------------
    def _run_vectorized(self, steps: int) -> SimulationTrace:
        """Homogeneous fast path: one numpy update per step for all senders.

        Only runs when :meth:`_fast_path_eligible` holds. Every float
        operation mirrors the general loop exactly — the aggregate is a
        left-fold sum (numpy's pairwise summation would round differently),
        loss is combined through :func:`combine_loss` even when the random
        rate is zero, and the clamp is the same min/max — so the resulting
        trace is bit-identical to the general path's.
        """
        cfg = self.config
        n = len(self.protocols)
        protocol = self.protocols[0]
        link = self.link
        # Constant by eligibility (NoLoss or deterministic Bernoulli).
        random_rate = cfg.loss_process.rate(0, 0)
        use_placeholder_rtt = cfg.enforce_loss_based and protocol.loss_based

        current = np.array(
            [self._clamp(w) for w in self._initial], dtype=float
        )
        windows = np.full((steps, n), np.nan)
        observed_loss = np.full((steps, n), np.nan)
        congestion_loss = np.zeros(steps)
        rtts = np.zeros(steps)
        capacities = np.full(steps, link.capacity)
        pipe_limits = np.full(steps, link.pipe_limit)
        base_rtts = np.full(steps, link.base_rtt)

        for t in range(steps):
            # Left-fold sum in sender order, matching sum() over states.
            total = 0.0
            for value in current.tolist():
                total += value
            loss = link.loss_rate(total)
            rtt = link.rtt(total)
            seen = combine_loss(loss, random_rate)

            congestion_loss[t] = loss
            rtts[t] = rtt
            windows[t, :] = current
            observed_loss[t, :] = seen

            rtt_observed = _PLACEHOLDER_RTT if use_placeholder_rtt else rtt
            proposed = np.asarray(
                protocol.vectorized_next(current, seen, rtt_observed), dtype=float
            )
            if proposed.shape != (n,):
                raise ValueError(
                    f"vectorized_next returned shape {proposed.shape}, "
                    f"expected ({n},)"
                )
            if not np.all(np.isfinite(proposed)):
                raise ValueError(
                    "protocol produced a non-finite window: "
                    f"{proposed[~np.isfinite(proposed)][0]}"
                )
            current = np.clip(proposed, cfg.min_window, cfg.max_window)

        return SimulationTrace(
            windows=windows,
            observed_loss=observed_loss,
            congestion_loss=congestion_loss,
            rtts=rtts,
            capacities=capacities,
            pipe_limits=pipe_limits,
            base_rtts=base_rtts,
        )

    # ------------------------------------------------------------------
    def _clamp(self, window: float) -> float:
        """Apply the window clamp (and optional integrality) of the config."""
        if not math.isfinite(window):
            raise ValueError(f"protocol produced a non-finite window: {window}")
        cfg = self.config
        value = min(max(window, cfg.min_window), cfg.max_window)
        if cfg.integer_windows:
            value = float(round(value))
            value = min(max(value, math.ceil(cfg.min_window)), math.floor(cfg.max_window))
        return value


def run_homogeneous(
    link: Link,
    protocol: Protocol,
    n_senders: int,
    steps: int,
    config: SimulationConfig | None = None,
) -> SimulationTrace:
    """Convenience wrapper: ``n_senders`` copies of one protocol on a link.

    This is the setting of Metrics I, III, IV, V and VIII ("when all
    senders employ P").
    """
    if n_senders <= 0:
        raise ValueError(f"n_senders must be positive, got {n_senders}")
    sim = FluidSimulator(link, [protocol] * n_senders, config)
    return sim.run(steps)
