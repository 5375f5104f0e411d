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

    def __post_init__(self) -> None:
        check_window_clamp(self.min_window, self.max_window)


def check_window_clamp(min_window: float, max_window: float) -> None:
    """Raise ``ValueError`` unless ``0 <= min_window <= max_window`` and
    ``min_window`` is finite. Written so that NaN fails: every comparison
    with NaN is false."""
    if not 0.0 <= min_window < math.inf:
        raise ValueError(f"min_window must be finite and non-negative, got {min_window}")
    if not min_window <= max_window:
        raise ValueError(f"max_window must be >= min_window ({min_window}), got {max_window}")


_PLACEHOLDER_RTT = 1.0
"""RTT shown to loss-based protocols when enforcement is on (arbitrary constant)."""

_GENERAL_LOOP_MAX_FLOWS = 3
"""Flow count up to which the general loop beats the row path.

Measured with ``benchmarks/bench_engines.py`` for AIMD, MIMD and
Robust-AIMD (docs/performance.md): the per-sender loop is faster at
n <= 3 and slower from n = 4 on, where the row path's fixed per-step
NumPy cost is spread over enough flows."""


def stateless_loss_rate(
    protocols: Sequence[Protocol], loss_process: LossProcess | None
) -> float | None:
    """The one non-congestion loss rate of a stateless run, or ``None``.

    A run is stateless when every window update is a pure map of the
    step's feedback: the non-congestion loss is one constant rate for
    every sender and step (no process, ``NoLoss`` or a deterministic
    ``BernoulliLoss``), and each protocol's class implements
    :meth:`~repro.protocols.base.Protocol.batched_next` with the instance
    holding exactly its ``batch_param_names``.
    """
    if loss_process is None or isinstance(loss_process, NoLoss):
        rate = 0.0
    elif isinstance(loss_process, BernoulliLoss) and loss_process.deterministic:
        rate = loss_process.p
    else:
        return None
    for protocol in protocols:
        cls = type(protocol)
        if not getattr(cls, "supports_batched", False):
            return None
        try:
            if set(vars(protocol)) != set(cls.batch_param_names):
                return None
        except TypeError:
            return None
    return rate


def synchronized_stateless(
    link: Link, protocols: Sequence[Protocol], config: SimulationConfig
) -> bool:
    """Whether a fluid run can step its windows as array rows.

    The run must be stateless (:func:`stateless_loss_rate`) and its
    feedback synchronized: no unsynchronized loss, no ECN marking, no
    scheduled starts or link changes, and real-valued windows. The batch
    kernel's lowering and the serial engine's row path both ask this one
    question.
    """
    schedule = config.schedule
    if (
        config.unsynchronized_loss
        or config.integer_windows
        or schedule.sender_starts
        or schedule.link_changes
        or link.marking_enabled
    ):
        return False
    return stateless_loss_rate(protocols, config.loss_process) is not None


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
        :func:`repro.backends.run_spec` or an executor job. A run of more
        than :data:`_GENERAL_LOOP_MAX_FLOWS` flows of one protocol class
        that is :func:`synchronized_stateless` takes the row path; every
        other run takes the general loop. Both give bit-identical traces.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        cfg = self.config
        cfg.loss_process.reset()
        for protocol in self.protocols:
            protocol.reset()
        if (
            len(self.protocols) > _GENERAL_LOOP_MAX_FLOWS
            and len({type(p) for p in self.protocols}) == 1
            and synchronized_stateless(self.link, self.protocols, cfg)
        ):
            with timing.measure("sim.run.vectorized"):
                trace = self._run_vectorized(steps)
        else:
            with timing.measure("sim.run.general"):
                trace = self._run_general(steps)
        if debug.enabled():
            _validate_trace(trace)
        return trace

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
            total = 0.0  # a left fold on every Python (3.12's sum() is compensated)
            for state in active:
                total += state.window
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
        """The row path: one NumPy update per step for all senders.

        Each step applies the one protocol class's
        :meth:`~repro.protocols.base.Protocol.batched_next` to the window
        row, with per-column parameters read from ``batch_param_names``.
        Every float operation mirrors the general loop exactly — the
        aggregate is a left fold (NumPy's pairwise ``sum`` would round
        differently), the link is evaluated with the scalar
        ``Link.loss_rate``/``Link.rtt``, loss is combined through
        :func:`combine_loss` even when the random rate is zero, and the
        clamp is the same min/max — so the trace is bit-identical to the
        general loop's.
        """
        cfg = self.config
        protocols = self.protocols
        n = len(protocols)
        cls = type(protocols[0])
        params = {
            name: np.array([getattr(p, name) for p in protocols], dtype=float)
            for name in cls.batch_param_names
        }
        link = self.link
        # Constant when stateless (NoLoss or deterministic Bernoulli).
        random_rate = cfg.loss_process.rate(0, 0)
        use_placeholder_rtt = cfg.enforce_loss_based and cls.loss_based
        min_window, max_window = cfg.min_window, cfg.max_window

        current = np.array(
            [self._clamp(w) for w in self._initial], dtype=float
        )
        windows = np.full((steps, n), np.nan)
        observed = np.zeros(steps)
        congestion_loss = np.zeros(steps)
        rtts = np.zeros(steps)
        capacities = np.full(steps, link.capacity)
        pipe_limits = np.full(steps, link.pipe_limit)
        base_rtts = np.full(steps, link.base_rtt)

        for t in range(steps):
            total = float(np.add.accumulate(current)[-1])
            loss = link.loss_rate(total)
            rtt = link.rtt(total)
            seen = combine_loss(loss, random_rate)

            congestion_loss[t] = loss
            rtts[t] = rtt
            windows[t] = current
            observed[t] = seen

            rtt_observed = _PLACEHOLDER_RTT if use_placeholder_rtt else rtt
            proposed = np.asarray(
                cls.batched_next(current, seen, rtt_observed, params), dtype=float
            )
            if proposed.shape != (n,):
                raise ValueError(
                    f"batched_next returned shape {proposed.shape}, "
                    f"expected ({n},)"
                )
            if not np.isfinite(proposed).all():
                raise ValueError(
                    "protocol produced a non-finite window: "
                    f"{proposed[~np.isfinite(proposed)][0]}"
                )
            current = proposed.clip(min_window, max_window)

        return SimulationTrace(
            windows=windows,
            # Every sender sees the step's one synchronized loss signal.
            observed_loss=np.repeat(observed[:, None], n, axis=1),
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
