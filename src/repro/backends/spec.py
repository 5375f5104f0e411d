"""The canonical scenario description shared by every backend.

A :class:`ScenarioSpec` says *what* to simulate — protocols on a
bottleneck, start times, horizon, random loss, seed — without saying *how*.
Each backend in the table of :mod:`repro.backends.base` (fluid,
network, packet, meanfield) lowers the spec to its native
configuration via :meth:`ScenarioSpec.lower_fluid`,
:meth:`~ScenarioSpec.lower_network`, :meth:`~ScenarioSpec.lower_packet`
or :meth:`~ScenarioSpec.lower_meanfield`.

Lowering is bit-preserving by construction: the fluid lowering rebuilds a
field-for-field-equal :class:`~repro.model.dynamics.SimulationConfig`, and
the packet lowering a field-identical
:class:`~repro.packetsim.scenario.PacketScenario`, so a driver re-expressed
over a spec reproduces its historical outputs exactly (property-tested in
``tests/property/test_prop_backends.py``).

Every *dynamics* knob (loss shape, schedule, staggered starts, window
integrality, clamps) either lowers faithfully or raises
:class:`LoweringError`, so a spec never silently means something else on
another backend. The fluid-model devices ``enforce_loss_based`` and
``unsynchronized_loss`` have no packet analogue, and the packet lowering
ignores them (see :meth:`ScenarioSpec.lower_packet`).

Times in a spec are in **seconds** (wall-clock of the modelled network).
The packet backend consumes them directly; the RTT-stepped fluid backend
quantizes ``start_times`` to whole base-RTT rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.dynamics import DEFAULT_MAX_WINDOW, SimulationConfig
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.model.random_loss import BernoulliLoss, LossProcess, NoLoss
from repro.protocols.base import Protocol

__all__ = ["LoweringError", "ScenarioSpec"]


class LoweringError(ValueError):
    """A spec requests dynamics the target backend cannot express."""


#: Fields that must be integers (``int`` or a NumPy integer, never a
#: ``bool``); they are stored as ``int``.
_INTEGER_FIELDS = ("steps", "seed", "flow_multiplicity")

#: Fields that must be ``bool``.
_BOOL_FIELDS = ("slow_start", "integer_windows", "enforce_loss_based", "unsynchronized_loss")

#: Fields that must be real numbers (``int``, ``float`` or a NumPy integer
#: or float, never a ``bool``; ``duration`` may also be ``None``). They are
#: stored as given, so a key never moves.
_NUMBER_FIELDS = ("duration", "random_loss_rate", "min_window", "max_window")


@dataclass
class ScenarioSpec:
    """A backend-agnostic description of one congestion-control scenario.

    Attributes
    ----------
    protocols:
        One protocol instance per sender (instances may repeat; engines
        deep-copy them).
    link:
        The bottleneck. Multi-link scenarios set ``topology`` instead and
        use ``link`` as the nominal bottleneck for trace normalization.
    steps:
        Horizon in RTT-sized decision rounds (fluid and network backends).
    duration:
        Horizon in seconds for the packet backend; defaults to
        ``steps * link.base_rtt`` so the horizons agree across backends.
    initial_windows:
        ``x_i(0)`` per sender (default 1 MSS each). The packet engine
        supports only a uniform initial window.
    start_times:
        Per-sender start times in seconds (default: everyone at 0). The
        packet backend uses them exactly; the fluid backend rounds to
        base-RTT steps. Mutually exclusive with ``schedule``.
    random_loss_rate:
        Constant non-congestion loss. Lowers to a deterministic
        :class:`~repro.model.random_loss.BernoulliLoss` for the fluid
        family and to receiver-side Bernoulli drops for the packet engine.
    loss_process:
        Escape hatch for richer fluid-family loss shapes (Gilbert-Elliott,
        traces). Not expressible at packet level.
    schedule:
        Fluid-only staggered starts / mid-run link changes, in steps.
    topology:
        Network-backend-only multi-link topology; defaults to a
        single-link topology built from ``link``.
    slow_start:
        Wrap every protocol in
        :class:`~repro.protocols.slow_start.SlowStartWrapper` (the ramp
        kernel stacks perform); applies on every backend.
    seed:
        Seeds whichever randomness the backend has (unsynchronized fluid
        feedback, packet receiver drops); non-negative, as NumPy's
        generators require. Note the packet drivers historically default
        to seed 1.
    min_window / max_window / integer_windows / enforce_loss_based /
    unsynchronized_loss:
        The :class:`~repro.model.dynamics.SimulationConfig` knobs, with
        identical defaults.
    flow_multiplicity:
        Each entry of ``protocols`` stands for this many identical flows
        (default 1). ``initial_windows`` stays per *entry*; expansion to
        per-flow lists happens at lowering, so a million-flow scenario
        never materializes a million protocol objects. The mean-field
        backend keeps the aggregation symbolic (populations weight the
        density); the fluid/network/packet backends expand to real
        per-flow state and remain O(flows). Multiplicity above 1 is
        incompatible with per-flow ``start_times`` and ``schedule``.
    """

    protocols: Sequence[Protocol]
    link: Link
    steps: int = 4000
    duration: float | None = None
    initial_windows: Sequence[float] | None = None
    start_times: Sequence[float] | None = None
    random_loss_rate: float = 0.0
    loss_process: LossProcess | None = None
    schedule: EventSchedule | None = None
    topology: "object | None" = None
    slow_start: bool = False
    seed: int = 0
    min_window: float = 1.0
    max_window: float = DEFAULT_MAX_WINDOW
    integer_windows: bool = False
    enforce_loss_based: bool = True
    unsynchronized_loss: bool = False
    flow_multiplicity: int = 1

    def __post_init__(self) -> None:
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, got {value!r}")
        for name in _NUMBER_FIELDS:
            value = getattr(self, name)
            if value is None and name == "duration":
                continue
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if not self.protocols:
            raise ValueError("at least one sender is required")
        self.protocols = list(self.protocols)
        n = len(self.protocols)
        if self.steps <= 0:
            raise ValueError(f"steps must be positive, got {self.steps}")
        if self.duration is not None and not 0 < self.duration < math.inf:
            raise ValueError(
                f"duration must be finite and positive, got {self.duration}"
            )
        if not 0.0 <= self.random_loss_rate < 1.0:
            raise ValueError(
                f"random_loss_rate must be in [0, 1), got {self.random_loss_rate}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.initial_windows is not None:
            self.initial_windows = [float(w) for w in self.initial_windows]
            if len(self.initial_windows) != n:
                raise ValueError(
                    f"got {len(self.initial_windows)} initial windows for {n} senders"
                )
        if self.start_times is not None:
            self.start_times = [float(t) for t in self.start_times]
            if len(self.start_times) != n:
                raise ValueError(
                    f"got {len(self.start_times)} start times for {n} senders"
                )
            for t in self.start_times:
                if t < 0 or not math.isfinite(t):
                    raise ValueError(f"start times must be finite and >= 0, got {t}")
            if self.schedule is not None:
                raise ValueError("set start_times or schedule, not both")
        if self.random_loss_rate > 0.0 and self.loss_process is not None:
            raise ValueError("set random_loss_rate or loss_process, not both")
        if self.flow_multiplicity < 1:
            raise ValueError(
                f"flow_multiplicity must be positive, got {self.flow_multiplicity}"
            )
        if self.flow_multiplicity > 1 and (
            self.start_times is not None or self.schedule is not None
        ):
            raise ValueError(
                "flow_multiplicity > 1 is incompatible with per-flow "
                "start_times or a schedule"
            )

    # ------------------------------------------------------------------
    @property
    def n_senders(self) -> int:
        return len(self.protocols) * self.flow_multiplicity

    def horizon_seconds(self) -> float:
        """The packet-backend horizon: ``duration`` or steps worth of base RTTs."""
        if self.duration is not None:
            return self.duration
        return self.steps * self.link.base_rtt

    def resolved_protocols(self) -> list[Protocol]:
        """The per-flow sender protocols: slow-start-wrapped when requested,
        and expanded ``flow_multiplicity``-fold (engines deep-copy, so the
        repeated instances are safe to share here)."""
        if self.slow_start:
            from repro.protocols.slow_start import SlowStartWrapper

            entries: list[Protocol] = [SlowStartWrapper(p) for p in self.protocols]
        else:
            entries = list(self.protocols)
        if self.flow_multiplicity == 1:
            return entries
        return [p for p in entries for _ in range(self.flow_multiplicity)]

    def resolved_initial_windows(self) -> list[float] | None:
        """Per-flow initial windows (``initial_windows`` expanded per entry)."""
        if self.initial_windows is None:
            return None
        return [
            float(w) for w in self.initial_windows for _ in range(self.flow_multiplicity)
        ]

    # ------------------------------------------------------------------
    def _fluid_loss_process(self) -> LossProcess | None:
        if self.loss_process is not None:
            return self.loss_process
        if self.random_loss_rate > 0.0:
            return BernoulliLoss(self.random_loss_rate, deterministic=True)
        return None

    def _start_schedule(self) -> EventSchedule | None:
        """``start_times`` quantized to base-RTT rounds, as an EventSchedule."""
        if self.start_times is None or not any(t > 0 for t in self.start_times):
            return None
        schedule = EventSchedule()
        base = self.link.base_rtt
        for i, t in enumerate(self.start_times):
            if t > 0:
                window = (
                    self.initial_windows[i]
                    if self.initial_windows is not None
                    else 1.0
                )
                schedule.add_sender_start(i, int(round(t / base)), window)
        return schedule

    def lower_fluid(self) -> tuple[Link, list[Protocol], SimulationConfig, int]:
        """Lower to the Section-2 fluid engine's native inputs.

        The returned config is field-for-field what a hand-written driver
        would construct, so the dynamics are unchanged by the indirection.
        """
        if self.topology is not None:
            raise LoweringError("the fluid backend is single-link; use 'network'")
        loss = self._fluid_loss_process()
        schedule = self.schedule if self.schedule is not None else self._start_schedule()
        kwargs: dict = {}
        if loss is not None:
            kwargs["loss_process"] = loss
        if schedule is not None:
            kwargs["schedule"] = schedule
        config = SimulationConfig(
            initial_windows=self.resolved_initial_windows(),
            min_window=self.min_window,
            max_window=self.max_window,
            integer_windows=self.integer_windows,
            enforce_loss_based=self.enforce_loss_based,
            unsynchronized_loss=self.unsynchronized_loss,
            seed=self.seed,
            **kwargs,
        )
        return self.link, self.resolved_protocols(), config, self.steps

    def lower_network(self) -> tuple["object", list[Protocol], dict, int]:
        """Lower to the multi-link engine: (topology, protocols, kwargs, steps)."""
        from repro.netmodel.topology import Topology, single_link

        for name, label in (
            ("schedule", "scheduled events"),
            ("start_times", "staggered starts"),
        ):
            if getattr(self, name) is not None:
                raise LoweringError(f"the network backend does not support {label}")
        if self.integer_windows:
            raise LoweringError("the network backend has no integer-window mode")
        if self.unsynchronized_loss:
            raise LoweringError("the network backend has no unsynchronized-loss mode")
        topology = self.topology
        if topology is None:
            topology = single_link(self.link, self.n_senders)
        elif not isinstance(topology, Topology):
            raise LoweringError(f"topology must be a Topology, got {type(topology)}")
        kwargs = {
            "initial_windows": self.resolved_initial_windows(),
            "min_window": self.min_window,
            "max_window": self.max_window,
            "loss_process": self._fluid_loss_process(),
            "enforce_loss_based": self.enforce_loss_based,
        }
        return topology, self.resolved_protocols(), kwargs, self.steps

    def lower_packet(self) -> "object":
        """Lower to a field-identical :class:`~repro.packetsim.scenario.PacketScenario`.

        ``enforce_loss_based`` and ``unsynchronized_loss`` are fluid-model
        devices with no packet analogue (packet feedback is always per-flow
        and unsynchronized) and are ignored; genuinely inexpressible
        dynamics raise.
        """
        from repro.packetsim.scenario import PacketScenario

        if self.topology is not None:
            raise LoweringError("the packet backend is single-link; use 'network'")
        if self.loss_process is not None:
            raise LoweringError(
                "the packet backend models random loss via random_loss_rate"
            )
        if self.schedule is not None:
            raise LoweringError(
                "the packet backend takes start_times in seconds, not a schedule"
            )
        if self.integer_windows:
            raise LoweringError("packet windows are inherently packet-granular")
        if self.min_window != 1.0 or self.max_window != DEFAULT_MAX_WINDOW:
            raise LoweringError("the packet engine's flows use the stack window clamps")
        if self.initial_windows is None:
            initial = 1.0
        else:
            distinct = set(self.initial_windows)
            if len(distinct) != 1:
                raise LoweringError(
                    "the packet engine supports only a uniform initial window"
                )
            initial = distinct.pop()
        return PacketScenario(
            link=self.link,
            protocols=self.resolved_protocols(),
            duration=self.horizon_seconds(),
            initial_window=initial,
            random_loss_rate=self.random_loss_rate,
            seed=self.seed,
            start_times=(
                list(self.start_times) if self.start_times is not None else None
            ),
        )

    def lower_meanfield(self) -> "object":
        """Lower to a :class:`~repro.meanfield.dynamics.MeanFieldScenario`.

        The mean-field backend evolves the *distribution* of window sizes
        (the N → ∞ limit of the fluid dynamics), so it can only express
        scenarios whose per-flow dynamics are exchangeable memoryless
        functions of the synchronized feedback:

        - every protocol must declare a
          :attr:`~repro.protocols.base.Protocol.meanfield_trigger` and
          implement :meth:`~repro.protocols.base.Protocol.batched_next`
          (stateful protocols such as CUBIC or slow-start wrappers keep
          per-flow history the density cannot carry);
        - per-flow scheduled events, staggered starts and multi-link
          topologies do not lower;
        - non-congestion loss must be the constant ``random_loss_rate``
          (a richer ``loss_process`` draws per-flow randomness);
        - ``integer_windows`` has no density analogue.

        ``unsynchronized_loss`` selects between the two closures: off
        (the paper's synchronized feedback) every flow reacts to the same
        signal; on, each flow notices a lossy step with probability
        ``1 - (1 - L)**x`` — the regime whose N → ∞ limit the density
        evolution is. ``seed`` is ignored: the mean-field limit is
        deterministic. Identical (protocol, initial window) entries merge
        into one population-weighted density group.
        """
        from repro.meanfield.dynamics import MeanFieldGroup, MeanFieldScenario

        if self.topology is not None:
            raise LoweringError("the mean-field backend is single-link; use 'network'")
        if self.schedule is not None:
            raise LoweringError(
                "the mean-field backend cannot express per-flow scheduled events"
            )
        if self.start_times is not None and any(t > 0 for t in self.start_times):
            raise LoweringError(
                "the mean-field backend cannot express staggered starts"
            )
        if self.loss_process is not None:
            raise LoweringError(
                "the mean-field backend models random loss via random_loss_rate"
            )
        if self.slow_start:
            raise LoweringError(
                "slow-start wrappers are stateful; the density carries no "
                "per-flow history"
            )
        if self.integer_windows:
            raise LoweringError("integer windows have no density analogue")
        for protocol in self.protocols:
            cls = type(protocol)
            if (
                getattr(cls, "meanfield_trigger", None) is None
                or not getattr(cls, "supports_batched", False)
            ):
                raise LoweringError(
                    f"{cls.__name__} declares no mean-field decrease trigger "
                    "(stateful or non-threshold protocols cannot lower)"
                )
        groups: dict[tuple, MeanFieldGroup] = {}
        for i, protocol in enumerate(self.protocols):
            initial = (
                self.initial_windows[i] if self.initial_windows is not None else 1.0
            )
            params = tuple(
                float(getattr(protocol, name))
                for name in type(protocol).batch_param_names
            )
            key = (type(protocol), params, float(initial))
            if key in groups:
                existing = groups[key]
                groups[key] = MeanFieldGroup(
                    protocol=existing.protocol,
                    population=existing.population + self.flow_multiplicity,
                    initial_window=existing.initial_window,
                )
            else:
                groups[key] = MeanFieldGroup(
                    protocol=protocol,
                    population=self.flow_multiplicity,
                    initial_window=float(initial),
                )
        return MeanFieldScenario(
            link=self.link,
            groups=list(groups.values()),
            steps=self.steps,
            synchronized=not self.unsynchronized_loss,
            random_loss_rate=self.random_loss_rate,
            min_window=self.min_window,
            max_window=self.max_window,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_fluid(
        cls,
        link: Link,
        protocols: Sequence[Protocol],
        steps: int,
        config: SimulationConfig | None = None,
    ) -> "ScenarioSpec":
        """The spec equivalent of one hand-written fluid-driver call.

        Round-trips exactly: ``spec.lower_fluid()`` rebuilds a config equal
        field-for-field to ``config`` (an empty schedule or ``NoLoss``
        normalizes to the defaults, which behave and key identically), so
        drivers rerouted through this constructor reproduce their previous
        traces bit-for-bit.
        """
        config = config or SimulationConfig()
        schedule = config.schedule
        if not (schedule.sender_starts or schedule.link_changes):
            schedule = None
        loss = config.loss_process
        if isinstance(loss, NoLoss):
            loss = None
        return cls(
            protocols=list(protocols),
            link=link,
            steps=steps,
            initial_windows=(
                list(config.initial_windows)
                if config.initial_windows is not None
                else None
            ),
            loss_process=loss,
            schedule=schedule,
            seed=config.seed,
            min_window=config.min_window,
            max_window=config.max_window,
            integer_windows=config.integer_windows,
            enforce_loss_based=config.enforce_loss_based,
            unsynchronized_loss=config.unsynchronized_loss,
        )

    @classmethod
    def from_mbps(
        cls,
        bandwidth_mbps: float,
        rtt_ms: float,
        buffer_mss: float,
        protocols: Sequence[Protocol],
        **kwargs,
    ) -> "ScenarioSpec":
        """Describe the scenario with the paper's real-world units."""
        link = Link.from_mbps(bandwidth_mbps, rtt_ms, buffer_mss)
        return cls(protocols=protocols, link=link, **kwargs)
