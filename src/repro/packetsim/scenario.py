"""Build-and-run helpers for packet-level experiments.

A :class:`PacketScenario` describes the paper's Emulab setup: a single
bottleneck of given bandwidth / RTT / buffer, shared by n long-lived flows
each running a congestion control protocol. :func:`run_scenario` runs one
for a configured duration and returns per-flow and queue statistics. It
is a merge group of one in :mod:`repro.packetsim.batch`, which wires the
event loop, queue, receiver and flows for every packet run.

Topology and timing:

- sender --(immediately)--> bottleneck queue,
- queue --(serialization at link rate)--> wire,
- wire --(Theta one way)--> receiver, which ACKs at once,
- ACK --(Theta back)--> sender.

Dropped packets are reported to their sender after one base RTT, standing
in for duplicate-ACK loss detection. Optional receiver-side random loss
(seeded, per-flow Bernoulli) models non-congestion loss for robustness
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.model import units
from repro.model.link import Link
from repro.packetsim.host import FlowStats
from repro.packetsim.queue import QueueStats
from repro.protocols.base import Protocol


@dataclass
class PacketScenario:
    """A single-bottleneck packet-level experiment description.

    ``random_loss_rate`` applies an independent Bernoulli drop to each
    packet at the receiver (non-congestion loss). ``start_times`` staggers
    flow arrivals; defaults to everyone at t=0.
    """

    link: Link
    protocols: list[Protocol]
    duration: float = 15.0
    initial_window: float = 1.0
    random_loss_rate: float = 0.0
    seed: int = 1
    start_times: list[float] | None = None

    @classmethod
    def from_mbps(
        cls,
        bandwidth_mbps: float,
        rtt_ms: float,
        buffer_mss: int,
        protocols: list[Protocol],
        **kwargs,
    ) -> "PacketScenario":
        """Describe the scenario with the paper's real-world units."""
        link = Link.from_mbps(bandwidth_mbps, rtt_ms, buffer_mss)
        return cls(link=link, protocols=protocols, **kwargs)

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ValueError("at least one flow is required")
        if not 0 < self.duration < math.inf:
            raise ValueError(
                f"duration must be finite and positive, got {self.duration}"
            )
        if not 0.0 <= self.random_loss_rate < 1.0:
            raise ValueError(
                f"random_loss_rate must be in [0, 1), got {self.random_loss_rate}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.start_times is not None and len(self.start_times) != len(self.protocols):
            raise ValueError("start_times must match the number of flows")
        if not math.isfinite(self.link.bandwidth) or self.link.bandwidth > 1e9:
            raise ValueError("packet-level simulation needs a finite link bandwidth")


@dataclass
class ScenarioResult:
    """Outcome of a packet-level run."""

    scenario: PacketScenario
    flows: list[FlowStats]
    queue: QueueStats
    duration: float
    events: int

    def measurement_window(self, tail_fraction: float = 0.5) -> tuple[float, float]:
        """The tail time window used for steady-state statistics."""
        if not 0.0 < tail_fraction <= 1.0:
            raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
        return (self.duration * (1.0 - tail_fraction), self.duration)

    def throughputs(self, tail_fraction: float = 0.5) -> list[float]:
        """Per-flow tail goodput in MSS/s."""
        start, stop = self.measurement_window(tail_fraction)
        return [f.throughput_mss_per_s(start, stop) for f in self.flows]

    def throughputs_mbps(self, tail_fraction: float = 0.5) -> list[float]:
        """Per-flow tail goodput in Mbps."""
        return [
            units.mss_per_second_to_mbps(t) for t in self.throughputs(tail_fraction)
        ]

    def utilization(self, tail_fraction: float = 0.5) -> float:
        """Aggregate tail goodput over link bandwidth."""
        return sum(self.throughputs(tail_fraction)) / self.scenario.link.bandwidth

    def loss_rates(self) -> list[float]:
        """Per-flow overall loss rates."""
        return [f.loss_rate for f in self.flows]

    def tail_loss_rates(self, tail_fraction: float = 0.5) -> list[float]:
        """Per-flow steady-state loss rates (tail window only)."""
        start, stop = self.measurement_window(tail_fraction)
        return [f.loss_rate_between(start, stop) for f in self.flows]

    def mean_rtts(self, tail_fraction: float = 0.5) -> list[float]:
        """Per-flow mean measured RTT over the tail window (seconds)."""
        start, stop = self.measurement_window(tail_fraction)
        return [f.mean_rtt_between(start, stop) for f in self.flows]

    def share_ratio(self, numerator: int, denominator: int,
                    tail_fraction: float = 0.5) -> float:
        """Tail goodput of flow ``numerator`` over flow ``denominator``.

        The packet-level analogue of the friendliness alpha when the two
        flows run different protocols.
        """
        rates = self.throughputs(tail_fraction)
        if rates[denominator] <= 0:
            return math.inf
        return rates[numerator] / rates[denominator]


def run_scenario(scenario: PacketScenario) -> ScenarioResult:
    """Execute a scenario and collect statistics.

    A merge group of one in the merged runner,
    :func:`repro.packetsim.batch.run_scenarios_batched`, which is the
    engine's only wiring. Pure simulation: a stored result comes only
    through a :class:`~repro.exec.jobs.PacketScenarioJob` submitted to
    the executor.
    """
    from repro.packetsim import batch

    return batch.run_scenarios_batched([scenario])[0]
