"""Build-and-run helpers for packet-level experiments.

A :class:`PacketScenario` describes the paper's Emulab setup: a single
bottleneck of given bandwidth / RTT / buffer, shared by n long-lived flows
each running a congestion control protocol. :func:`run_scenario` wires the
event loop, queue, receiver and flows together, runs for a configured
duration and returns per-flow and queue statistics.

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

import copy
import math
from dataclasses import dataclass

import numpy as np

from repro.model import units
from repro.model.link import Link
from repro.packetsim.engine import EventKind, EventScheduler
from repro.packetsim.host import Flow, FlowStats
from repro.packetsim.packet import Packet, PacketPool
from repro.packetsim.queue import BottleneckQueue, QueueStats
from repro.protocols.base import Protocol

_FLOW_ACK = int(EventKind.FLOW_ACK)
_FLOW_LOSS = int(EventKind.FLOW_LOSS)


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
    sample_queue: bool = False

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
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0.0 <= self.random_loss_rate < 1.0:
            raise ValueError(
                f"random_loss_rate must be in [0, 1), got {self.random_loss_rate}"
            )
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


def run_scenario(scenario: PacketScenario,
                 use_cache: bool = True) -> ScenarioResult:
    """Execute a scenario and collect statistics.

    When a :mod:`repro.perf` trace cache is active (``REPRO_SIM_CACHE`` or
    :func:`repro.perf.configure_cache`) and ``use_cache`` is true, the run
    is keyed by its canonical inputs and previously archived statistics
    are reloaded instead of re-simulating.
    """
    if use_cache:
        from repro.perf.cache import active_cache

        cache = active_cache()
        if cache is not None:
            from repro.perf import packet_cache

            key = packet_cache.scenario_key(scenario)
            if key is not None:
                cached = packet_cache.load_scenario_result(cache, key, scenario)
                if cached is not None:
                    return cached
                result = _run_scenario(scenario)
                packet_cache.store_scenario_result(cache, key, result)
                return result
    return _run_scenario(scenario)


def _run_scenario(scenario: PacketScenario) -> ScenarioResult:
    """The simulation proper (cache-oblivious)."""
    scheduler = EventScheduler()
    link = scenario.link
    theta = link.theta
    rng = np.random.default_rng(scenario.seed)
    pool = PacketPool()

    # Fixed-delay rails: the ACK round trip, receiver-side random loss
    # (same delay, distinct FIFO — the (time, seq) tie-break keeps the
    # merged order identical), and droptail loss notification.
    ack_rail = scheduler.rail(2 * theta)
    wire_loss_rail = scheduler.rail(2 * theta)
    drop_rail = scheduler.rail(link.base_rtt)

    flows: list[Flow] = []
    lossy = scenario.random_loss_rate > 0.0

    def deliver(packet: Packet) -> None:
        """Serialization finished: propagate, maybe lose, else ACK back."""
        if lossy and rng.random() < scenario.random_loss_rate:
            # Non-congestion loss on the wire; sender learns one RTT later.
            wire_loss_rail.push(_FLOW_LOSS, flows[packet.flow_id], packet)
            return
        ack_rail.push(_FLOW_ACK, flows[packet.flow_id], packet)

    def drop(packet: Packet) -> None:
        """Droptail rejection: sender learns after one base RTT."""
        drop_rail.push(_FLOW_LOSS, flows[packet.flow_id], packet)

    queue = BottleneckQueue(
        scheduler,
        bandwidth=link.bandwidth,
        capacity=int(link.buffer_size),
        on_departure=deliver,
        on_drop=drop,
        sample_occupancy=scenario.sample_queue,
    )

    start_times = scenario.start_times or [0.0] * len(scenario.protocols)
    for index, protocol in enumerate(scenario.protocols):
        flow = Flow(
            flow_id=index,
            protocol=copy.deepcopy(protocol),
            scheduler=scheduler,
            transmit=queue.arrive,
            initial_window=scenario.initial_window,
            start_time=start_times[index],
            pool=pool,
        )
        flows.append(flow)
    for flow in flows:
        flow.start()

    scheduler.run_until(scenario.duration)
    result = ScenarioResult(
        scenario=scenario,
        flows=[flow.stats for flow in flows],
        queue=queue.stats,
        duration=scenario.duration,
        events=scheduler.processed_events,
    )
    scheduler.discard_pending()
    flows.clear()
    return result
