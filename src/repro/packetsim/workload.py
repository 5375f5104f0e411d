"""Finite-flow workloads and flow-completion-time (FCT) experiments.

The paper's intro motivates congestion control with "the increasingly
diverse range of application loads ... small vs. large traffic demands".
This module makes that concrete at packet level: flows of finite size
arrive over time (deterministically or by a seeded Poisson process),
transfer their payload with a congestion control protocol — losses are
retransmitted — and report flow completion times.

Typical use::

    specs = poisson_workload(rate_per_s=2.0, mean_size=80, duration=20.0,
                             protocol=presets.reno(), seed=1)
    result = run_workload(Link.from_mbps(20, 42, 100), specs, duration=40.0)
    print(result.mean_fct(), result.percentile_fct(0.99))
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from repro.model.link import Link
from repro.packetsim.engine import EventKind, EventScheduler
from repro.packetsim.host import Flow, FlowStats
from repro.packetsim.packet import Packet, PacketPool
from repro.packetsim.queue import BottleneckQueue
from repro.protocols.base import Protocol
from repro.protocols.slow_start import SlowStartWrapper

_FLOW_ACK = int(EventKind.FLOW_ACK)
_FLOW_LOSS = int(EventKind.FLOW_LOSS)


@dataclass(frozen=True)
class FlowSpec:
    """One finite transfer: when it starts, how much it carries, and how."""

    start_time: float
    size: int
    protocol: Protocol

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError(f"start_time must be non-negative, got {self.start_time}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")


def poisson_workload(
    rate_per_s: float,
    mean_size: int,
    duration: float,
    protocol: Protocol,
    seed: int = 1,
    min_size: int = 2,
) -> list[FlowSpec]:
    """Poisson arrivals with geometric sizes — the classic open-loop load.

    Arrival times are exponential with rate ``rate_per_s``; sizes are
    geometric with the given mean (floored at ``min_size``). Seeded, so
    the workload is a deterministic function of its parameters.
    """
    if rate_per_s <= 0:
        raise ValueError(f"rate must be positive, got {rate_per_s}")
    if mean_size < min_size:
        raise ValueError(f"mean_size must be at least {min_size}, got {mean_size}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    rng = np.random.default_rng(seed)
    specs: list[FlowSpec] = []
    clock = 0.0
    while True:
        clock += float(rng.exponential(1.0 / rate_per_s))
        if clock >= duration:
            break
        size = max(min_size, int(rng.geometric(1.0 / mean_size)))
        specs.append(FlowSpec(start_time=clock, size=size,
                              protocol=protocol.clone()))
    return specs


@dataclass
class WorkloadResult:
    """Per-flow outcomes of a finite-flow run."""

    specs: list[FlowSpec]
    flows: list[FlowStats]
    duration: float

    def completion_times(self) -> list[float]:
        """FCT of every completed flow (seconds)."""
        out = []
        for spec, stats in zip(self.specs, self.flows):
            if stats.completed_at is not None:
                out.append(stats.completed_at - spec.start_time)
        return out

    @property
    def completed(self) -> int:
        return sum(1 for f in self.flows if f.completed_at is not None)

    @property
    def incomplete(self) -> int:
        return len(self.flows) - self.completed

    def mean_fct(self) -> float:
        fcts = self.completion_times()
        return float(np.mean(fcts)) if fcts else math.nan

    def percentile_fct(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        fcts = self.completion_times()
        return float(np.quantile(fcts, q)) if fcts else math.nan

    def fct_by_size(self, boundary: int) -> tuple[float, float]:
        """(mean FCT of flows <= boundary, mean FCT of larger flows)."""
        small, large = [], []
        for spec, stats in zip(self.specs, self.flows):
            if stats.completed_at is None:
                continue
            fct = stats.completed_at - spec.start_time
            (small if spec.size <= boundary else large).append(fct)
        return (
            float(np.mean(small)) if small else math.nan,
            float(np.mean(large)) if large else math.nan,
        )

    def total_retransmissions(self) -> int:
        return sum(f.retransmissions for f in self.flows)


def run_workload(
    link: Link,
    specs: list[FlowSpec],
    duration: float,
    background: list[Protocol] | None = None,
    slow_start: bool = True,
    initial_window: float = 1.0,
    use_cache: bool = True,
) -> WorkloadResult:
    """Run finite flows (plus optional long-lived background flows).

    Background flows occupy the final indices and run for the whole
    duration; their stats are excluded from the returned result (their
    role is to load the link).

    Like :func:`repro.packetsim.scenario.run_scenario`, the run is served
    from the :mod:`repro.perf` trace cache when one is active and
    ``use_cache`` is true.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if not specs:
        raise ValueError("at least one flow spec is required")
    for spec in specs:
        if spec.start_time >= duration:
            raise ValueError(
                f"flow starting at {spec.start_time} never runs within "
                f"duration {duration}"
            )
    background = background or []
    if use_cache:
        from repro.perf.cache import active_cache

        cache = active_cache()
        if cache is not None:
            from repro.perf import packet_cache

            key = packet_cache.workload_key(
                link, specs, duration, background, slow_start, initial_window
            )
            if key is not None:
                cached = packet_cache.load_workload_result(
                    cache, key, specs, duration
                )
                if cached is not None:
                    return cached
                result = _run_workload(
                    link, specs, duration, background, slow_start, initial_window
                )
                packet_cache.store_workload_result(cache, key, result)
                return result
    return _run_workload(
        link, specs, duration, background, slow_start, initial_window
    )


def _run_workload(
    link: Link,
    specs: list[FlowSpec],
    duration: float,
    background: list[Protocol],
    slow_start: bool,
    initial_window: float,
) -> WorkloadResult:
    """The finite-flow simulation proper (cache-oblivious)."""
    scheduler = EventScheduler()
    flows: list[Flow] = []
    pool = PacketPool()
    ack_rail = scheduler.rail(2 * link.theta)
    drop_rail = scheduler.rail(link.base_rtt)

    def deliver(packet: Packet) -> None:
        ack_rail.push(_FLOW_ACK, flows[packet.flow_id], packet)

    def drop(packet: Packet) -> None:
        drop_rail.push(_FLOW_LOSS, flows[packet.flow_id], packet)

    queue = BottleneckQueue(
        scheduler,
        bandwidth=link.bandwidth,
        capacity=int(link.buffer_size),
        on_departure=deliver,
        on_drop=drop,
    )

    def wrap(protocol: Protocol) -> Protocol:
        fresh = copy.deepcopy(protocol)
        return SlowStartWrapper(fresh) if slow_start else fresh

    for index, spec in enumerate(specs):
        flows.append(
            Flow(
                flow_id=index,
                protocol=wrap(spec.protocol),
                scheduler=scheduler,
                transmit=queue.arrive,
                initial_window=initial_window,
                start_time=spec.start_time,
                size=spec.size,
                pool=pool,
            )
        )
    for offset, protocol in enumerate(background):
        flows.append(
            Flow(
                flow_id=len(specs) + offset,
                protocol=wrap(protocol),
                scheduler=scheduler,
                transmit=queue.arrive,
                initial_window=initial_window,
                start_time=0.0,
                pool=pool,
            )
        )
    for flow in flows:
        flow.start()
    scheduler.run_until(duration)
    result = WorkloadResult(
        specs=list(specs),
        flows=[flow.stats for flow in flows[: len(specs)]],
        duration=duration,
    )
    scheduler.discard_pending()
    flows.clear()
    return result
