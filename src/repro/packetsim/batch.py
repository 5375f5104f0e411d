"""The packet engine's runners: replications merged into shared event loops.

Every packet-level run goes through this module. A sweep of N
replications (seeds, backgrounds, protocol mixes) over the same link
would pay N times the event-loop setup, N private RNG streams drawn one
scalar at a time, and N passes over the Python interpreter's scheduler
machinery. This module runs many replications inside **one**
:class:`~repro.packetsim.engine.EventScheduler`, and a single run is a
merge group of one
(:func:`repro.packetsim.scenario.run_scenario`,
:func:`repro.packetsim.workload.run_workload`):

- Replications that share every *rail delay* — the ACK round trip
  ``2 * theta``, the loss-notification delay ``base_rtt``, the
  serialization time ``1 / bandwidth`` — and the run ``duration`` are
  merged into a single event loop with **shared rails** (the queues of
  all replications push their service completions onto one rail, see the
  ``service_rail`` parameter of :class:`~repro.packetsim.queue.
  BottleneckQueue`) and one shared :class:`~repro.packetsim.packet.
  PacketPool` freelist.
- Each replication keeps its **own** queue, flows and RNG, so state is
  fully disjoint; receiver-side random loss draws come from a
  :class:`_BlockRandom` that serves ``Generator.random()`` values from
  amortized block draws — the "seed-vectorized" part: one NumPy call per
  block instead of one per packet, bit-identical to the scalar stream.

Why the merge is exact (the bit-identity argument): the engine executes
events in global ``(time, seq)`` order. Event *times* depend only on the
clock at push plus a fixed rail delay, and pushes are causal — so by
induction each replication's events fire at exactly the times they fire
in its solo run, and the relative order of any two same-replication
events is preserved (their seq numbers are assigned in the same relative
creation order). Replication state being disjoint, every handler then
observes exactly the state it observes serially, and all statistics —
``FlowStats``, ``QueueStats``, and the reconstructed per-replication
event count — come out identical. The property tests in
``tests/property/test_prop_packet_batch.py`` enforce this against each
member's solo run and against the frozen pre-refactor simulators
(``reference_packetsim.py``, ``reference_workload.py``), field for
field.

Entry points: :func:`run_scenarios_batched` (long-lived-flow scenarios:
every :class:`~repro.exec.jobs.PacketScenarioJob` and packet-backend
spec the executor runs) and :func:`run_workloads_batched` (finite-flow
FCT workloads: every :class:`~repro.exec.jobs.WorkloadJob`). They only
compute; the executor serves and archives stored results.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.model.link import Link
from repro.packetsim.engine import EventKind, EventScheduler, Rail
from repro.packetsim.host import Flow
from repro.packetsim.packet import Packet, PacketPool
from repro.packetsim.queue import BottleneckQueue
from repro.packetsim.scenario import PacketScenario, ScenarioResult
from repro.packetsim.workload import FlowSpec, WorkloadResult
from repro.perf import timing
from repro.protocols.base import Protocol
from repro.protocols.slow_start import SlowStartWrapper

__all__ = ["run_scenarios_batched", "run_workloads_batched"]

_FLOW_ACK = int(EventKind.FLOW_ACK)
_FLOW_LOSS = int(EventKind.FLOW_LOSS)

#: Uniform draws fetched per NumPy call in :class:`_BlockRandom`.
_RNG_BLOCK = 512


class _BlockRandom:
    """Serve scalar ``Generator.random()`` draws from block draws.

    ``np.random.default_rng(seed).random(k)`` produces exactly the same
    float64 values as ``k`` successive scalar ``.random()`` calls on the
    same generator, so handing out a block element by element is
    bit-identical to a per-packet scalar draw stream (the frozen
    reference simulator's) while paying the Generator call overhead once
    per block. Only whole-block state advances occur, so two
    replications with equal seeds stay in lockstep with a solo run
    regardless of how many draws each makes.
    """

    __slots__ = ("_rng", "_block", "_pos")

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._block = np.empty(0)
        self._pos = 0

    def random(self) -> float:
        if self._pos == self._block.shape[0]:
            self._block = self._rng.random(_RNG_BLOCK)
            self._pos = 0
        value = self._block[self._pos]
        self._pos += 1
        return float(value)


# ----------------------------------------------------------------------
# Long-lived-flow scenarios
# ----------------------------------------------------------------------
def _merge_key(scenario: PacketScenario) -> tuple[float, float, float]:
    """Replications merge iff every shared rail delay and the horizon agree."""
    link = scenario.link
    return (link.bandwidth, link.theta, scenario.duration)


def _wire_scenario(
    scenario: PacketScenario,
    scheduler: EventScheduler,
    pool: PacketPool,
    ack_rail: Rail,
    wire_loss_rail: Rail,
    drop_rail: Rail,
    service_rail: Rail,
) -> tuple[list[Flow], BottleneckQueue]:
    """Build one replication's private queue/flows on the shared loop.

    A function (not a loop body) so the ``deliver``/``drop`` closures bind
    this replication's ``flows`` list and RNG.
    """
    flows: list[Flow] = []
    rng = _BlockRandom(scenario.seed)
    rate = scenario.random_loss_rate
    lossy = rate > 0.0

    def deliver(packet: Packet) -> None:
        if lossy and rng.random() < rate:
            wire_loss_rail.push(_FLOW_LOSS, flows[packet.flow_id], packet)
            return
        ack_rail.push(_FLOW_ACK, flows[packet.flow_id], packet)

    def drop(packet: Packet) -> None:
        drop_rail.push(_FLOW_LOSS, flows[packet.flow_id], packet)

    link = scenario.link
    queue = BottleneckQueue(
        scheduler,
        bandwidth=link.bandwidth,
        capacity=int(link.buffer_size),
        on_departure=deliver,
        on_drop=drop,
        sample_occupancy=scenario.sample_queue,
        service_rail=service_rail,
    )
    start_times = scenario.start_times or [0.0] * len(scenario.protocols)
    for index, protocol in enumerate(scenario.protocols):
        flows.append(
            Flow(
                flow_id=index,
                protocol=copy.deepcopy(protocol),
                scheduler=scheduler,
                transmit=queue.arrive,
                initial_window=scenario.initial_window,
                start_time=start_times[index],
                pool=pool,
            )
        )
    return flows, queue


def _run_merged_scenarios(
    scenarios: Sequence[PacketScenario],
) -> list[ScenarioResult]:
    """Run replications sharing one merge key in a single event loop."""
    link = scenarios[0].link
    duration = scenarios[0].duration
    scheduler = EventScheduler()
    pool = PacketPool()
    # One rail per fixed delay, shared by every replication (targets
    # disambiguate, state is per-replication). The ACK and wire-loss rails
    # have the same delay but stay distinct FIFOs; the (time, seq)
    # tie-break keeps the merged order a solo run's.
    ack_rail = scheduler.rail(2 * link.theta)
    wire_loss_rail = scheduler.rail(2 * link.theta)
    drop_rail = scheduler.rail(link.base_rtt)
    service_rail = scheduler.rail(1.0 / link.bandwidth)
    replications = [
        _wire_scenario(
            scenario, scheduler, pool,
            ack_rail, wire_loss_rail, drop_rail, service_rail,
        )
        for scenario in scenarios
    ]
    for flows, _ in replications:
        for flow in flows:
            flow.start()
    with timing.measure("batch.packet"):
        scheduler.run_until(duration)
    results: list[ScenarioResult] = []
    for scenario, (flows, queue) in zip(scenarios, replications):
        # The scheduler's processed-event count covers the whole group.
        # Reconstruct this replication's share analytically: every handler
        # execution is accounted by exactly one counter — FLOW_PUMP fires
        # once per flow whose start falls inside the horizon (``_pump`` is
        # only ever *called*, never rescheduled), FLOW_ACK/FLOW_LOSS
        # increment packets_acked/packets_lost unconditionally, and each
        # QUEUE_SERVICE increments ``departed``.
        starts = sum(1 for flow in flows if flow.start_time <= duration)
        events = (
            starts
            + sum(f.stats.packets_acked + f.stats.packets_lost for f in flows)
            + queue.stats.departed
        )
        results.append(
            ScenarioResult(
                scenario=scenario,
                flows=[flow.stats for flow in flows],
                queue=queue.stats,
                duration=duration,
                events=events,
            )
        )
    scheduler.discard_pending()
    for flows, _ in replications:
        flows.clear()
    return results


def run_scenarios_batched(
    scenarios: Sequence[PacketScenario],
) -> list[ScenarioResult]:
    """Run scenarios, merging compatible ones into shared event loops.

    Results are returned in submission order, and each is bit-identical
    to the scenario's solo run — same ``FlowStats`` and ``QueueStats``
    values, same event count. A scenario whose link or duration admits no
    merge partner runs as a merge group of one, which is what
    :func:`repro.packetsim.scenario.run_scenario` is.
    """
    scenarios = list(scenarios)
    results: list[ScenarioResult | None] = [None] * len(scenarios)
    groups: dict[tuple[float, float, float], list[int]] = {}
    for i, scenario in enumerate(scenarios):
        groups.setdefault(_merge_key(scenario), []).append(i)
    for indices in groups.values():
        merged = _run_merged_scenarios([scenarios[i] for i in indices])
        for i, result in zip(indices, merged):
            results[i] = result
    return [result for result in results if result is not None]


# ----------------------------------------------------------------------
# Finite-flow workloads
# ----------------------------------------------------------------------
def _wire_workload(
    specs: Sequence[FlowSpec],
    background: Sequence[Protocol],
    link: Link,
    scheduler: EventScheduler,
    pool: PacketPool,
    ack_rail: Rail,
    drop_rail: Rail,
    service_rail: Rail,
    slow_start: bool,
    initial_window: float,
) -> list[Flow]:
    """One workload job's queue and flows on the shared loop."""
    flows: list[Flow] = []

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
        service_rail=service_rail,
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
    return flows


def run_workloads_batched(
    link: Link,
    jobs: Sequence[tuple[Sequence[FlowSpec], Sequence[Protocol] | None]],
    duration: float,
    slow_start: bool = True,
    initial_window: float = 1.0,
) -> list[WorkloadResult]:
    """Run finite-flow workload jobs in one merged event loop.

    Each job is ``(specs, background)`` — the per-job arguments of
    :func:`repro.packetsim.workload.run_workload`; ``link``, ``duration``
    and the flags are shared, which is exactly what makes every job merge
    into a single scheduler (all rail delays agree by construction).
    Results come back in job order, each bit-identical to the job's solo
    run (a one-job call, which is what ``run_workload`` is).
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    normalized: list[tuple[list[FlowSpec], list[Protocol]]] = []
    for specs, background in jobs:
        specs = list(specs)
        if not specs:
            raise ValueError("at least one flow spec is required")
        for spec in specs:
            if spec.start_time >= duration:
                raise ValueError(
                    f"flow starting at {spec.start_time} never runs within "
                    f"duration {duration}"
                )
        normalized.append((specs, list(background or [])))
    if not normalized:
        return []
    scheduler = EventScheduler()
    pool = PacketPool()
    ack_rail = scheduler.rail(2 * link.theta)
    drop_rail = scheduler.rail(link.base_rtt)
    service_rail = scheduler.rail(1.0 / link.bandwidth)
    wired = [
        _wire_workload(
            specs, background, link, scheduler, pool,
            ack_rail, drop_rail, service_rail, slow_start, initial_window,
        )
        for specs, background in normalized
    ]
    for flows in wired:
        for flow in flows:
            flow.start()
    with timing.measure("batch.packet"):
        scheduler.run_until(duration)
    results = [
        WorkloadResult(
            specs=list(specs),
            flows=[flow.stats for flow in flows[: len(specs)]],
            duration=duration,
        )
        for (specs, _), flows in zip(normalized, wired)
    ]
    scheduler.discard_pending()
    for flows in wired:
        flows.clear()
    return results
