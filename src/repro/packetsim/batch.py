"""Merged-scheduler batching of packet-level replications.

The packet engine is deterministic but serial: a sweep of N replications
(seeds, backgrounds, protocol mixes) over the same link pays N times the
event-loop setup, N private RNG streams drawn one scalar at a time, and N
passes over the Python interpreter's scheduler machinery. This module
runs many replications inside **one** :class:`~repro.packetsim.engine.
EventScheduler`:

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
``tests/property/test_prop_packet_batch.py`` enforce this against the
serial engine, field for field.

Entry points: :func:`run_scenarios_batched` (long-lived-flow scenarios,
used by ``repro emulab --batch`` and ``run_specs(..., backend="packet",
batch=True)``) and :func:`run_workloads_batched` (finite-flow FCT
workloads, used by ``repro fct --batch``). Both honor the same
:mod:`repro.perf` caches as their serial counterparts, entry for entry.
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
    bit-identical to the serial engine's per-packet draw stream while
    paying the Generator call overhead once per block. Only whole-block
    state advances occur, so two replications with equal seeds stay in
    lockstep with a solo run regardless of how many draws each makes.
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
    this replication's ``flows`` list and RNG — mirror images of the
    closures in :func:`repro.packetsim.scenario._run_scenario`.
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
    # Same rails, same creation order as the serial engine; shared by
    # every replication (targets disambiguate, state is per-replication).
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
    scheduler.run_until(duration)
    results: list[ScenarioResult] = []
    for scenario, (flows, queue) in zip(scenarios, replications):
        # The serial engine reports its scheduler's processed-event count.
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
    use_cache: bool = True,
) -> list[ScenarioResult]:
    """Run scenarios, merging compatible ones into shared event loops.

    Results are returned in submission order and are bit-identical to
    ``[run_scenario(s) for s in scenarios]`` — same ``FlowStats`` and
    ``QueueStats`` values, same per-run event counts, and the same
    :mod:`repro.perf` cache entries read and written (so batched runs
    warm the cache for serial callers and vice versa). Scenarios whose
    link or duration admits no merge partner simply run as a merge group
    of one through the same code path.
    """
    scenarios = list(scenarios)
    results: list[ScenarioResult | None] = [None] * len(scenarios)
    keys: list[str | None] = [None] * len(scenarios)
    cache = None
    if use_cache:
        from repro.perf.cache import active_cache

        cache = active_cache()
    if cache is not None:
        from repro.perf import packet_cache

        for i, scenario in enumerate(scenarios):
            keys[i] = packet_cache.scenario_key(scenario)
            if keys[i] is not None:
                results[i] = packet_cache.load_scenario_result(
                    cache, keys[i], scenario
                )
    groups: dict[tuple[float, float, float], list[int]] = {}
    for i, scenario in enumerate(scenarios):
        if results[i] is None:
            groups.setdefault(_merge_key(scenario), []).append(i)
    for indices in groups.values():
        merged = _run_merged_scenarios([scenarios[i] for i in indices])
        for i, result in zip(indices, merged):
            results[i] = result
            key = keys[i]
            if cache is not None and key is not None:
                from repro.perf import packet_cache

                packet_cache.store_scenario_result(cache, key, result)
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
    use_cache: bool = True,
) -> list[WorkloadResult]:
    """Run finite-flow workload jobs in one merged event loop.

    Each job is ``(specs, background)`` — the per-job arguments of
    :func:`repro.packetsim.workload.run_workload`; ``link``, ``duration``
    and the flags are shared, which is exactly what makes every job merge
    into a single scheduler (all rail delays agree by construction).
    Results come back in job order, bit-identical to running each job
    through ``run_workload``, and read/write the same cache entries.
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
    results: list[WorkloadResult | None] = [None] * len(normalized)
    keys: list[str | None] = [None] * len(normalized)
    cache = None
    if use_cache:
        from repro.perf.cache import active_cache

        cache = active_cache()
    if cache is not None:
        from repro.perf import packet_cache

        for i, (specs, background) in enumerate(normalized):
            keys[i] = packet_cache.workload_key(
                link, specs, duration, background, slow_start, initial_window
            )
            if keys[i] is not None:
                results[i] = packet_cache.load_workload_result(
                    cache, keys[i], specs, duration
                )
    pending = [i for i in range(len(normalized)) if results[i] is None]
    if pending:
        scheduler = EventScheduler()
        pool = PacketPool()
        ack_rail = scheduler.rail(2 * link.theta)
        drop_rail = scheduler.rail(link.base_rtt)
        service_rail = scheduler.rail(1.0 / link.bandwidth)
        wired = [
            _wire_workload(
                normalized[i][0], normalized[i][1], link, scheduler, pool,
                ack_rail, drop_rail, service_rail, slow_start, initial_window,
            )
            for i in pending
        ]
        for flows in wired:
            for flow in flows:
                flow.start()
        scheduler.run_until(duration)
        for i, flows in zip(pending, wired):
            specs = normalized[i][0]
            result = WorkloadResult(
                specs=list(specs),
                flows=[flow.stats for flow in flows[: len(specs)]],
                duration=duration,
            )
            results[i] = result
            key = keys[i]
            if cache is not None and key is not None:
                from repro.perf import packet_cache

                packet_cache.store_workload_result(cache, key, result)
        scheduler.discard_pending()
        for flows in wired:
            flows.clear()
    return [result for result in results if result is not None]
