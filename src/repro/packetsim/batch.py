"""The packet engine's runners: replications merged into shared event loops.

Every packet-level run goes through this module. A sweep of N
replications (seeds, backgrounds, protocol mixes) over the same link
would pay N times the event-loop setup and N passes over the Python
interpreter's scheduler machinery. This module runs many replications
inside **one** :class:`~repro.packetsim.engine.EventScheduler`, and a
single run is a merge group of one
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
  fully disjoint. Receiver-side random loss draws scalar
  ``Generator.random()`` values from the scenario's own
  ``np.random.default_rng(seed)``, and a group gets a wire-loss rail only
  when one of its members is lossy.

Scenario and workload replications share one wiring (:func:`_wire`) and
one loop set-up (:func:`_run_group`); the two entry points only describe
their members and package the results.

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
the executor's scenario lane, which takes every
:class:`~repro.exec.jobs.PacketScenarioJob` and packet-backend spec) and
:func:`run_workloads_batched` (finite-flow FCT workloads: every
:class:`~repro.exec.jobs.WorkloadJob`). They only compute; the executor
serves and archives stored results.
"""

from __future__ import annotations

import copy
from typing import NamedTuple, Sequence

import numpy as np

from repro.model.link import Link
from repro.packetsim.engine import EventKind, EventScheduler, Rail
from repro.packetsim.host import Flow, FlowStats
from repro.packetsim.packet import Packet, PacketPool
from repro.packetsim.queue import BottleneckQueue, QueueStats
from repro.packetsim.scenario import PacketScenario, ScenarioResult
from repro.packetsim.workload import FlowSpec, WorkloadResult
from repro.perf import timing
from repro.protocols.base import Protocol
from repro.protocols.slow_start import SlowStartWrapper

__all__ = ["run_scenarios_batched", "run_workloads_batched"]

_FLOW_ACK = int(EventKind.FLOW_ACK)
_FLOW_LOSS = int(EventKind.FLOW_LOSS)


class _Member(NamedTuple):
    """One replication of a merge group: its link, flows and receiver.

    ``flows`` lists each flow's fresh protocol, start time and size
    (``None`` for a long-lived flow), in flow-id order. With a positive
    ``loss_rate`` the receiver drops each arriving packet with that
    probability, drawing from ``np.random.default_rng(seed)``.
    """

    link: Link
    flows: list[tuple[Protocol, float, int | None]]
    initial_window: float
    sample_queue: bool = False
    loss_rate: float = 0.0
    seed: int = 0


def _wire(
    member: _Member,
    scheduler: EventScheduler,
    pool: PacketPool,
    ack_rail: Rail,
    wire_loss_rail: Rail | None,
    drop_rail: Rail,
    service_rail: Rail,
) -> tuple[list[Flow], BottleneckQueue]:
    """Build one member's private queue and flows on the shared loop.

    A function (not a loop body) so the ``deliver``/``drop`` closures bind
    this member's ``flows`` list and generator.
    """
    flows: list[Flow] = []
    rate = member.loss_rate
    if rate > 0.0:
        assert wire_loss_rail is not None
        lose = wire_loss_rail
        draw = np.random.default_rng(member.seed).random

        def deliver(packet: Packet) -> None:
            if draw() < rate:
                lose.push(_FLOW_LOSS, flows[packet.flow_id], packet)
            else:
                ack_rail.push(_FLOW_ACK, flows[packet.flow_id], packet)

    else:

        def deliver(packet: Packet) -> None:
            ack_rail.push(_FLOW_ACK, flows[packet.flow_id], packet)

    def drop(packet: Packet) -> None:
        drop_rail.push(_FLOW_LOSS, flows[packet.flow_id], packet)

    link = member.link
    queue = BottleneckQueue(
        scheduler,
        bandwidth=link.bandwidth,
        capacity=int(link.buffer_size),
        on_departure=deliver,
        on_drop=drop,
        sample_occupancy=member.sample_queue,
        service_rail=service_rail,
    )
    for flow_id, (protocol, start_time, size) in enumerate(member.flows):
        flows.append(
            Flow(
                flow_id=flow_id,
                protocol=protocol,
                scheduler=scheduler,
                transmit=queue.arrive,
                initial_window=member.initial_window,
                start_time=start_time,
                size=size,
                pool=pool,
            )
        )
    return flows, queue


def _run_group(
    link: Link, duration: float, members: Sequence[_Member]
) -> list[tuple[list[FlowStats], QueueStats, int]]:
    """Run members sharing ``link``'s rail delays in one loop to ``duration``.

    Returns each member's flow statistics, queue statistics and share of
    the loop's events, in member order.
    """
    scheduler = EventScheduler()
    pool = PacketPool()
    # One rail per fixed delay, shared by every member (targets
    # disambiguate, state is per member). The ACK and wire-loss rails
    # have the same delay but stay distinct FIFOs; the (time, seq)
    # tie-break keeps the merged order a solo run's.
    ack_rail = scheduler.rail(2 * link.theta)
    lossy = any(member.loss_rate > 0.0 for member in members)
    wire_loss_rail = scheduler.rail(2 * link.theta) if lossy else None
    drop_rail = scheduler.rail(link.base_rtt)
    service_rail = scheduler.rail(1.0 / link.bandwidth)
    wired = [
        _wire(member, scheduler, pool, ack_rail, wire_loss_rail, drop_rail, service_rail)
        for member in members
    ]
    for flows, _ in wired:
        for flow in flows:
            flow.start()
    with timing.measure("batch.packet"):
        scheduler.run_until(duration)
    scheduler.discard_pending()
    outcomes = []
    for flows, queue in wired:
        # The scheduler's processed-event count covers the whole group.
        # Reconstruct this member's share analytically: every handler
        # execution is accounted by exactly one counter — FLOW_PUMP fires
        # once per flow whose start falls inside the horizon (``_pump`` is
        # only ever *called*, never rescheduled), FLOW_ACK/FLOW_LOSS
        # increment packets_acked/packets_lost unconditionally, and each
        # QUEUE_SERVICE increments ``departed``.
        events = (
            sum(1 for flow in flows if flow.start_time <= duration)
            + sum(f.stats.packets_acked + f.stats.packets_lost for f in flows)
            + queue.stats.departed
        )
        outcomes.append(([flow.stats for flow in flows], queue.stats, events))
        # The delivery closures capture ``flows``: emptying it lets the
        # run be freed by reference counting.
        flows.clear()
    return outcomes


# ----------------------------------------------------------------------
# Long-lived-flow scenarios
# ----------------------------------------------------------------------
def _merge_key(scenario: PacketScenario) -> tuple[float, float, float]:
    """Replications merge iff every shared rail delay and the horizon agree."""
    link = scenario.link
    return (link.bandwidth, link.theta, scenario.duration)


def _scenario_member(scenario: PacketScenario) -> _Member:
    start_times = scenario.start_times or [0.0] * len(scenario.protocols)
    return _Member(
        link=scenario.link,
        flows=[
            (copy.deepcopy(protocol), start, None)
            for protocol, start in zip(scenario.protocols, start_times)
        ],
        initial_window=scenario.initial_window,
        sample_queue=scenario.sample_queue,
        loss_rate=scenario.random_loss_rate,
        seed=scenario.seed,
    )


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
        first = scenarios[indices[0]]
        outcomes = _run_group(
            first.link, first.duration, [_scenario_member(scenarios[i]) for i in indices]
        )
        for i, (flows, queue, events) in zip(indices, outcomes):
            results[i] = ScenarioResult(
                scenario=scenarios[i],
                flows=flows,
                queue=queue,
                duration=first.duration,
                events=events,
            )
    return [result for result in results if result is not None]


# ----------------------------------------------------------------------
# Finite-flow workloads
# ----------------------------------------------------------------------
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
    Background flows follow a job's finite flows and start at 0.
    Results come back in job order, each bit-identical to the job's solo
    run (a one-job call, which is what ``run_workload`` is).
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")

    def fresh(protocol: Protocol) -> Protocol:
        protocol = copy.deepcopy(protocol)
        return SlowStartWrapper(protocol) if slow_start else protocol

    spec_lists: list[list[FlowSpec]] = []
    members: list[_Member] = []
    for job_specs, background in jobs:
        specs = list(job_specs)
        if not specs:
            raise ValueError("at least one flow spec is required")
        for spec in specs:
            if spec.start_time >= duration:
                raise ValueError(
                    f"flow starting at {spec.start_time} never runs within "
                    f"duration {duration}"
                )
        flows: list[tuple[Protocol, float, int | None]] = [
            (fresh(spec.protocol), spec.start_time, spec.size) for spec in specs
        ]
        flows += [(fresh(protocol), 0.0, None) for protocol in background or []]
        spec_lists.append(specs)
        members.append(_Member(link=link, flows=flows, initial_window=initial_window))
    return [
        WorkloadResult(specs=specs, flows=stats[: len(specs)], duration=duration)
        for specs, (stats, _, _) in zip(spec_lists, _run_group(link, duration, members))
    ]
