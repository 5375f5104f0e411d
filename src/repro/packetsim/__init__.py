"""Packet-level, event-driven single-bottleneck simulator.

This package is the reproduction's substitute for the paper's Emulab
testbed (Section 5.1): senders run real ACK-clocked congestion windows
over a FIFO droptail queue, with per-packet drops and unsynchronized
feedback — everything the fluid model abstracts away. The paper uses the
testbed only to check that the per-metric *hierarchy* over protocols
matches the theory; this simulator reproduces exactly those ordinal
comparisons.

Layout:

- :mod:`repro.packetsim.engine` — the discrete-event core (clock + heap).
- :mod:`repro.packetsim.queue` — the bottleneck's droptail FIFO queue and
  serialization.
- :mod:`repro.packetsim.host` — ACK-clocked flows that drive the *same*
  :class:`~repro.protocols.base.Protocol` objects as the fluid model,
  one decision per RTT-round.
- :mod:`repro.packetsim.scenario` — scenario descriptions and
  :func:`run_scenario`, returning per-flow statistics.
- :mod:`repro.packetsim.batch` — the runners that wire queues, flows and
  rails, merging compatible replications into one event loop; a single
  run is a merge group of one.
"""

from repro.packetsim.engine import EventScheduler
from repro.packetsim.queue import BottleneckQueue, QueueStats
from repro.packetsim.host import Flow, FlowStats
from repro.packetsim.scenario import PacketScenario, ScenarioResult, run_scenario

__all__ = [
    "BottleneckQueue",
    "EventScheduler",
    "Flow",
    "FlowStats",
    "PacketScenario",
    "QueueStats",
    "ScenarioResult",
    "run_scenario",
]
