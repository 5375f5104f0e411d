"""The discrete-time fluid-flow model of Section 2 of the paper.

The model consists of ``n`` senders sharing a single bottleneck link of
bandwidth ``B`` (MSS/s), propagation delay ``Theta`` (s) and buffer size
``tau`` (MSS). Time advances in steps of one RTT; at each step every sender
picks a congestion window in ``[0, M]`` as a deterministic function of its
own history of windows, RTTs and loss rates.

Public pieces:

- :class:`repro.model.link.Link` — link parameters plus the RTT function of
  the paper's Eq. (1) and the droptail loss-rate function.
- :class:`repro.model.dynamics.FluidSimulator` — the simulation engine that
  iterates sender decisions against the link.
- :class:`repro.model.trace.SimulationTrace` — the recorded time series.
- :mod:`repro.model.random_loss` — how a constant non-congestion loss
  rate (the robustness axiom, Metric VI) combines with congestion loss.
- :mod:`repro.model.events` — schedules for staggered flow arrivals and
  mid-run link changes.
"""

from repro.model.link import Link
from repro.model.sender import Observation, SenderState
from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.trace import SimulationTrace
from repro.model.events import EventSchedule, LinkChange, SenderStart

__all__ = [
    "EventSchedule",
    "FluidSimulator",
    "Link",
    "LinkChange",
    "Observation",
    "SenderStart",
    "SenderState",
    "SimulationConfig",
    "SimulationTrace",
]
