"""Per-sender state threaded through the fluid simulation.

The paper defines a protocol as a deterministic map from a sender's own
history — of congestion windows, RTTs and loss rates — to its next window.
:class:`Observation` is the per-step slice of that history handed to the
protocol; a history-dependent protocol keeps whatever summary of it it
needs in its own state. :class:`SenderState` is the simulator's per-sender
record, holding only what the fluid loop reads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Observation:
    """What a sender learns at the end of one RTT-sized time step.

    Attributes
    ----------
    step:
        The time-step index ``t``.
    window:
        The sender's own congestion window ``x_i(t)`` during the step, MSS.
    loss_rate:
        The loss rate ``L(t)`` the sender experienced (congestion loss
        combined with the random loss rate), in ``[0, 1]``.
    rtt:
        The step's RTT in seconds, per the paper's Eq. (1). Loss-based
        protocols must ignore this field; the simulator can enforce that
        (see ``SimulationConfig.enforce_loss_based``).
    min_rtt:
        The smallest RTT this sender has seen so far — the conventional
        stand-in for the (unknown) propagation delay used by
        latency-sensitive protocols such as the Vegas-like comparator.
    ecn_fraction:
        Fraction of this step's packets carrying an ECN congestion mark
        (0 unless the link has marking enabled — an extension to the
        paper's model used by the DCTCP-style protocol).
    """

    step: int
    window: float
    loss_rate: float
    rtt: float
    min_rtt: float
    ecn_fraction: float = 0.0


@dataclass
class SenderState:
    """Mutable per-sender record kept by the fluid simulator's general loop.

    It holds exactly what the loop reads each step: the sender's index,
    its current window, the step it starts at, and ``min_rtt``, the
    smallest RTT the sender has seen. ``min_rtt`` is updated with the
    step's real RTT on every step the sender is active, before the
    protocol is shown its :class:`Observation` (a loss-based protocol
    under enforcement is shown a placeholder instead). No per-step history
    is kept: protocols see only the Observation, and the trace holds the
    windows and losses.
    """

    index: int
    window: float
    start_step: int = 0
    min_rtt: float = float("inf")

    def active(self, step: int) -> bool:
        """Whether this sender has started transmitting by ``step``."""
        return step >= self.start_step
