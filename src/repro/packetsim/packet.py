"""Packets exchanged in the packet-level simulator.

Every data packet is one MSS (the model's unit); ACKs are modelled as
zero-size control messages that only carry timing, so they never queue.

Packets used to be frozen dataclasses allocated once per send — the
single largest allocation source in long runs. They are now plain
``__slots__`` objects recycled through a :class:`PacketPool` freelist:
once a packet's fate is decided (ACK or loss processed) the flow appends
it back to the pool and the next send pops it and rewrites its four
fields in place. Steady-state packet-level runs therefore allocate
O(max inflight) packet objects, not O(packets sent). Direct construction
still validates its arguments; the flow's send loop allocates with
``Packet.__new__`` and skips validation, because it is the simulator's
own inner loop.
"""

from __future__ import annotations

__all__ = ["Packet", "PacketPool"]


class Packet:
    """One MSS-sized data packet.

    Attributes
    ----------
    flow_id:
        Index of the sending flow.
    sequence:
        Per-flow sequence number (0-based).
    sent_at:
        Simulation time the sender emitted it (seconds).
    round_index:
        The sender's RTT-round the packet belongs to; used to aggregate
        per-round loss rates for the protocol's decision.
    """

    __slots__ = ("flow_id", "sequence", "sent_at", "round_index")

    def __init__(
        self, flow_id: int, sequence: int, sent_at: float, round_index: int
    ) -> None:
        if flow_id < 0:
            raise ValueError(f"flow_id must be non-negative, got {flow_id}")
        if sequence < 0:
            raise ValueError(f"sequence must be non-negative, got {sequence}")
        if sent_at < 0:
            raise ValueError(f"sent_at must be non-negative, got {sent_at}")
        if round_index < 0:
            raise ValueError(f"round_index must be non-negative, got {round_index}")
        self.flow_id = flow_id
        self.sequence = sequence
        self.sent_at = sent_at
        self.round_index = round_index

    def __repr__(self) -> str:
        return (
            f"Packet(flow_id={self.flow_id}, sequence={self.sequence}, "
            f"sent_at={self.sent_at}, round_index={self.round_index})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (
            self.flow_id == other.flow_id
            and self.sequence == other.sequence
            and self.sent_at == other.sent_at
            and self.round_index == other.round_index
        )

    def __hash__(self) -> int:
        return hash((self.flow_id, self.sequence, self.sent_at, self.round_index))


class PacketPool(list[Packet]):
    """A freelist of recycled :class:`Packet` objects.

    A plain list, shared by the flows of one run: a flow's send loop pops
    a free packet (or allocates one with ``Packet.__new__``) and
    overwrites its fields, and its ACK and loss handlers append a packet
    back once its RTT and round accounting are done. A packet in the pool
    is not referenced by anything else.
    """

    __slots__ = ()
