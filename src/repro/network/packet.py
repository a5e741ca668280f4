"""Packet model, packet records and packet factory.

A packet is the unit of arbitration: a head flit wins a path through the
switch and the connection is held until the tail flit transfers.  The
factory hands out monotonically increasing packet identifiers so every
packet in a simulation is uniquely addressable in the statistics.

Inside a switch a waiting packet is a plain *record* tuple
``(packet_id, dst, created_cycle, num_flits, payload)`` whose source
queue supplies ``src``; :func:`record_flits` expands one into flits.
The engine injects traffic as ``(srcs, dsts)`` columns, so most packets
never exist as :class:`Packet` objects at all.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.network.flit import Flit

#: A packet waiting in a source queue:
#: ``(packet_id, dst, created_cycle, num_flits, payload)``.
PacketRecord = Tuple[int, int, int, int, object]


def record_flits(src: int, record: PacketRecord) -> List[Flit]:
    """Decompose a queued packet record into its flits (head first).

    Only the head carries the payload, as in :meth:`Packet.to_flits`.
    """
    packet_id, dst, created, num_flits, payload = record
    head = Flit(packet_id, src, dst, 0, num_flits, created,
                None, None, payload)
    return [head] + [
        Flit(packet_id, src, dst, seq, num_flits, created)
        for seq in range(1, num_flits)
    ]


@dataclass(slots=True)
class Packet:
    """A multi-flit packet travelling through a single switch.

    Attributes:
        packet_id: Unique identifier within a simulation.
        src: Source input port.
        dst: Destination output port.
        num_flits: Packet length in flits (the paper uses 4-flit packets).
        created_cycle: Cycle the packet was generated by the traffic source.
        injected_cycle: Cycle the head flit entered an input buffer.
        ejected_cycle: Cycle the tail flit left the switch.
        payload: Opaque payload (memory request, reply, ...).
    """

    packet_id: int
    src: int
    dst: int
    num_flits: int = 4
    created_cycle: int = 0
    injected_cycle: Optional[int] = None
    ejected_cycle: Optional[int] = None
    payload: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.num_flits < 1:
            raise ValueError("a packet needs at least one flit")
        if self.src < 0 or self.dst < 0:
            raise ValueError("ports must be non-negative")

    @property
    def record(self) -> PacketRecord:
        """The packet as a source-queue record (``src`` is the queue's)."""
        return (self.packet_id, self.dst, self.created_cycle,
                self.num_flits, self.payload)

    def to_flits(self) -> List[Flit]:
        """Decompose the packet into its flits (head first)."""
        return record_flits(self.src, self.record)

    @property
    def latency(self) -> int:
        """Total packet latency in cycles (generation to tail ejection).

        Raises:
            ValueError: If the packet has not been ejected yet.
        """
        if self.ejected_cycle is None:
            raise ValueError(f"packet {self.packet_id} still in flight")
        return self.ejected_cycle - self.created_cycle


class PacketFactory:
    """Creates packets with unique, monotonically increasing identifiers."""

    def __init__(self, num_flits: int = 4) -> None:
        if num_flits < 1:
            raise ValueError("a packet needs at least one flit")
        self.num_flits = num_flits
        self._next_id = 0

    def create(
        self,
        src: int,
        dst: int,
        created_cycle: int,
        num_flits: Optional[int] = None,
        payload: object = None,
    ) -> Packet:
        """Create a new packet stamped with the given creation cycle."""
        packet = Packet(
            packet_id=self._next_id,
            src=src,
            dst=dst,
            num_flits=num_flits if num_flits is not None else self.num_flits,
            created_cycle=created_cycle,
            payload=payload,
        )
        self._next_id += 1
        return packet

    def reserve(self, count: int) -> int:
        """Claim ``count`` consecutive ids without building packets.

        Returns the first id; the engines stamp column injections with
        them, so the ids match those :meth:`create` would hand out.
        """
        first = self._next_id
        self._next_id = first + count
        return first

    @property
    def packets_created(self) -> int:
        """Number of packets handed out so far."""
        return self._next_id
