"""Input port: source queue, virtual channels, and connection state.

Each switch input port owns:

* an unbounded *source queue* (the network interface) holding records of
  the packets the traffic source generated but that have not yet obtained
  buffer space — packet latency is measured from generation, so source
  queueing counts;
* ``num_vcs`` virtual channels of ``vc_depth`` flits each;
* the port's *connection state*: a matrix-crossbar input drives a single
  input bus, so at most one packet streams from a port at a time and the
  port arbitrates for a new output only while idle.

The port refills VCs from the source queue at one flit per cycle and selects
the candidate VC for arbitration round-robin among VCs with a routable head
flit, mirroring a single request per input per cycle (the Swizzle-Switch
reuses the input data lines to index the requested output).
"""

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

from repro.network.flit import Flit
from repro.network.packet import Packet, PacketRecord, record_flits
from repro.network.vc import VirtualChannel


class SourceQueue:
    """Unbounded network-interface queue of packet records.

    Packets wait here as plain ``(packet_id, dst, created_cycle,
    num_flits, payload)`` records (see :mod:`repro.network.packet`); the
    queue's ``src`` is the port they entered at.  A packet's flits are
    only materialised (:func:`~repro.network.packet.record_flits`) when
    it reaches the front of the queue and its first flit is about to
    enter a virtual channel.  At saturation the queue backs up by design
    (source queueing counts toward latency), so neither a
    :class:`~repro.network.packet.Packet` nor its flits are ever built
    for a packet still queued, and memory stays one small tuple per
    waiting packet.

    ``len()`` reports the queue length in **flits**, matching the eager
    flit deque this replaces.
    """

    __slots__ = ("src", "_packets", "_flits", "_pending_flits")

    def __init__(self, src: int) -> None:
        self.src = src
        self._packets: Deque[PacketRecord] = deque()
        # Flits of the packet currently being streamed into a VC.
        self._flits: Deque[Flit] = deque()
        self._pending_flits = 0

    def __len__(self) -> int:
        return self._pending_flits

    def append_packet(self, packet: Packet) -> None:
        """Enqueue a packet's record without materialising its flits."""
        self._packets.append(packet.record)
        self._pending_flits += packet.num_flits

    def front(self) -> Optional[Flit]:
        """The next flit to enter a VC, or None when the queue is empty.

        Expands the next packet on demand; repeated calls are O(1).
        """
        if not self._flits:
            if not self._packets:
                return None
            self._flits.extend(
                record_flits(self.src, self._packets.popleft())
            )
        return self._flits[0]

    def popleft(self) -> Flit:
        """Remove and return the front flit (callers use front() first)."""
        self._pending_flits -= 1
        return self._flits.popleft()


def queue_packet(queues: Sequence[SourceQueue], packet: Packet) -> None:
    """Range-check ``packet``'s ports and append it to its source queue.

    ``queues`` is a switch's source queues indexed by input port; their
    count is the switch radix.

    Raises:
        ValueError: If the source or destination port is out of range.
    """
    num_ports = len(queues)
    src = packet.src
    if not 0 <= src < num_ports:
        raise ValueError(f"source port {src} out of range")
    if not 0 <= packet.dst < num_ports:
        raise ValueError(f"destination port {packet.dst} out of range")
    queues[src].append_packet(packet)


def queue_columns(
    queues: Sequence[SourceQueue],
    srcs: Sequence[int],
    dsts: Sequence[int],
    first: int,
    cycle: int,
    num_flits: int,
) -> None:
    """Append one cycle's column injections to their source queues.

    Packet ``i`` goes from ``srcs[i]`` to ``dsts[i]`` with id
    ``first + i``, ``num_flits`` flits, creation cycle ``cycle`` and no
    payload: the packet ``PacketFactory.create`` would have built.  The
    whole column is range-checked before anything is queued.

    Raises:
        ValueError: If a port is out of range (the first offending
            packet is named, with :func:`queue_packet`'s message).
    """
    if not srcs:
        return
    num_ports = len(queues)
    if (min(srcs) < 0 or max(srcs) >= num_ports
            or min(dsts) < 0 or max(dsts) >= num_ports):
        for src, dst in zip(srcs, dsts):
            if not 0 <= src < num_ports:
                raise ValueError(f"source port {src} out of range")
            if not 0 <= dst < num_ports:
                raise ValueError(f"destination port {dst} out of range")
    for packet_id, src, dst in zip(range(first, first + len(srcs)),
                                   srcs, dsts):
        queue = queues[src]
        queue._packets.append((packet_id, dst, cycle, num_flits, None))
        queue._pending_flits += num_flits


@dataclass(frozen=True)
class PortConfig:
    """Buffering configuration of an input port.

    The defaults follow Section V of the paper: 4 virtual channels per port
    with a buffer depth of 4 flits per virtual channel.
    """

    num_vcs: int = 4
    vc_depth: int = 4

    def __post_init__(self) -> None:
        if self.num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if self.vc_depth < 1:
            raise ValueError("virtual channel depth must be >= 1")


class InputPort:
    """Buffered input port of a switch."""

    def __init__(self, port_id: int, config: Optional[PortConfig] = None) -> None:
        self.port_id = port_id
        self.config = config or PortConfig()
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(self.config.vc_depth) for _ in range(self.config.num_vcs)
        ]
        self.source_queue = SourceQueue(port_id)
        self._rr_next_vc = 0
        # Index of the VC streaming the packet that currently holds a
        # connection through the switch, or None when the port is idle.
        self.active_vc: Optional[int] = None
        # True while the source-queue front flit cannot enter any VC.
        # VC state only changes when a flit is popped (transmit), so the
        # refill scan can be skipped until then.
        self._refill_blocked = False
        # VC that accepted the most recent head flit: the rest of that
        # packet can only enter the same VC, so body refills skip the scan.
        self._refill_vc = 0
        # Number of VCs whose front flit is a head (seq 0).  A VC holds
        # one packet at a time (a head needs a free, hence empty, VC), so
        # the count rises when a head enters a VC and falls when a head
        # is popped; arbitration skips a port whose count is 0.
        self._heads = 0

    # ------------------------------------------------------------------
    # Injection side
    # ------------------------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> None:
        """Append a freshly generated packet's record to the source queue.

        Flit objects are materialised lazily when the packet reaches the
        queue front (see :class:`SourceQueue`).
        """
        self.source_queue.append_packet(packet)

    def refill(self, cycle: int) -> None:
        """Move up to one flit from the source queue into a VC.

        A head flit requires a free VC; body/tail flits go to the VC their
        packet owns.  If no VC can accept the front flit, nothing moves
        (head-of-line order is preserved at the network interface) and
        the port stays blocked until its next :meth:`transmit`.

        This is the only refill of both scalar Hi-Rise kernels: the fast
        kernel's ``_refill`` calls it for every port that is not blocked
        and has something queued.  It and :meth:`transmit` (or the fast
        kernel's inlined copy of it) are the only places ``_heads``
        changes.
        """
        if self._refill_blocked:
            return
        queue = self.source_queue
        flits = queue._flits
        if not flits:
            packets = queue._packets
            if not packets:
                return
            flits.extend(record_flits(queue.src, packets.popleft()))
        flit = flits[0]
        if flit.seq == 0:
            # Head flit: first free VC (a free VC is always empty).
            for idx, vc in enumerate(self.vcs):
                if vc._owner_packet is None and len(vc._fifo) < vc.depth:
                    flits.popleft()
                    queue._pending_flits -= 1
                    flit.injected_cycle = cycle
                    vc._owner_packet = flit.packet_id
                    vc._fifo.append(flit)
                    self._refill_vc = idx
                    self._heads += 1
                    return
        else:
            # Body/tail flit: only its packet's owner VC may take it.
            vc = self.vcs[self._refill_vc]
            if vc._owner_packet != flit.packet_id:
                for idx, other in enumerate(self.vcs):
                    if other._owner_packet == flit.packet_id:
                        self._refill_vc = idx
                        vc = other
                        break
                else:
                    self._refill_blocked = True
                    return
            if len(vc._fifo) < vc.depth:
                flits.popleft()
                queue._pending_flits -= 1
                flit.injected_cycle = cycle
                vc._fifo.append(flit)
                return
        self._refill_blocked = True

    # ------------------------------------------------------------------
    # Arbitration side
    # ------------------------------------------------------------------
    @property
    def is_busy(self) -> bool:
        """True while a packet is streaming through an established path."""
        return self.active_vc is not None

    def candidate_vc(self, viable=None) -> Optional[int]:
        """Pick the VC whose head flit should arbitrate this cycle.

        Returns the VC index, chosen round-robin among VCs holding a head
        flit at their front, or None when the port is busy or has nothing
        to request.

        Args:
            viable: Optional predicate on the head flit.  The switch passes
                a check that the flit's path resources (final output, L2LC)
                are currently free — the cross-points expose channel-free
                status, so a request for a busy resource is never made and
                another VC may use the input's request lines instead.
        """
        if self.active_vc is not None:
            return None
        vcs = self.vcs
        num_vcs = len(vcs)
        start = self._rr_next_vc
        for offset in range(num_vcs):
            idx = start + offset
            if idx >= num_vcs:
                idx -= num_vcs
            fifo = vcs[idx]._fifo
            if fifo:
                front = fifo[0]
                if front.seq == 0 and (viable is None or viable(front)):
                    return idx
        return None

    def requested_output(self, viable=None) -> Optional[int]:
        """Destination port of this cycle's candidate head flit, if any."""
        vc = self.candidate_vc(viable)
        if vc is None:
            return None
        front = self.vcs[vc].front()
        assert front is not None
        return front.dst

    def grant(self, vc_index: int) -> None:
        """Record that the head flit of ``vc_index`` won a path.

        Advances the round-robin pointer past the granted VC so other VCs
        get a turn once this packet completes.
        """
        if self.is_busy:
            raise RuntimeError(f"port {self.port_id} already has a connection")
        self.active_vc = vc_index
        self._rr_next_vc = (vc_index + 1) % len(self.vcs)

    def transmit(self) -> Flit:
        """Stream one flit of the active packet; release the path on tail.

        Raises:
            RuntimeError: If the port has no active connection.
        """
        if self.active_vc is None:
            raise RuntimeError(f"port {self.port_id} has no active connection")
        flit = self.vcs[self.active_vc].pop()
        if flit.seq == 0:
            self._heads -= 1
        if flit.seq == flit.num_flits - 1:  # tail: release the connection
            self.active_vc = None
        # Popping freed buffer space (and possibly a VC): the source-queue
        # front may fit now.
        self._refill_blocked = False
        return flit

    def peek_active(self) -> Flit:
        """The next flit the active connection will transmit."""
        if self.active_vc is None:
            raise RuntimeError(f"port {self.port_id} has no active connection")
        front = self.vcs[self.active_vc].front()
        if front is None:
            raise RuntimeError(
                f"port {self.port_id} active VC ran dry mid-packet"
            )
        return front

    def active_has_flit(self) -> bool:
        """Whether the active VC has a buffered flit ready to transmit."""
        if self.active_vc is None:
            return False
        return self.vcs[self.active_vc].front() is not None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def buffered_flits(self) -> int:
        """Total flits currently buffered in this port's VCs."""
        return sum(len(vc) for vc in self.vcs)

    def total_occupancy(self) -> int:
        """Flits buffered in VCs plus flits waiting in the source queue."""
        return self.buffered_flits() + len(self.source_queue)
