"""Network interfaces.

Section IV-C: *"Accelerators and the NoC are connected through network
interfaces.  A network interface is in charge of packetizing data and
arbitration among the incoming streams.  Thanks to the possibility to use
inc() in a SC_METHOD, we succeeded to model this module without any
SC_THREAD.  This module is connected to the accelerators using one FIFO per
accelerator, and because accelerators are decoupled, we have to use a Smart
FIFO here, which had to be slightly extended to manage efficiently the
packetization."*

Two modules implement that description:

* :class:`SourceNetworkInterface` — accelerator(s) → NoC.  One
  :class:`~repro.fifo.packet_fifo.PacketSmartFifo` per incoming stream; a
  single method process arbitrates among the streams (fixed priority), pops
  complete packets with the packet-aware non-blocking interface, and
  injects them into the attached router, keeping a per-interface
  ``busy_until`` date for the injection link.
* :class:`DestNetworkInterface` — NoC → accelerator.  A method process
  de-packetizes arriving packets and delivers the words into the egress
  Smart FIFO; the per-word delivery rate is modelled with ``inc()`` inside
  the method, so the insertion dates seen by the (decoupled) consumer
  accelerator are exact without any thread.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from ...fifo.packet_fifo import PacketSmartFifo
from ...fifo.regular_fifo import RegularFifo
from ...kernel.errors import SimulationError
from ...kernel.module import Module
from ...kernel.simtime import SimTime, ns
from ...kernel.simulator import Simulator
from ...td.decoupling import DecoupledMixin
from ...td.local_time import get_local_time_manager
from .packet import Packet
from .router import Link


class SourceNetworkInterface(DecoupledMixin, Module):
    """Packetizes accelerator streams and injects them into the NoC."""

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        packet_size: int = 4,
        injection_cycle: SimTime = ns(2),
    ):
        super().__init__(parent, name)
        self.packet_size = packet_size
        self.injection_cycle = injection_cycle
        #: stream name -> (ingress fifo, destination coords, destination NI).
        self._streams: Dict[str, Tuple[PacketSmartFifo, Tuple[int, int], str]] = {}
        self._sequence: Dict[str, int] = {}
        self._router_link: Optional[Link] = None
        self._busy_until_fs = 0
        self._kick = self.create_event("kick")
        self.packets_injected = 0
        self._process = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_stream(
        self,
        name: str,
        ingress_fifo: PacketSmartFifo,
        dest: Tuple[int, int],
        dest_ni: str,
    ) -> None:
        """Register one incoming accelerator stream."""
        self._streams[name] = (ingress_fifo, dest, dest_ni)
        self._sequence[name] = 0

    def connect_router(self, link: Link) -> None:
        self._router_link = link

    def end_of_elaboration(self) -> None:
        sensitivity = [self._kick]
        for fifo, _dest, _ni in self._streams.values():
            sensitivity.append(fifo.not_empty_event)
        if self._router_link is not None:
            sensitivity.append(self._router_link.drained_event)
        self._process = self.create_method(
            self._packetize, name="packetize", sensitivity=sensitivity
        )

    # ------------------------------------------------------------------
    # Behaviour (one SC_METHOD, no thread)
    # ------------------------------------------------------------------
    def _injection_delay_fs(self) -> int:
        return self.injection_cycle.femtoseconds * (self.packet_size + 1)

    def _packetize(self) -> None:
        now_fs = self.sim.now_fs
        if self._router_link is None:
            return
        # Fixed-priority arbitration among the incoming streams.
        for name, (fifo, dest, dest_ni) in self._streams.items():
            while fifo.packet_available():
                if self._busy_until_fs > now_fs:
                    self._kick.notify_fs(self._busy_until_fs - now_fs)
                    return
                if not self._router_link.can_accept():
                    # Re-triggered by the router drain event.
                    return
                words = tuple(fifo.nb_read_packet())
                packet = Packet(
                    dest=dest,
                    dest_ni=dest_ni,
                    source=name,
                    sequence=self._sequence[name],
                    words=words,
                )
                self._sequence[name] += 1
                self._router_link.accept(packet)
                self.packets_injected += 1
                self._busy_until_fs = now_fs + self._injection_delay_fs()


class DestNetworkInterface(DecoupledMixin, Module):
    """De-packetizes NoC traffic towards (decoupled) consumer accelerators.

    One interface can serve several egress streams (several consumers behind
    the same router): packets carry the identifier of their egress stream
    (``Packet.dest_ni``) and are demultiplexed onto the matching Smart FIFO.
    """

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        arrival_queue_depth: int = 8,
        word_delivery_time: SimTime = ns(2),
    ):
        super().__init__(parent, name)
        #: Packets delivered by the local port of the attached router.
        self.arrival_fifo = RegularFifo(self, "arrivals", depth=arrival_queue_depth)
        self.word_delivery_time = word_delivery_time
        # Hot-path caches for the per-word delivery annotation.
        self._delivery_fs = word_delivery_time.femtoseconds
        self._ltm = get_local_time_manager(self.sim)
        self._scheduler = self.sim.scheduler
        self._egress: Dict[str, PacketSmartFifo] = {}
        #: Words whose delivery was refused (egress externally full), kept
        #: with their stream identifier until the egress drains.
        self._pending_words: Deque[Tuple[str, int]] = deque()
        self._kick = self.create_event("kick")
        self.packets_received = 0
        self.words_delivered = 0
        self.sequences: Dict[str, List[int]] = {}
        self._process = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect_egress(self, stream: str, fifo: PacketSmartFifo) -> None:
        """Register the Smart FIFO serving egress ``stream``."""
        self._egress[stream] = fifo

    def arrival_link(self) -> Link:
        """The link a router's local output port should be connected to."""
        return Link(self.arrival_fifo)

    def end_of_elaboration(self) -> None:
        sensitivity = [self._kick, self.arrival_fifo.not_empty_event]
        for fifo in self._egress.values():
            sensitivity.append(fifo.not_full_event)
        self._process = self.create_method(
            self._deliver, name="deliver", sensitivity=sensitivity
        )

    # ------------------------------------------------------------------
    # Behaviour (one SC_METHOD using inc() for the delivery rate)
    # ------------------------------------------------------------------
    def _egress_for(self, stream: str) -> PacketSmartFifo:
        try:
            return self._egress[stream]
        except KeyError:
            raise SimulationError(
                f"network interface {self.full_name}: no egress registered "
                f"for stream {stream!r}"
            ) from None

    def _deliver(self) -> None:
        ltm = self._ltm
        process = self._scheduler.current_process
        delivery_fs = self._delivery_fs
        # First flush words left over from a previous activation.
        while self._pending_words:
            stream, word = self._pending_words[0]
            if not self._egress_for(stream).nb_write(word):
                return  # re-triggered by the egress not_full event
            self._pending_words.popleft()
            self.words_delivered += 1
            ltm.advance_fs(process, delivery_fs)
        # Then unpack newly arrived packets.
        while not self.arrival_fifo.is_empty():
            packet: Packet = self.arrival_fifo.nb_read()
            self.packets_received += 1
            self.sequences.setdefault(packet.source, []).append(packet.sequence)
            egress = self._egress_for(packet.dest_ni)
            for index, word in enumerate(packet.words):
                if not egress.nb_write(word):
                    self._pending_words.extend(
                        (packet.dest_ni, late) for late in packet.words[index:]
                    )
                    return
                self.words_delivered += 1
                ltm.advance_fs(process, delivery_fs)
