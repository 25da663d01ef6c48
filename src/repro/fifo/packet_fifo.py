"""Packet-aware Smart FIFO.

The case study of the paper (Section IV-C) connects hardware accelerators
to the stream NoC through *network interfaces* that packetize the data
streams.  The paper notes that the Smart FIFO between an accelerator and a
network interface "had to be slightly extended to manage efficiently the
packetization".

:class:`PacketSmartFifo` is that extension: on top of the word-level Smart
FIFO interface it offers packet-level accesses that move a whole burst of
``packet_size`` words in one call while keeping the per-word timestamps
exact:

* :meth:`write_packet` writes all the words of a packet, the caller's local
  date only being adjusted by the FIFO back-pressure (as with repeated
  :meth:`~repro.fifo.smart_fifo.SmartFifo.write` calls, but without
  re-entering the blocking machinery per word when room is available);
* :meth:`read_packet` returns ``packet_size`` words, raising the reader's
  local date to the insertion date of the *last* word of the packet, which
  is when the real network interface could forward the complete packet;
* :meth:`packet_available` / :meth:`nb_read_packet` give method processes
  (the network interfaces are ``SC_METHOD`` based) a packet-level
  non-blocking view.
"""

from __future__ import annotations

from typing import Any, List, Union

from ..kernel.errors import FifoError
from ..kernel.module import Module
from ..kernel.simulator import Simulator
from ..kernel.tracing import OP_SMART_READ, OP_SMART_WRITE
from .smart_fifo import SmartFifo


class PacketSmartFifo(SmartFifo):
    """A Smart FIFO with packet-granularity helper accesses."""

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        depth: int = 16,
        packet_size: int = 4,
        burst: bool = False,
        **kwargs,
    ):
        super().__init__(parent, name, depth, **kwargs)
        if packet_size <= 0:
            raise FifoError(f"packet size must be positive, got {packet_size}")
        if packet_size > depth:
            raise FifoError(
                f"packet size {packet_size} cannot exceed the FIFO depth {depth}"
            )
        self.packet_size = packet_size
        #: When True the packet-level accesses delegate to the burst (span)
        #: APIs instead of per-word loops — bit-exact dates, fewer Python
        #: dispatches per packet.
        self.burst_packets = burst
        #: Number of complete packets transferred through the packet API.
        self.packets_written = 0
        self.packets_read = 0

    # ------------------------------------------------------------------
    # Packet-level blocking interface (decoupled threads)
    # ------------------------------------------------------------------
    def write_packet(self, words: List[Any]):
        """Blocking write of a full packet (word by word, exact timestamps).

        Words that fit without blocking bypass the word-level generator
        machinery ("without re-entering the blocking machinery per word
        when room is available"); only a word hitting an internally full
        FIFO goes through the suspending :meth:`write` path.
        """
        if len(words) != self.packet_size:
            raise FifoError(
                f"write_packet expects {self.packet_size} words, got {len(words)}"
            )
        if self.burst_packets:
            yield from self.write_burst(words)
            self.packets_written += 1
            return
        cells = self._cells
        depth = cells.depth
        for word in words:
            if self.sync_on_access or cells.busy_count == depth:
                yield from self.write(word)
            else:
                self._do_write(self._scheduler.current_process, self._manager, word)
                if self._dep is not None:
                    self._dep.word(
                        OP_SMART_WRITE, self._dep_idx, self._last_write_fs
                    )
        # Count the packet only once the last word has landed: an exception
        # (or an abandoned generator) mid-packet must not leave the counter
        # claiming a full transfer.
        self.packets_written += 1

    def read_packet(self):
        """Blocking read of a full packet.

        The reader's local date after the call is the insertion date of the
        last word (or its own local date if later), i.e. the date at which
        the complete packet is available for forwarding.
        """
        if self.burst_packets:
            words = yield from self.read_burst(self.packet_size)
            self.packets_read += 1
            return words
        cells = self._cells
        words = []
        for _ in range(self.packet_size):
            if self.sync_on_access or cells.busy_count == 0:
                word = yield from self.read()
            else:
                word = self._do_read(self._scheduler.current_process, self._manager)
                if self._dep is not None:
                    self._dep.word(
                        OP_SMART_READ, self._dep_idx, self._last_read_fs
                    )
            words.append(word)
        self.packets_read += 1
        return words

    # ------------------------------------------------------------------
    # Packet-level non-blocking interface (method processes)
    # ------------------------------------------------------------------
    def packet_available(self) -> bool:
        """True when a full packet is externally available at the caller's date.

        "Available" means the *head* ``packet_size`` cells (pop order) all
        hold words inserted by the caller's date: one ``max`` over their
        insertion dates
        (:meth:`~repro.fifo.cells.CellRing.head_busy_insertion_span`).  A
        True guard thus promises that :meth:`nb_read_packet` succeeds —
        also without side ordering, where counting any ``packet_size``
        available cells would overlook a future-dated head cell and break
        the guard-then-act pattern.  (With side ordering, insertion dates
        are monotone along the ring and the head-first check coincides
        with the count.)
        """
        if self._dep is not None:
            self._dep.probe("packet_available", self._dep_idx)
        date_fs = self._caller_date_fs()
        cells = self._cells
        size = self.packet_size
        if size <= cells.busy_count:
            completion_fs = max(cells.head_busy_insertion_span(size))
            if completion_fs <= date_fs:
                return True
            # Re-arm the not_empty event at the date the head packet
            # completes: all of its words are already internally present.
            self._notify_external(
                self._not_empty_event, completion_fs, forced=True
            )
        return False

    def nb_read_packet(self) -> List[Any]:
        """Non-blocking read of a full packet (guard with :meth:`packet_available`).

        The read is **atomic**: it either returns all ``packet_size`` words
        or raises without consuming anything (and without touching
        ``packets_read``).  The :meth:`packet_available` guard checks the
        *head* cells specifically, so a True guard can never be followed by
        a torn word-by-word drain — also without side ordering.
        """
        if not self.packet_available():
            raise FifoError(
                f"nb_read_packet on {self.full_name}: no complete packet available"
            )
        if self.burst_packets:
            # The guard promises the head packet_size words are available,
            # so the span drains the full packet in one pop_span.
            words = self.nb_read_burst(self.packet_size)
        else:
            process = self._scheduler.current_process
            manager = self._manager
            words = [
                self._do_read(process, manager)
                for _ in range(self.packet_size)
            ]
        # Count the packet only once the last word is out: a raise above
        # must never leave the counters claiming a transfer.
        self.packets_read += 1
        return words

    def space_for_packet(self) -> bool:
        """True when a full packet can be written without blocking.

        Mirror of :meth:`packet_available`: the *head* ``packet_size`` free
        cells (push order) must all be really freed at the caller's date —
        one ``max`` over their freeing dates
        (:meth:`~repro.fifo.cells.CellRing.head_free_freeing_span`) — so a
        True guard promises that :meth:`nb_write_packet` succeeds.
        """
        if self._dep is not None:
            self._dep.probe("space_for_packet", self._dep_idx)
        date_fs = self._caller_date_fs()
        cells = self._cells
        size = self.packet_size
        if size <= cells.depth - cells.busy_count:
            ready_fs = max(cells.head_free_freeing_span(size))
            if ready_fs <= date_fs:
                return True
            # Arm the not_full event at the date the head room really
            # exists: those frees were already performed internally.
            self._notify_external(self._not_full_event, ready_fs, forced=True)
        return False

    # ------------------------------------------------------------------
    # Packetization extension (Section IV-C)
    # ------------------------------------------------------------------
    def _do_write(self, process, manager, data, local_fs: int = -1) -> None:
        """Write one word and notify packet-level listeners.

        The word-level Smart FIFO only notifies ``not_empty`` on the
        empty-to-non-empty transition; a packet-level consumer however needs
        to be woken when the word *completing* a packet arrives, which can
        happen while the FIFO is already non-empty.  This is the "slight
        extension to manage efficiently the packetization" mentioned by the
        paper: every insertion schedules a (delayed) notification; pending
        notifications collapse to the earliest date and
        :meth:`packet_available` re-arms later dates as needed.
        """
        super()._do_write(process, manager, data, local_fs)
        self._notify_external(self._not_empty_event, self._last_write_fs)

    def _notify_after_span_write(self, was_internally_empty: bool,
                                 first_date_fs: int) -> None:
        """Span twin of the packetization extension above.

        Word mode schedules one delayed not_empty per insertion; within a
        span the dates are monotone non-decreasing and no delta boundary
        passes, so all of them collapse onto the earliest pending one —
        a single notification at the span's first date is bit-exact.
        """
        self._notify_external(self._not_empty_event, first_date_fs)

    def nb_write_packet(self, words: List[Any]) -> bool:
        """Non-blocking write of a full packet; False when not enough room.

        Symmetric atomicity guarantee of :meth:`nb_read_packet`: either the
        whole packet is written and counted, or nothing is — a length
        mismatch or insufficient room raises/returns before the first word
        lands (the :meth:`space_for_packet` guard checks the *head* free
        cells), so ``packets_written`` can never claim a torn transfer.
        """
        if len(words) != self.packet_size:
            raise FifoError(
                f"nb_write_packet expects {self.packet_size} words, got {len(words)}"
            )
        if not self.space_for_packet():
            return False
        if self.burst_packets:
            # The guard promises head room for the whole packet, so the
            # span lands it in one push_span.
            if self.nb_write_burst(words) != self.packet_size:
                raise FifoError(  # pragma: no cover - guarded above
                    f"nb_write_packet lost room on {self.full_name}"
                )
        else:
            for word in words:
                if not self.nb_write(word):  # pragma: no cover - guarded above
                    raise FifoError(
                        f"nb_write_packet lost room on {self.full_name}"
                    )
        self.packets_written += 1
        return True
