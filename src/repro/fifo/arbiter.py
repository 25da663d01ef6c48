"""Side arbiters for the Smart FIFO.

Section III of the paper: *"The Smart FIFO assumes that each side is always
accessed by the same process; if it is not the case in the design, then an
arbiter must be added to ensure that two successive accesses on the same
side cannot have decreasing local dates (i.e., time must go forward on each
side, but no ordering with the other side is required)."*

:class:`WriteArbiter` and :class:`ReadArbiter` implement that arbiter for
decoupled threads: they model the FIFO port as a shared resource that is
*busy* until the date of the last granted access, so a process whose local
date is behind the last access date is simply delayed (its local date is
raised) until the port is free again.  This keeps the per-side dates
monotonic while preserving temporal decoupling (no context switch is
introduced by the arbiter itself).

Blocking accesses wait for FIFO capacity *before* taking their grant (via
``SmartFifo.wait_writable`` / ``wait_readable`` when available): the real
hardware arbiter only grants the port when the transfer can proceed, and
granting earlier would let later-granted processes overtake a sleeping
one, producing decreasing per-side dates.  One restriction follows: do not
front a ``SmartFifo(sync_on_access=True)`` with an arbiter — its
unconditional sync *after* the grant reopens that window.  Sync-per-access
callers are synchronized anyway, so their kernel dates are naturally
monotonic and they need no date arbitration in the first place.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

from ..kernel.errors import FifoError
from ..kernel.module import Module
from ..kernel.simtime import SimTime, ZERO_TIME
from ..kernel.simulator import Simulator
from ..kernel.tracing import OP_SMART_READ, OP_SMART_WRITE
from ..td.decoupling import sync
from ..td.local_time import get_local_time_manager
from .cells import NEVER
from .interfaces import FifoReaderInterface, FifoWriterInterface
from .smart_fifo import SmartFifo


class _SideArbiter(Module):
    """Common machinery: serialize accesses by raising late callers."""

    #: Which FIFO side the arbiter fronts: 0 = write, 1 = read (set by the
    #: concrete subclasses; recorded with the arbiter registration so the
    #: replay engine knows which capacity wait precedes each grant).
    _SIDE = -1

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        fifo,
        access_duration: SimTime = ZERO_TIME,
        record_grants: bool = False,
    ):
        super().__init__(parent, name)
        if getattr(fifo, "sync_on_access", False):
            # See the module docstring: the unconditional sync *after* the
            # grant reopens the block-after-grant window, and sync-per-access
            # callers need no date arbitration anyway.
            raise FifoError(
                f"arbiter {name!r}: cannot front a sync_on_access FIFO "
                f"({getattr(fifo, 'full_name', fifo)!r}); sync-per-access "
                "callers are synchronized and need no date arbitration"
            )
        self.fifo = fifo
        #: Minimum time the port stays busy after a granted access; models
        #: the arbitration/transfer cycle of the real hardware port.
        self.access_duration = access_duration
        self._port_free_fs = NEVER
        #: Number of accesses whose caller had to be delayed by arbitration.
        self.arbitrated_accesses = 0
        self.total_accesses = 0
        #: Monotonicity bookkeeping is O(1): the Section III invariant —
        #: time must go forward on each side — is tracked with the date of
        #: the last grant only.  Pass ``record_grants=True`` to additionally
        #: keep the full grant history in :attr:`grant_dates_fs` (one int
        #: per access: oracle/debug use, not for long production runs).
        self._last_grant_fs = NEVER
        self._grants_monotonic = True
        #: Local dates (fs) at which accesses were granted, in grant order;
        #: ``None`` unless ``record_grants`` was requested.
        self.grant_dates_fs: Optional[List[int]] = [] if record_grants else None
        # Dependency recording (record-and-replay): the port-free arithmetic
        # of every grant is replayed from the spool, so the arbiter registers
        # itself alongside the FIFO it fronts.
        recorder = self.sim.dep_recorder
        if recorder is not None:
            self._dep = recorder
            self._arb_idx = recorder.register_arbiter(
                self, getattr(fifo, "_dep_idx", -1), self._SIDE
            )
        else:
            self._dep = None
            self._arb_idx = -1

    def _grant(self) -> None:
        """Raise the caller's local date to the port-free date if needed."""
        process = self.sim.scheduler.current_process
        manager = get_local_time_manager(self.sim)
        local_fs = manager.local_fs(process)
        self.total_accesses += 1
        if local_fs < self._port_free_fs:
            self.arbitrated_accesses += 1
            if process is not None:
                local_fs = manager.advance_to(process, self._port_free_fs)
            else:
                local_fs = self._port_free_fs
        if local_fs < self._last_grant_fs:
            self._grants_monotonic = False
        self._last_grant_fs = local_fs
        if self.grant_dates_fs is not None:
            self.grant_dates_fs.append(local_fs)
        self._port_free_fs = local_fs + self.access_duration.femtoseconds
        if self._dep is not None:
            self._dep.grant(
                self._arb_idx, local_fs, self.access_duration.femtoseconds
            )

    def _grant_snapshot(self):
        """State to restore with :meth:`_rollback_grant` if a non-blocking
        access is refused after its grant."""
        return (
            self._port_free_fs,
            self.total_accesses,
            self.arbitrated_accesses,
            self._last_grant_fs,
            self._grants_monotonic,
            len(self.grant_dates_fs) if self.grant_dates_fs is not None else 0,
        )

    def _rollback_grant(self, snapshot) -> None:
        """Undo the bookkeeping of the last :meth:`_grant`.

        A refused non-blocking access never occupied the port, so it must
        not appear in the counters or the grant-date oracle, nor keep the
        port busy.  (The caller's local date, if the grant raised it, stays
        raised — time cannot go backwards for a process.)
        """
        (
            self._port_free_fs,
            self.total_accesses,
            self.arbitrated_accesses,
            self._last_grant_fs,
            self._grants_monotonic,
            grants,
        ) = snapshot
        if self.grant_dates_fs is not None:
            del self.grant_dates_fs[grants:]

    @property
    def last_grant_fs(self) -> int:
        """Local date (fs) of the last granted access (NEVER before any)."""
        return self._last_grant_fs

    def grants_monotonic(self) -> bool:
        """True when the granted dates never decreased (the invariant the
        arbiter exists to enforce).  Tracked in O(1), available whether or
        not the full grant history is recorded."""
        return self._grants_monotonic


class WriteArbiter(_SideArbiter, FifoWriterInterface):
    """Serializes several writer processes in front of one FIFO write side."""

    _SIDE = 0

    def write(self, data: Any):
        # Block for a free cell *before* granting the port: a grant taken
        # while the FIFO is full would be overtaken (at a later date) by
        # writers granted afterwards while this one sleeps, and the write
        # side would see decreasing dates.  The real hardware arbiter only
        # grants the port when the transfer can actually proceed.
        waiter = getattr(self.fifo, "wait_writable", None)
        if waiter is not None:
            yield from waiter()
        self._grant()
        yield from self.fifo.write(data)

    def nb_write(self, data: Any) -> bool:
        # A recorded FIFO's nb_write poisons the recording, so the grant
        # recorded below is never replayed.
        snapshot = self._grant_snapshot()
        self._grant()
        if self.fifo.nb_write(data):
            return True
        self._rollback_grant(snapshot)
        return False

    def write_burst(self, words: Sequence[Any], gap_fs=0, dates_out=None):
        """Burst write through the arbiter: the word algorithm flattened
        into one generator frame.

        A true span is unsound here: a mid-burst capacity block suspends
        this writer while competing writers take grants and move the
        port-free date, so every word must wait/grant/write individually.
        The win is structural — one generator frame and one Python loop for
        the whole burst instead of three frames per word.  ``gap_fs``
        (constant, or one entry per word) advances the caller's local date
        after each word, exactly like an ``advance`` after each word-loop
        access; bit-exact with that loop by construction.
        """
        n = len(words)
        gap_const, gaps = SmartFifo._span_gaps(gap_fs, n, "write")
        fifo = self.fifo
        dep = self._dep
        fifo_idx = getattr(fifo, "_dep_idx", -1)
        cells = fifo._cells
        depth = cells.depth
        process = self.sim.scheduler.current_process
        manager = get_local_time_manager(self.sim)
        for i in range(n):
            # wait_writable, inlined (same records, same counters).
            if dep is not None:
                dep.wait_cap(fifo_idx, 0)
            while cells.busy_count == depth:
                fifo.blocking_waits += 1
                fifo._blocked_writers += 1
                try:
                    yield from sync(sim=self.sim)
                    if cells.busy_count == depth:
                        yield fifo._wait_cell_freed
                finally:
                    fifo._blocked_writers -= 1
            self._grant()
            fifo._do_write(process, manager, words[i])
            if dep is not None:
                dep.word(OP_SMART_WRITE, fifo_idx, fifo._last_write_fs)
            if dates_out is not None:
                dates_out.append(fifo._last_write_fs)
            gap = gap_const if gaps is None else gaps[i]
            manager.advance_fs(process, gap)
            if dep is not None:
                dep.inc(gap)

    def is_full(self) -> bool:
        return self.fifo.is_full()

    @property
    def not_full_event(self):
        return self.fifo.not_full_event


class ReadArbiter(_SideArbiter, FifoReaderInterface):
    """Serializes several reader processes in front of one FIFO read side."""

    _SIDE = 1

    def read(self):
        # Symmetric to WriteArbiter.write: wait for a busy cell first, then
        # grant, so grant order equals actual access order even when the
        # FIFO runs internally empty.
        waiter = getattr(self.fifo, "wait_readable", None)
        if waiter is not None:
            yield from waiter()
        self._grant()
        data = yield from self.fifo.read()
        return data

    def nb_read(self):
        # See WriteArbiter.nb_write: the FIFO's nb_read poisons.
        snapshot = self._grant_snapshot()
        self._grant()
        try:
            return self.fifo.nb_read()
        except Exception:
            self._rollback_grant(snapshot)
            raise

    def read_burst(self, count: int, gap_fs=0, dates_out=None):
        """Burst read through the arbiter (see :meth:`WriteArbiter.write_burst`).

        Returns the ``count`` words read, like repeated :meth:`read` calls.
        """
        gap_const, gaps = SmartFifo._span_gaps(gap_fs, count, "read")
        fifo = self.fifo
        dep = self._dep
        fifo_idx = getattr(fifo, "_dep_idx", -1)
        cells = fifo._cells
        process = self.sim.scheduler.current_process
        manager = get_local_time_manager(self.sim)
        words: List[Any] = []
        for i in range(count):
            # wait_readable, inlined (same records, same counters).
            if dep is not None:
                dep.wait_cap(fifo_idx, 1)
            while cells.busy_count == 0:
                fifo.blocking_waits += 1
                fifo._blocked_readers += 1
                try:
                    yield from sync(sim=self.sim)
                    if cells.busy_count == 0:
                        yield fifo._wait_cell_filled
                finally:
                    fifo._blocked_readers -= 1
            self._grant()
            words.append(fifo._do_read(process, manager))
            if dep is not None:
                dep.word(OP_SMART_READ, fifo_idx, fifo._last_read_fs)
            if dates_out is not None:
                dates_out.append(fifo._last_read_fs)
            gap = gap_const if gaps is None else gaps[i]
            manager.advance_fs(process, gap)
            if dep is not None:
                dep.inc(gap)
        return words

    def is_empty(self) -> bool:
        return self.fifo.is_empty()

    @property
    def not_empty_event(self):
        return self.fifo.not_empty_event
