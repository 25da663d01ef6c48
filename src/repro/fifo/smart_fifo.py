"""The Smart FIFO (Section III of the paper).

The Smart FIFO is the paper's contribution: a model of a bounded hardware
FIFO that is aware of the local dates of temporally decoupled processes.

* Each **data item** carries the local date at which it was written (the
  *insertion date*); a blocking :meth:`read` raises the reader's local date
  up to that insertion date instead of synchronizing with the kernel.
* Each **freed cell** carries the local date at which it was read (the
  *freeing date*); a blocking :meth:`write` raises the writer's local date
  up to that freeing date, which models the back-pressure of the bounded
  hardware FIFO.
* A context switch only happens when the FIFO is *internally* full (write)
  or *internally* empty (read): the writer/reader synchronizes and waits
  until the peer frees/fills a cell.

The non-blocking interface (Section III-B) lets ``SC_METHOD``-style
processes use the FIFO: :meth:`is_empty` / :meth:`is_full` give the
*external* view of the FIFO at the caller's date, and the
:attr:`not_empty_event` / :attr:`not_full_event` events are notified with a
*delayed* notification so that they fire exactly at the date the real FIFO
changes state.

The monitor interface (Section III-C) computes the *real* filling level at
the (synchronized) caller's date from the per-cell timestamps.

The goal — and the property checked extensively by the test suite — is that
a model using Smart FIFOs with temporal decoupling produces **exactly the
same dates** as the same model using regular FIFOs without temporal
decoupling; only the schedule and the number of delta cycles may change.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, repeat
from typing import Any, List, Optional, Sequence, Union

from ..kernel.errors import FifoError, TimingError
from ..kernel.event import Event
from ..kernel.tracing import OP_SMART_READ, OP_SMART_WRITE
from ..kernel.module import Module
from ..kernel.process import Process, WaitEvent
from ..kernel.simtime import SimTime
from ..kernel.simulator import Simulator
from ..td.decoupling import sync
from ..td.local_time import LocalTimeManager, get_local_time_manager
from .cells import CellRing, NEVER
from .interfaces import FifoInterface


#: Span-length crossover of the burst path: a burst moves the words it can
#: move now as one bulk span only when there are at least this many of
#: them, and through the word path otherwise.  A span pays a fixed cost
#: (the date array, the slice copies, the worst-case guard, the local-time
#: update) and, when cell dates lie ahead of the caller, a per-word date
#: recurrence.  Measured on a 2-vCPU x86-64 host under CPython 3.11, CPU
#: of the Fig. 5 TDFULL burst pipeline (20 x 100 words) with every span
#: moved as a span over every span moved word by word, median of 11:
#: depth 4 1.25, 8 1.09, 12 1.01, 16 0.985, 24 0.91, 32 0.85.  At depth
#: 12 this threshold beat 12 and 8 (burst over word CPU 0.77, 0.79,
#: 0.81); at depths 16 and 24 the choice did not show.  (A single thread
#: that never blocks, where every span takes the cheap pure-gap branch,
#: breaks even at 8 words.)
MIN_SPAN_WORDS = 16


def _span_schedule(cell_dates: array, local_fs: int, gap_fs: int,
                   gaps: Optional[List[int]], start: int):
    """Access dates of one bulk span and the caller's date after it.

    ``cell_dates`` holds the dates of the span's cells in access order
    (the freeing dates for a write, the insertion dates for a read): word
    *i* cannot move before ``cell_dates[i]``.  The word path's dates obey
    ``d_i = max(d_{i-1} + gap_{i-1}, cell_dates[i])``, the first word
    starting from the caller's date ``local_fs``, with the gaps
    ``gaps[start:]`` (or ``gap_fs`` after every word when ``gaps`` is
    None).  When no cell is dated past ``local_fs`` the recurrence is the
    pure gap schedule, built without a Python loop; otherwise it runs over
    ``cell_dates`` in place.  Returns ``(dates, final_fs)``.
    """
    k = len(cell_dates)
    if max(cell_dates) <= local_fs:
        if gaps is None:
            if gap_fs:
                final_fs = local_fs + k * gap_fs
                return array("q", range(local_fs, final_fs, gap_fs)), final_fs
            return array("q", [local_fs]) * k, local_fs
        dates = array(
            "q", accumulate(gaps[start:start + k - 1], initial=local_fs)
        )
        return dates, dates[-1] + gaps[start + k - 1]
    steps = repeat(gap_fs, k) if gaps is None else gaps[start:start + k]
    prev = local_fs
    for index, gap in enumerate(steps):
        date_fs = cell_dates[index]
        if date_fs < prev:
            cell_dates[index] = date_fs = prev
        prev = date_fs + gap
    return cell_dates, prev


def _leading_dated_by(dates: array, date_fs: int) -> int:
    """Number of leading ``dates`` at or before ``date_fs`` — the words a
    non-blocking burst can move at that date."""
    for count, cell_fs in enumerate(dates):
        if cell_fs > date_fs:
            return count
    return len(dates)


class SmartFifo(Module, FifoInterface):
    """A bounded FIFO aware of the local time of decoupled processes.

    Parameters
    ----------
    parent, name:
        Standard module hierarchy arguments.
    depth:
        Number of cells of the modelled hardware FIFO.
    enforce_side_ordering:
        When True (default) the FIFO checks that successive accesses on the
        same side carry non-decreasing dates, as required by Section III of
        the paper; violations raise :class:`TimingError`.  Designs where two
        processes share a side must insert a
        :class:`~repro.fifo.arbiter.WriteArbiter` /
        :class:`~repro.fifo.arbiter.ReadArbiter`.
    always_notify_external:
        When False (default) the delayed external notifications are only
        scheduled when a process actually listens to the corresponding
        event, which keeps the kernel's timed queue small.  Set to True to
        schedule them unconditionally (useful in unit tests).
    sync_on_access:
        When True every blocking access starts by synchronizing the caller,
        which turns this FIFO into the "regular FIFO plus sync() at each
        access" reference of Section II-B (one context switch per access,
        same timing).  The case-study benchmark uses this flag to build the
        slow-but-accurate flavour the paper compares the Smart FIFO against.
    """

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        depth: int = 16,
        enforce_side_ordering: bool = True,
        always_notify_external: bool = False,
        sync_on_access: bool = False,
    ):
        super().__init__(parent, name)
        self._cells = CellRing(depth)
        self._enforce_side_ordering = enforce_side_ordering
        self._always_notify_external = always_notify_external
        self.sync_on_access = sync_on_access
        # Hot-path caches: the scheduler and the local-time map never change
        # after construction and are consulted on every access.
        self._scheduler = self.sim.scheduler
        self._manager = get_local_time_manager(self.sim)

        # Internal events used to wake a blocked blocking access, and the
        # one wait descriptor of each that every blocked access yields.
        self._cell_filled = self.create_event("cell_filled")
        self._cell_freed = self.create_event("cell_freed")
        self._wait_cell_filled = WaitEvent(self._cell_filled)
        self._wait_cell_freed = WaitEvent(self._cell_freed)
        # External events of the non-blocking interface (delayed notifications).
        self._not_empty_event = self.create_event("not_empty")
        self._not_full_event = self.create_event("not_full")

        self._blocked_readers = 0
        self._blocked_writers = 0
        self._last_write_fs = NEVER
        self._last_read_fs = NEVER

        #: Number of items written / read since construction.
        self.total_written = 0
        self.total_read = 0
        #: Number of times a blocking access had to suspend the caller
        #: (i.e. context switches caused by this FIFO).
        self.blocking_waits = 0
        #: Burst-path routing counters: spans moved as one bulk cell
        #: transfer vs spans moved by the per-word fallback (shorter than
        #: MIN_SPAN_WORDS, or watched by an external observer; a
        #: non-blocking burst counts one op per call).  Deterministic (they
        #: count branch decisions of the burst fast path), but reported
        #: only on the telemetry sideband — never part of campaign rows.
        self.burst_span_writes = 0
        self.burst_word_writes = 0
        self.burst_span_reads = 0
        self.burst_word_reads = 0

        # Dependency recording (record-and-replay): picked up from the
        # simulator at construction time, None on the normal hot path.
        recorder = self.sim.dep_recorder
        if recorder is not None:
            self._dep = recorder
            self._dep_idx = recorder.register_fifo(
                self, kind="smart", depth=depth, sync_on_access=sync_on_access
            )
            if always_notify_external:
                # Replay drops external (delayed) notifications entirely,
                # which is only exact when they are never scheduled.
                recorder.poison(
                    f"always_notify_external Smart FIFO {self.full_name}"
                )
        else:
            self._dep = None
            self._dep_idx = -1

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _caller_date_fs(self) -> int:
        # Inlined LocalTimeManager.local_fs: the local date is cached on
        # the process object, so the caller's date is one attribute read.
        scheduler = self._scheduler
        process = scheduler.current_process
        now_fs = scheduler.now_fs
        if process is None:
            return now_fs
        local_fs = process.local_fs
        return local_fs if local_fs > now_fs else now_fs

    def _notify_external(self, event: Event, date_fs: int, forced: bool = False) -> None:
        """Schedule a delayed notification of ``event`` at ``date_fs``.

        The notification fires at the real (hardware) date of the FIFO state
        change, which may be in the future of the current global date when
        the access was performed by a decoupled process.

        As an optimisation over the paper's rules, data-path notifications
        (from the write/read methods) are skipped when no process observes
        the event.  Notifications triggered by an explicit state query
        (``is_empty``, ``is_full``, ``packet_available``, a refused
        non-blocking access) pass ``forced=True``: the querying process is
        about to wait on the event (it is not registered yet while its
        method body is still running), so the notification must always be
        scheduled.
        """
        if not forced and not self._always_notify_external and not event.listener_count:
            return
        delay_fs = date_fs - self._scheduler.now_fs
        event.notify_fs(delay_fs if delay_fs > 0 else 0)

    def _ordering_error(self, side: str, date_fs: int) -> None:
        """Raise the Section-III ordering violation error for ``side``."""
        last = self._last_write_fs if side == "write" else self._last_read_fs
        raise TimingError(
            f"Smart FIFO {self.full_name}: {side} accesses with decreasing "
            f"dates ({SimTime.from_femtoseconds(last)} then "
            f"{SimTime.from_femtoseconds(date_fs)}); each side must be "
            f"accessed by a single process or through an arbiter"
        )

    # ------------------------------------------------------------------
    # Monitor interface (Section III-C)
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return self._cells.depth

    def get_size(self):
        """Blocking size query: synchronize the caller, then count the cells
        that are *really* busy at the (now synchronized) caller's date."""
        dep = self._dep
        if dep is not None:
            # The head sync would otherwise be invisible to the spool (the
            # free ``sync`` helper does not record); the level itself is
            # what the replay engine re-derives and verifies.
            dep.sync_point(
                self._manager.local_fs(self._scheduler.current_process)
            )
        yield from sync(sim=self.sim)
        level = self._cells.real_size_at(self.sim.now_fs)
        if dep is not None:
            dep.get_size(self._dep_idx, level, self.sim.now_fs)
        return level

    def get_free_count(self):
        """Blocking free-slot query (``depth - get_size``)."""
        size = yield from self.get_size()
        return self._cells.depth - size

    def size_at(self, date: SimTime) -> int:
        """Real filling level at an arbitrary date (pure observation)."""
        return self._cells.real_size_at(date.femtoseconds)

    def peek_size(self) -> int:
        """Real filling level at the caller's local date, without syncing.

        Extension over the paper's monitor interface: usable from method
        processes (which cannot synchronize) and from decoupled threads that
        only need an estimate consistent with their own local date.
        """
        if self._dep is not None:
            self._dep.probe("peek_size", self._dep_idx)
        return self._cells.real_size_at(self._caller_date_fs())

    @property
    def internal_size(self) -> int:
        """Number of internally busy cells (not the real hardware size)."""
        return self._cells.busy_count

    # ------------------------------------------------------------------
    # Writer-side interface (Section III-A)
    # ------------------------------------------------------------------
    @property
    def not_full_event(self) -> Event:
        return self._not_full_event

    def is_full(self) -> bool:
        """External view of fullness at the caller's local date.

        True iff all cells are internally busy, or the first free cell will
        only be freed in the caller's future (the real FIFO still holds the
        previous item in that cell).  When the answer is True because of a
        future freeing date, the external ``not_full_event`` is (re)armed at
        that date so that the canonical method pattern
        ``if fifo.is_full(): next_trigger(fifo.not_full_event); return``
        cannot miss the wake-up.
        """
        if self._dep is not None:
            self._dep.probe("is_full", self._dep_idx)
        cells = self._cells
        if cells.busy_count == cells.depth:
            return True
        freeing_fs = cells.head_free_freeing_fs()
        if freeing_fs > self._caller_date_fs():
            self._notify_external(self._not_full_event, freeing_fs, forced=True)
            return True
        return False

    def write(self, data: Any):
        """Blocking write (``yield from fifo.write(x)``).

        Algorithm of Section III-A:

        1. while all cells are internally busy, synchronize the writer and
           wait until the reader frees a cell (this is the only case that
           costs context switches);
        2. if the freeing date of the first free cell is in the writer's
           future, raise the writer's local date up to it;
        3. fill the cell, record the insertion date, advance the free index;
        4. wake up a blocked reader, if any, and schedule the external
           ``not_empty`` notification when the FIFO was internally empty.
        """
        if self.sync_on_access:
            yield from sync(sim=self.sim)
        cells = self._cells
        depth = cells.depth
        while cells.busy_count == depth:
            self.blocking_waits += 1
            self._blocked_writers += 1
            try:
                yield from sync(sim=self.sim)
                if cells.busy_count == depth:
                    yield self._wait_cell_freed
            finally:
                self._blocked_writers -= 1
        self._do_write(self._scheduler.current_process, self._manager, data)
        if self._dep is not None:
            self._dep.word(OP_SMART_WRITE, self._dep_idx, self._last_write_fs)

    def wait_writable(self):
        """Block (sync + wait) until the FIFO is not *internally* full.

        Mirror of the blocking loop at the head of :meth:`write`, exposed so
        arbiters can wait for a free cell *before* granting the shared port:
        granting first and blocking afterwards would let a later-granted
        process slip its item in at a later date while the earlier-granted
        one is still asleep, breaking the per-side date ordering the arbiter
        exists to enforce.  (The loop is intentionally duplicated rather
        than shared with :meth:`write`: the write path is the hottest
        generator of the whole model and must not pay for an extra
        delegation frame.)
        """
        if self._dep is not None:
            self._dep.wait_cap(self._dep_idx, 0)
        cells = self._cells
        depth = cells.depth
        while cells.busy_count == depth:
            self.blocking_waits += 1
            self._blocked_writers += 1
            try:
                yield from sync(sim=self.sim)
                if cells.busy_count == depth:
                    yield self._wait_cell_freed
            finally:
                self._blocked_writers -= 1

    def nb_write(self, data: Any) -> bool:
        """Non-blocking write for method processes.

        Returns False without writing when the FIFO is externally full at
        the caller's date (guard with :meth:`is_full`).
        """
        if self._dep is not None:
            self._dep.probe("nb_write", self._dep_idx)
        cells = self._cells
        scheduler = self._scheduler
        process = scheduler.current_process
        now_fs = scheduler.now_fs
        if process is None:
            local_fs = now_fs
        else:
            local_fs = process.local_fs
            if local_fs < now_fs:
                local_fs = now_fs
        if cells.busy_count == cells.depth:
            return False
        freeing_fs = cells.head_free_freeing_fs()
        if freeing_fs > local_fs:
            # Externally full until the freeing date: arm the not_full event
            # so a method process retrying on it cannot miss the wake-up.
            self._notify_external(self._not_full_event, freeing_fs, forced=True)
            return False
        self._do_write(process, self._manager, data, local_fs)
        return True

    def _do_write(
        self,
        process: Optional[Process],
        manager: LocalTimeManager,
        data: Any,
        local_fs: int = -1,
    ) -> None:
        """Perform the write at the caller's date.

        ``local_fs`` may carry the caller's already-computed local date
        (guarded callers like :meth:`nb_write`); -1 means "compute it here".
        """
        cells = self._cells
        depth = cells.depth
        busy_count = cells.busy_count
        if busy_count == depth:
            raise FifoError("push on an internally full Smart FIFO")
        now_fs = self._scheduler.now_fs
        if local_fs < 0:
            if process is None:
                local_fs = now_fs
            else:
                local_fs = process.local_fs
                if local_fs < now_fs:
                    local_fs = now_fs
        # Fill the first free cell (the only per-word push of the ring).
        index = cells._first_free
        freeing_fs = cells._freeing[index]
        if freeing_fs > local_fs:
            if process is not None:
                local_fs = manager.advance_to(process, freeing_fs)
            else:
                local_fs = freeing_fs
        if self._enforce_side_ordering and local_fs < self._last_write_fs:
            self._ordering_error("write", local_fs)
        cells._data[index] = data
        cells._insertion[index] = local_fs
        index += 1
        if index == depth:
            index = 0
        cells._first_free = index
        cells.busy_count = busy_count + 1
        self._last_write_fs = local_fs
        self.total_written += 1
        # Wake a reader blocked inside a blocking read.
        if self._blocked_readers:
            self._cell_filled.notify_fs(0)
        # External not_empty notification, case 1 of Section III-B: all the
        # cells were free before this write.  The notification is delayed
        # until the insertion date of the new first busy cell.
        if busy_count == 0 and (
            self._always_notify_external or self._not_empty_event.listener_count
        ):
            self._notify_external(self._not_empty_event, local_fs)
        # Symmetric bookkeeping for not_full: after this push, if the FIFO is
        # not internally full but the next free cell will only be freed in
        # the future, the real FIFO is full until that date.
        if busy_count + 1 < depth and (
            self._always_notify_external or self._not_full_event.listener_count
        ):
            next_free_fs = cells._freeing[index]
            if next_free_fs > now_fs:
                self._notify_external(self._not_full_event, next_free_fs)

    # ------------------------------------------------------------------
    # Burst (span) transfers
    # ------------------------------------------------------------------
    @staticmethod
    def _span_gaps(gap_fs, count: int, side: str):
        """Normalize a burst gap spec to ``(constant_fs, per_word_list)``."""
        if isinstance(gap_fs, int):
            if gap_fs < 0:
                raise FifoError(f"{side}_burst gap_fs must be >= 0")
            return gap_fs, None
        gaps = list(gap_fs)
        if len(gaps) != count:
            raise FifoError(
                f"{side}_burst got {len(gaps)} per-word gaps for {count} words"
            )
        if any(gap < 0 for gap in gaps):
            raise FifoError(f"{side}_burst gaps must be >= 0")
        return 0, gaps

    def _notify_after_span_write(self, was_internally_empty: bool,
                                 first_date_fs: int) -> None:
        """External not_empty arming of one write span.

        Word mode only notifies when the first push of the span found the
        FIFO internally empty (case 1 of Section III-B); the later pushes
        of the same span cannot re-trigger it.  ``PacketSmartFifo``
        overrides this: it notifies after *every* insertion, and within
        one monotone-date span the earliest pending notification wins, so
        a single notify at the span's first date is bit-exact there too.
        """
        if was_internally_empty:
            self._notify_external(self._not_empty_event, first_date_fs)

    def write_burst(self, words: Sequence[Any], gap_fs=0,
                    dates_out: Optional[list] = None):
        """Blocking burst write: every word of ``words`` with ``gap_fs``
        femtoseconds of caller-local time after each word (``gap_fs`` may
        be one int or one int per word).

        Bit-exact with ``for w in words: yield from write(w)`` interleaved
        with per-word local-time advances: spans split at the internal
        blocking boundary exactly where the word loop would context
        switch, the ordering checks see the same dates, and the amortized
        notifications collapse to the same pending kernel state (the only
        intentionally different counter is ``KernelStats.event_notifications``,
        which is not part of the deterministic row).  When ``dates_out``
        is a list the per-word insertion dates (fs) are appended to it.
        """
        n = len(words)
        if n == 0:
            return
        gap_fs, gaps = self._span_gaps(gap_fs, n, "write")
        if self.sync_on_access:
            # Reference flavour: the word loop, one sync per access.
            manager = self._manager
            scheduler = self._scheduler
            dep = self._dep
            for index in range(n):
                yield from self.write(words[index])
                if dates_out is not None:
                    dates_out.append(self._last_write_fs)
                process = scheduler.current_process
                if process is not None:
                    gap = gap_fs if gaps is None else gaps[index]
                    manager.advance_fs(process, gap)
                    if dep is not None:
                        dep.inc(gap)
            return
        dep = self._dep
        if dep is not None and dates_out is None:
            dates_out = []
        dep_start = len(dates_out) if dep is not None else 0
        cells = self._cells
        depth = cells.depth
        scheduler = self._scheduler
        manager = self._manager
        written = 0
        while written < n:
            while cells.busy_count == depth:
                self.blocking_waits += 1
                self._blocked_writers += 1
                try:
                    yield from sync(sim=self.sim)
                    if cells.busy_count == depth:
                        yield self._wait_cell_freed
                finally:
                    self._blocked_writers -= 1
            # One span: every word the free cells take now.
            k = depth - cells.busy_count
            if k > n - written:
                k = n - written
            process = scheduler.current_process
            if (
                k < MIN_SPAN_WORDS
                or self._always_notify_external
                or self._not_full_event.listener_count
                or process is None
            ):
                # The word path: a short span costs more than its words,
                # and an external not_full observer could see the per-word
                # trailing arming.  It cannot block: k <= free cells.
                self.burst_word_writes += 1
                for index in range(written, written + k):
                    self._do_write(process, manager, words[index])
                    if dates_out is not None:
                        dates_out.append(self._last_write_fs)
                    if process is not None:
                        manager.advance_fs(
                            process, gap_fs if gaps is None else gaps[index]
                        )
            else:
                self._write_span(process, words, written, k, gap_fs, gaps,
                                 dates_out)
            written += k
        if dep is not None:
            dep.span(OP_SMART_WRITE, self._dep_idx, n, gap_fs, gaps,
                     dates_out[dep_start:])

    def _write_span(self, process: Process, words: Sequence[Any], start: int,
                    k: int, gap_fs: int, gaps: Optional[List[int]],
                    dates_out: Optional[list]) -> None:
        """Move ``words[start:start + k]`` as one bulk span.

        :meth:`write_burst` calls it for a span of at least
        :data:`MIN_SPAN_WORDS` words that fits the free cells, with no
        external ``not_full`` observer.  The dates are the span schedule
        (:func:`_span_schedule`) over the freeing dates of the target
        cells: the pure gap schedule when every target cell is already
        free at the caller's date, the word recurrence otherwise.
        """
        cells = self._cells
        now_fs = self._scheduler.now_fs
        local_fs = process.local_fs
        if local_fs < now_fs:
            local_fs = now_fs
        self.burst_span_writes += 1
        dates, final_fs = _span_schedule(
            cells.head_free_freeing_span(k), local_fs, gap_fs, gaps, start
        )
        if self._enforce_side_ordering and dates[0] < self._last_write_fs:
            # Dates are monotone, so only the span's first word can trip
            # the ordering check — exactly like the word loop would.
            self._ordering_error("write", dates[0])
        was_internally_empty = cells.busy_count == 0
        cells.push_span(words[start:start + k], dates)
        self._last_write_fs = dates[-1]
        self.total_written += k
        if dates_out is not None:
            dates_out.extend(dates)
        self._manager.advance_to(process, final_fs)
        if self._blocked_readers:
            self._cell_filled.notify_fs(0)
        self._notify_after_span_write(was_internally_empty, dates[0])

    def nb_write_burst(self, words: Sequence[Any]) -> int:
        """Non-blocking burst write: bit-exact with repeated
        :meth:`nb_write` (store a leading run, arm ``not_full`` at the
        head freeing date when refusing early)."""
        n = len(words)
        if n == 0:
            return 0
        if self._dep is not None:
            self._dep.probe("nb_write_burst", self._dep_idx)
        if self._always_notify_external or self._not_full_event.listener_count:
            self.burst_word_writes += 1
            return super().nb_write_burst(words)
        self.burst_span_writes += 1
        cells = self._cells
        scheduler = self._scheduler
        process = scheduler.current_process
        now_fs = scheduler.now_fs
        if process is None:
            local_fs = now_fs
        else:
            local_fs = process.local_fs
            if local_fs < now_fs:
                local_fs = now_fs
        free = cells.depth - cells.busy_count
        k = _leading_dated_by(
            cells.head_free_freeing_span(n if n < free else free), local_fs
        )
        if k:
            if self._enforce_side_ordering and local_fs < self._last_write_fs:
                self._ordering_error("write", local_fs)
            was_internally_empty = cells.busy_count == 0
            cells.push_span(words[:k] if k < n else words,
                            array("q", [local_fs]) * k)
            self._last_write_fs = local_fs
            self.total_written += k
            if self._blocked_readers:
                self._cell_filled.notify_fs(0)
            self._notify_after_span_write(was_internally_empty, local_fs)
        if k < n and cells.busy_count < cells.depth:
            # The first refused word-mode nb_write arms not_full at the
            # head freeing date so a retrying method cannot miss the wake.
            self._notify_external(
                self._not_full_event, cells.head_free_freeing_fs(), forced=True
            )
        return k

    # ------------------------------------------------------------------
    # Reader-side interface (Section III-A)
    # ------------------------------------------------------------------
    @property
    def not_empty_event(self) -> Event:
        return self._not_empty_event

    def is_empty(self) -> bool:
        """External view of emptiness at the caller's local date.

        True iff all cells are internally free, or the insertion date of the
        first busy cell is in the caller's future.  In the latter case the
        external ``not_empty_event`` is (re)armed at that insertion date.
        """
        if self._dep is not None:
            self._dep.probe("is_empty", self._dep_idx)
        cells = self._cells
        if cells.busy_count == 0:
            return True
        insertion_fs = cells.head_busy_insertion_fs()
        if insertion_fs > self._caller_date_fs():
            self._notify_external(
                self._not_empty_event, insertion_fs, forced=True
            )
            return True
        return False

    def read(self):
        """Blocking read (``x = yield from fifo.read()``).

        Symmetric to :meth:`write`: wait until a cell is internally busy,
        raise the reader's local date up to the insertion date of the first
        busy cell if needed, free the cell (recording the freeing date),
        notify the write side, and return the data.
        """
        if self.sync_on_access:
            yield from sync(sim=self.sim)
        cells = self._cells
        while cells.busy_count == 0:
            self.blocking_waits += 1
            self._blocked_readers += 1
            try:
                yield from sync(sim=self.sim)
                if cells.busy_count == 0:
                    yield self._wait_cell_filled
            finally:
                self._blocked_readers -= 1
        data = self._do_read(self._scheduler.current_process, self._manager)
        if self._dep is not None:
            self._dep.word(OP_SMART_READ, self._dep_idx, self._last_read_fs)
        return data

    def wait_readable(self):
        """Block (sync + wait) until the FIFO is not *internally* empty.

        Mirror of the blocking loop at the head of :meth:`read`; see
        :meth:`wait_writable` for why arbiters need it.
        """
        if self._dep is not None:
            self._dep.wait_cap(self._dep_idx, 1)
        cells = self._cells
        while cells.busy_count == 0:
            self.blocking_waits += 1
            self._blocked_readers += 1
            try:
                yield from sync(sim=self.sim)
                if cells.busy_count == 0:
                    yield self._wait_cell_filled
            finally:
                self._blocked_readers -= 1

    def nb_read(self):
        """Non-blocking read for method processes.

        Raises :class:`FifoError` when the FIFO is externally empty at the
        caller's date (guard with :meth:`is_empty`).
        """
        if self._dep is not None:
            self._dep.probe("nb_read", self._dep_idx)
        cells = self._cells
        scheduler = self._scheduler
        process = scheduler.current_process
        now_fs = scheduler.now_fs
        if process is None:
            local_fs = now_fs
        else:
            local_fs = process.local_fs
            if local_fs < now_fs:
                local_fs = now_fs
        if cells.busy_count:
            insertion_fs = cells.head_busy_insertion_fs()
            if insertion_fs <= local_fs:
                return self._do_read(process, self._manager, local_fs)
            # Arm the not_empty event at the date the item really arrives.
            self._notify_external(self._not_empty_event, insertion_fs, forced=True)
        raise FifoError(
            f"nb_read on externally empty Smart FIFO {self.full_name}"
        )

    def _do_read(
        self,
        process: Optional[Process],
        manager: LocalTimeManager,
        local_fs: int = -1,
    ):
        """Perform the read at the caller's date (see :meth:`_do_write`)."""
        cells = self._cells
        depth = cells.depth
        busy_count = cells.busy_count
        if busy_count == 0:
            raise FifoError("pop on an internally empty Smart FIFO")
        now_fs = self._scheduler.now_fs
        if local_fs < 0:
            if process is None:
                local_fs = now_fs
            else:
                local_fs = process.local_fs
                if local_fs < now_fs:
                    local_fs = now_fs
        # Free the first busy cell (the only per-word pop of the ring).
        index = cells._first_busy
        insertion_fs = cells._insertion[index]
        if insertion_fs > local_fs:
            if process is not None:
                local_fs = manager.advance_to(process, insertion_fs)
            else:
                local_fs = insertion_fs
        if self._enforce_side_ordering and local_fs < self._last_read_fs:
            self._ordering_error("read", local_fs)
        data = cells._data[index]
        cells._data[index] = None
        cells._freeing[index] = local_fs
        index += 1
        if index == depth:
            index = 0
        cells._first_busy = index
        cells.busy_count = busy_count - 1
        self._last_read_fs = local_fs
        self.total_read += 1
        # Wake a writer blocked inside a blocking write.
        if self._blocked_writers:
            self._cell_freed.notify_fs(0)
        # External not_full notification, case 1 (symmetric of Section III-B):
        # all the cells were busy before this read; the real FIFO stops being
        # full at the freeing date.
        if busy_count == depth and (
            self._always_notify_external or self._not_full_event.listener_count
        ):
            self._notify_external(self._not_full_event, local_fs)
        # External not_empty notification, case 2 of Section III-B: the next
        # busy cell exists but its insertion date is in the future; the real
        # FIFO becomes non-empty (again) only at that date.
        if busy_count > 1 and (
            self._always_notify_external or self._not_empty_event.listener_count
        ):
            next_insertion_fs = cells._insertion[index]
            if next_insertion_fs > now_fs:
                self._notify_external(self._not_empty_event, next_insertion_fs)
        return data

    def read_burst(self, count: int, gap_fs=0,
                   dates_out: Optional[list] = None):
        """Blocking burst read: ``count`` words with ``gap_fs`` femtoseconds
        of caller-local time after each word (one int or one int per
        word); returns the list of words.  Bit-exact with the word loop —
        see :meth:`write_burst` for the contract.  When ``dates_out`` is a
        list the per-word read dates (fs) are appended to it."""
        if count <= 0:
            return []
        gap_fs, gaps = self._span_gaps(gap_fs, count, "read")
        words: List[Any] = []
        if self.sync_on_access:
            # Reference flavour: the word loop, one sync per access.
            manager = self._manager
            scheduler = self._scheduler
            dep = self._dep
            for index in range(count):
                word = yield from self.read()
                words.append(word)
                if dates_out is not None:
                    dates_out.append(self._last_read_fs)
                process = scheduler.current_process
                if process is not None:
                    gap = gap_fs if gaps is None else gaps[index]
                    manager.advance_fs(process, gap)
                    if dep is not None:
                        dep.inc(gap)
            return words
        dep = self._dep
        if dep is not None and dates_out is None:
            dates_out = []
        dep_start = len(dates_out) if dep is not None else 0
        cells = self._cells
        scheduler = self._scheduler
        manager = self._manager
        while len(words) < count:
            while cells.busy_count == 0:
                self.blocking_waits += 1
                self._blocked_readers += 1
                try:
                    yield from sync(sim=self.sim)
                    if cells.busy_count == 0:
                        yield self._wait_cell_filled
                finally:
                    self._blocked_readers -= 1
            # One span: every word the busy cells hold now.
            taken = len(words)
            k = cells.busy_count
            if k > count - taken:
                k = count - taken
            process = scheduler.current_process
            if (
                k < MIN_SPAN_WORDS
                or self._always_notify_external
                or self._not_empty_event.listener_count
                or process is None
            ):
                # The word path, for the reasons given in write_burst.
                self.burst_word_reads += 1
                for index in range(taken, taken + k):
                    words.append(self._do_read(process, manager))
                    if dates_out is not None:
                        dates_out.append(self._last_read_fs)
                    if process is not None:
                        manager.advance_fs(
                            process, gap_fs if gaps is None else gaps[index]
                        )
            else:
                self._read_span(process, words, k, gap_fs, gaps, dates_out)
        if dep is not None:
            dep.span(OP_SMART_READ, self._dep_idx, count, gap_fs, gaps,
                     dates_out[dep_start:])
        return words

    def _read_span(self, process: Process, words: List[Any], k: int,
                   gap_fs: int, gaps: Optional[List[int]],
                   dates_out: Optional[list]) -> None:
        """Drain the next ``k`` words into ``words`` as one bulk span.

        Symmetric twin of :meth:`_write_span`, called by
        :meth:`read_burst` under the same conditions: the span schedule
        (:func:`_span_schedule`) over the insertion dates of the head
        cells, then one ``pop_span``."""
        cells = self._cells
        taken = len(words)
        now_fs = self._scheduler.now_fs
        local_fs = process.local_fs
        if local_fs < now_fs:
            local_fs = now_fs
        self.burst_span_reads += 1
        dates, final_fs = _span_schedule(
            cells.head_busy_insertion_span(k), local_fs, gap_fs, gaps, taken
        )
        if self._enforce_side_ordering and dates[0] < self._last_read_fs:
            # Dates are monotone, so only the span's first word can trip
            # the ordering check — exactly like the word loop would.
            self._ordering_error("read", dates[0])
        was_internally_full = cells.busy_count == cells.depth
        words.extend(cells.pop_span(k, dates))
        self._last_read_fs = dates[-1]
        self.total_read += k
        if dates_out is not None:
            dates_out.extend(dates)
        self._manager.advance_to(process, final_fs)
        if self._blocked_writers:
            self._cell_freed.notify_fs(0)
        if was_internally_full:
            self._notify_external(self._not_full_event, dates[0])

    def nb_read_burst(self, count: int) -> List[Any]:
        """Non-blocking burst read: bit-exact with the ``is_empty``-guarded
        repeated :meth:`nb_read` loop (drain a leading run, arm
        ``not_empty`` at the head insertion date when stopping early)."""
        if count <= 0:
            return []
        if self._dep is not None:
            self._dep.probe("nb_read_burst", self._dep_idx)
        if self._always_notify_external or self._not_empty_event.listener_count:
            self.burst_word_reads += 1
            return super().nb_read_burst(count)
        self.burst_span_reads += 1
        cells = self._cells
        scheduler = self._scheduler
        process = scheduler.current_process
        now_fs = scheduler.now_fs
        if process is None:
            local_fs = now_fs
        else:
            local_fs = process.local_fs
            if local_fs < now_fs:
                local_fs = now_fs
        busy = cells.busy_count
        k = _leading_dated_by(
            cells.head_busy_insertion_span(count if count < busy else busy),
            local_fs,
        )
        words: List[Any] = []
        if k:
            if self._enforce_side_ordering and local_fs < self._last_read_fs:
                self._ordering_error("read", local_fs)
            was_internally_full = cells.busy_count == cells.depth
            words = cells.pop_span(k, array("q", [local_fs]) * k)
            self._last_read_fs = local_fs
            self.total_read += k
            if self._blocked_writers:
                self._cell_freed.notify_fs(0)
            if was_internally_full:
                self._notify_external(self._not_full_event, local_fs)
        if k < count and cells.busy_count:
            # The word loop's refusing is_empty arms not_empty at the head
            # insertion date; replicate it when stopping early.
            self._notify_external(
                self._not_empty_event, cells.head_busy_insertion_fs(),
                forced=True,
            )
        return words

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SmartFifo({self.full_name!r}, depth={self.depth}, "
            f"internal_size={self.internal_size})"
        )
