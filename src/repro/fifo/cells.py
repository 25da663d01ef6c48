"""Timestamped cell ring of the Smart FIFO.

Section III-A of the paper: *"Internally, the Smart FIFO contains as many
cells as the hardware FIFO it models.  Each cell is either free or busy,
and in addition to the data, we store both the last data insertion date and
the last freeing date for each cell.  One index points to the first free
cell and another to the first busy cell."*

:class:`CellRing` implements exactly that structure plus the interpretation
rules of the monitor interface (Section III-C), which need both dates to
decide whether a cell is *really* busy at a given observation date.

Storage layout (hot-path note): the per-cell timestamps live in two
preallocated ``array('q')`` buffers and the busy flags in a ``bytearray``,
indexed by the cached head/tail positions — no per-cell Python object is
touched on the push/pop path.  The ring moves words in bulk spans
(:meth:`CellRing.push_span` / :meth:`CellRing.pop_span`); the per-word
fill and free is the Smart FIFO's word path
(``SmartFifo._do_write`` / ``_do_read``), which writes these buffers and
the head/tail positions in place.  The object-style views (:meth:`cells`,
:meth:`first_busy_cell`, ...) materialise lightweight :class:`CellView`
proxies over that storage and are meant for the (low-rate) monitor
interface and the tests; :class:`Cell` remains available as a standalone
value type for direct experimentation with the Section III-C rules.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterator, List, Optional

from ..kernel.errors import FifoError

#: Sentinel date meaning "never happened" (before any simulated date).
NEVER = -1


def _really_busy(busy: int, insertion_fs: int, freeing_fs: int, date_fs: int) -> bool:
    """The occupancy-interpretation rules of Section III-C.

    * an internally **busy** cell is really busy if the insertion date is
      in the past, or if the previous freeing date is in the future
      (internally the cell has been freed and filled again since the
      observation date, so at the observation date it still held the
      previous item);
    * an internally **free** cell is really busy if the freeing date is
      in the future and the previous insertion date is in the past (the
      item it held at the observation date had not yet left).
    """
    if busy:
        return insertion_fs <= date_fs or freeing_fs > date_fs
    return freeing_fs > date_fs and insertion_fs <= date_fs


class Cell:
    """One hardware FIFO slot with its timestamp history (value type)."""

    __slots__ = ("data", "busy", "insertion_fs", "freeing_fs")

    def __init__(
        self,
        data: Any = None,
        busy: bool = False,
        insertion_fs: int = NEVER,
        freeing_fs: int = NEVER,
    ):
        self.data = data
        self.busy = busy
        #: Local date of the last data insertion into this cell (NEVER if none).
        self.insertion_fs = insertion_fs
        #: Local date of the last freeing (read) of this cell (NEVER if none).
        self.freeing_fs = freeing_fs

    def really_busy_at(self, date_fs: int) -> bool:
        """Is this cell occupied in the *real* FIFO at ``date_fs``?"""
        return _really_busy(self.busy, self.insertion_fs, self.freeing_fs, date_fs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cell(data={self.data!r}, busy={self.busy}, "
            f"insertion_fs={self.insertion_fs}, freeing_fs={self.freeing_fs})"
        )


class CellView:
    """Live, read-only view of one slot of a :class:`CellRing`.

    Unlike :class:`Cell` this proxies the ring's flat storage, so it keeps
    reflecting later word-level pushes/pops of the same slot.  Span
    transfers (:meth:`CellRing.push_span` / :meth:`CellRing.pop_span`)
    rewrite many slots in one bulk copy; a view held across one would
    silently show recycled-cell data, so every accessor raises
    :class:`FifoError` once the ring's mutation counter has moved past the
    value captured at view construction.
    """

    __slots__ = ("_ring", "_index", "_mark")

    def __init__(self, ring: "CellRing", index: int):
        self._ring = ring
        self._index = index
        self._mark = ring.mutations

    def _check_fresh(self) -> None:
        if self._ring.mutations != self._mark:
            raise FifoError(
                f"stale CellView of slot #{self._index}: the ring performed "
                f"{self._ring.mutations - self._mark} span transfer(s) since "
                "this view was taken — re-fetch the view instead of holding "
                "it across push_span/pop_span"
            )

    @property
    def data(self) -> Any:
        self._check_fresh()
        return self._ring._data[self._index]

    @property
    def busy(self) -> bool:
        self._check_fresh()
        return bool(self._ring._busy[self._index])

    @property
    def insertion_fs(self) -> int:
        self._check_fresh()
        return self._ring._insertion[self._index]

    @property
    def freeing_fs(self) -> int:
        self._check_fresh()
        return self._ring._freeing[self._index]

    def really_busy_at(self, date_fs: int) -> bool:
        self._check_fresh()
        ring, index = self._ring, self._index
        return _really_busy(
            ring._busy[index],
            ring._insertion[index],
            ring._freeing[index],
            date_fs,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CellView(#{self._index}, data={self.data!r}, busy={self.busy}, "
            f"insertion_fs={self.insertion_fs}, freeing_fs={self.freeing_fs})"
        )


class CellRing:
    """The bounded ring of timestamped cells (flat-buffer storage)."""

    __slots__ = (
        "depth",
        "busy_count",
        "mutations",
        "span_words",
        "_data",
        "_busy",
        "_insertion",
        "_freeing",
        "_first_free",
        "_first_busy",
    )

    def __init__(self, depth: int):
        if depth <= 0:
            raise FifoError(f"Smart FIFO depth must be positive, got {depth}")
        #: Number of cells (immutable after construction).
        self.depth = depth
        #: Number of internally busy cells (not the real FIFO size).
        self.busy_count = 0
        #: Monotonic counter bumped by every span transfer; CellViews use it
        #: to detect that the slots under them were bulk-rewritten.
        self.mutations = 0
        #: Words moved by span transfers (push_span + pop_span) — the
        #: numerator of the span-vs-word hit rate on the telemetry
        #: sideband (``total_written + total_read`` is the denominator).
        self.span_words = 0
        self._data: List[Any] = [None] * depth
        self._busy = bytearray(depth)
        self._insertion = array("q", [NEVER]) * depth
        self._freeing = array("q", [NEVER]) * depth
        self._first_free = 0
        self._first_busy = 0

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    def head_free_freeing_fs(self) -> int:
        """Freeing date of the cell the next push will fill.

        Callers must have checked that the ring is not internally full.
        """
        return self._freeing[self._first_free]

    def head_busy_insertion_fs(self) -> int:
        """Insertion date of the cell the next pop will free.

        Callers must have checked that the ring is not internally empty.
        """
        return self._insertion[self._first_busy]

    def first_busy_cell(self) -> Optional[CellView]:
        """The cell the next read will empty, or None when internally empty."""
        if self.busy_count == 0:
            return None
        return CellView(self, self._first_busy)

    def cells(self) -> Iterator[CellView]:
        """Iterate over all cells (monitor interface)."""
        for index in range(self.depth):
            yield CellView(self, index)

    # ------------------------------------------------------------------
    # Mutations (span transfers of the burst path)
    # ------------------------------------------------------------------
    def push_span(self, items, insertion_dates: array) -> None:
        """Fill the first ``len(items)`` free cells in one bulk copy.

        ``insertion_dates`` must be an ``array('q')`` of the same length as
        ``items``; entry *i* becomes the insertion date of the cell holding
        ``items[i]``.  The caller is responsible for the date recurrence and
        the worst-case-date guard (:meth:`head_free_ready_fs`) — this method
        only moves storage: at most two wraparound slice assignments per
        buffer instead of ``k`` word pushes.
        """
        count = len(items)
        if count == 0:
            return
        if count > self.depth - self.busy_count:
            raise FifoError(
                f"push_span of {count} words overruns the "
                f"{self.depth - self.busy_count} free cells"
            )
        self.mutations += 1
        self.span_words += count
        depth = self.depth
        start = self._first_free
        first = min(count, depth - start)
        end = start + first
        self._data[start:end] = items[:first]
        self._busy[start:end] = b"\x01" * first
        self._insertion[start:end] = insertion_dates[:first]
        rest = count - first
        if rest:
            self._data[0:rest] = items[first:]
            self._busy[0:rest] = b"\x01" * rest
            self._insertion[0:rest] = insertion_dates[first:]
        self._first_free = (start + count) % depth
        self.busy_count += count

    def pop_span(self, count: int, freeing_dates: array) -> List[Any]:
        """Free the first ``count`` busy cells in one bulk copy.

        ``freeing_dates`` must be an ``array('q')`` of length ``count``;
        entry *i* becomes the freeing date of the *i*-th popped cell.
        Returns the popped data in pop order.  Symmetric storage-only twin
        of :meth:`push_span` (guard: :meth:`head_busy_completion_fs`).
        """
        if count == 0:
            return []
        if count > self.busy_count:
            raise FifoError(
                f"pop_span of {count} words overruns the "
                f"{self.busy_count} busy cells"
            )
        self.mutations += 1
        self.span_words += count
        depth = self.depth
        start = self._first_busy
        first = min(count, depth - start)
        end = start + first
        data = self._data[start:end]
        self._data[start:end] = [None] * first
        self._busy[start:end] = b"\x00" * first
        self._freeing[start:end] = freeing_dates[:first]
        rest = count - first
        if rest:
            data.extend(self._data[0:rest])
            self._data[0:rest] = [None] * rest
            self._busy[0:rest] = b"\x00" * rest
            self._freeing[0:rest] = freeing_dates[first:]
        self._first_busy = (start + count) % depth
        self.busy_count -= count
        return data

    def head_busy_insertion_span(self, count: int) -> array:
        """Insertion dates of the first ``count`` busy cells in pop order.

        At most two slice copies; callers must have checked ``count``
        against :attr:`busy_count`.  The returned ``array('q')`` is a
        fresh copy the caller may overwrite in place (the burst read path
        turns it into the per-word freeing dates of the span).
        """
        insertion = self._insertion
        start = self._first_busy
        first = count if count <= self.depth - start else self.depth - start
        dates = insertion[start:start + first]
        if count > first:
            dates.extend(insertion[:count - first])
        return dates

    def head_free_freeing_span(self, count: int) -> array:
        """Freeing dates of the first ``count`` free cells in push order.

        Symmetric twin of :meth:`head_busy_insertion_span` for the burst
        write path (callers must have checked ``count`` against the free
        cell count)."""
        freeing = self._freeing
        start = self._first_free
        first = count if count <= self.depth - start else self.depth - start
        dates = freeing[start:start + first]
        if count > first:
            dates.extend(freeing[:count - first])
        return dates

    def head_free_span(self, limit: int, date_fs: int) -> int:
        """Number of leading free cells (push order, capped at ``limit``)
        really freed by ``date_fs`` — the size of the span a non-blocking
        burst write can move at that date."""
        free = self.depth - self.busy_count
        if limit > free:
            limit = free
        busy = self._busy
        freeing = self._freeing
        index = self._first_free
        count = 0
        while count < limit and not busy[index] and freeing[index] <= date_fs:
            count += 1
            index = (index + 1) % self.depth
        return count

    def head_busy_span(self, limit: int, date_fs: int) -> int:
        """Number of leading busy cells (pop order, capped at ``limit``)
        whose item is really present by ``date_fs`` — the size of the span
        a non-blocking burst read can move at that date."""
        if limit > self.busy_count:
            limit = self.busy_count
        busy = self._busy
        insertion = self._insertion
        index = self._first_busy
        count = 0
        while count < limit and busy[index] and insertion[index] <= date_fs:
            count += 1
            index = (index + 1) % self.depth
        return count

    # ------------------------------------------------------------------
    # Monitor interpretation
    # ------------------------------------------------------------------
    def real_size_at(self, date_fs: int) -> int:
        """Number of items the modelled hardware FIFO holds at ``date_fs``."""
        busy = self._busy
        insertion = self._insertion
        freeing = self._freeing
        count = 0
        for index in range(self.depth):
            if busy[index]:
                if insertion[index] <= date_fs or freeing[index] > date_fs:
                    count += 1
            elif freeing[index] > date_fs and insertion[index] <= date_fs:
                count += 1
        return count

    def count_busy_inserted_by(self, date_fs: int) -> int:
        """Busy cells whose item is already present at ``date_fs``."""
        busy = self._busy
        insertion = self._insertion
        count = 0
        for index in range(self.depth):
            if busy[index] and insertion[index] <= date_fs:
                count += 1
        return count

    def head_busy_inserted_by(self, count: int, date_fs: int) -> bool:
        """True when the first ``count`` busy cells *in pop order* all hold
        items inserted by ``date_fs``.

        This is the atomicity guard of packet-granularity reads: without
        side ordering, :meth:`count_busy_inserted_by` can be satisfied by
        non-head cells while a head cell still carries a future date, and a
        word-by-word drain would raise after consuming part of the packet.
        """
        if count > self.busy_count:
            return False
        busy = self._busy
        insertion = self._insertion
        index = self._first_busy
        for _ in range(count):
            if not busy[index] or insertion[index] > date_fs:
                return False
            index = (index + 1) % self.depth
        return True

    def head_free_freed_by(self, count: int, date_fs: int) -> bool:
        """True when the first ``count`` free cells *in push order* are all
        really available (freed) by ``date_fs`` — the symmetric guard of
        packet-granularity writes."""
        if count > self.depth - self.busy_count:
            return False
        busy = self._busy
        freeing = self._freeing
        index = self._first_free
        for _ in range(count):
            if busy[index] or freeing[index] > date_fs:
                return False
            index = (index + 1) % self.depth
        return True

    def head_busy_completion_fs(self, count: int) -> int:
        """Latest insertion date among the first ``count`` busy cells (pop
        order), or ``NEVER`` when fewer than ``count`` cells are busy — the
        date at which a ``count``-word packet at the head becomes fully
        externally available."""
        if count > self.busy_count:
            return NEVER
        insertion = self._insertion
        index = self._first_busy
        latest = NEVER
        for _ in range(count):
            if insertion[index] > latest:
                latest = insertion[index]
            index = (index + 1) % self.depth
        return latest

    def head_free_ready_fs(self, count: int) -> int:
        """Latest freeing date among the first ``count`` free cells (push
        order), or ``NEVER`` when fewer than ``count`` cells are free — the
        date at which room for a ``count``-word packet at the head becomes
        really available."""
        if count > self.depth - self.busy_count:
            return NEVER
        freeing = self._freeing
        index = self._first_free
        latest = NEVER
        for _ in range(count):
            if freeing[index] > latest:
                latest = freeing[index]
            index = (index + 1) % self.depth
        return latest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CellRing(depth={self.depth}, busy={self.busy_count}, "
            f"head={self._first_busy}, tail={self._first_free})"
        )
