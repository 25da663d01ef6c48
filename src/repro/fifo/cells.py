"""Timestamped cell ring of the Smart FIFO.

Section III-A of the paper: *"Internally, the Smart FIFO contains as many
cells as the hardware FIFO it models.  Each cell is either free or busy,
and in addition to the data, we store both the last data insertion date and
the last freeing date for each cell.  One index points to the first free
cell and another to the first busy cell."*

:class:`CellRing` holds exactly that state.  A cell's free/busy state is
not stored a second time: the busy cells are the ``busy_count`` cells from
the first busy index on, in ring order, and the others are free.
:meth:`CellRing.real_size_at` states the interpretation rules of the
monitor interface (Section III-C), which need both dates to decide whether
a cell is *really* busy at a given observation date.

Storage layout (hot-path note): the per-cell timestamps live in two
preallocated ``array('q')`` buffers, indexed by the head/tail positions —
no per-cell Python object is touched on the push/pop path.  The per-word
fill and free is the Smart FIFO's word path (``SmartFifo._do_write`` /
``_do_read``), which writes these buffers and the head/tail positions in
place.  The burst path moves words in bulk spans (:meth:`CellRing.push_span`
/ :meth:`CellRing.pop_span`), and every question about the dates of the
cells at the head — the span guards, the packet guards, the non-blocking
bursts — reads one slice of them (:meth:`CellRing.head_free_freeing_span`
/ :meth:`CellRing.head_busy_insertion_span`).
"""

from __future__ import annotations

from array import array
from typing import Any, List

from ..kernel.errors import FifoError

#: Sentinel date meaning "never happened" (before any simulated date).
NEVER = -1


def _ring_slice(buffer: array, start: int, count: int) -> array:
    """``count`` entries of ``buffer`` from ``start`` on in ring order,
    wrapping round the buffer end: at most two slice copies."""
    end = start + count
    if end <= len(buffer):
        return buffer[start:end]
    return buffer[start:] + buffer[:end - len(buffer)]


class CellRing:
    """The bounded ring of timestamped cells (flat-buffer storage)."""

    __slots__ = (
        "depth",
        "busy_count",
        "mutations",
        "span_words",
        "_data",
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
        #: Span transfers (push_span + pop_span) performed — the
        #: ``fifo.cell_mutations`` counter of the telemetry sideband.
        self.mutations = 0
        #: Words moved by span transfers (push_span + pop_span) — the
        #: numerator of the span-vs-word hit rate on the telemetry
        #: sideband (``total_written + total_read`` is the denominator).
        self.span_words = 0
        self._data: List[Any] = [None] * depth
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

    def head_free_freeing_span(self, count: int) -> array:
        """Freeing dates of the first ``count`` free cells in push order.

        Callers must have checked ``count`` against the free cell count.
        The returned ``array('q')`` is a fresh copy the caller may
        overwrite in place: its ``max`` is the date at which room for
        ``count`` words is really available, and the burst write path
        turns it into the per-word insertion dates of the span.
        """
        return _ring_slice(self._freeing, self._first_free, count)

    def head_busy_insertion_span(self, count: int) -> array:
        """Insertion dates of the first ``count`` busy cells in pop order.

        Symmetric twin of :meth:`head_free_freeing_span` (callers must
        have checked ``count`` against :attr:`busy_count`): its ``max`` is
        the date at which ``count`` words at the head are all externally
        available, and the burst read path turns it into the per-word
        freeing dates of the span.
        """
        return _ring_slice(self._insertion, self._first_busy, count)

    # ------------------------------------------------------------------
    # Mutations (span transfers of the burst path)
    # ------------------------------------------------------------------
    def push_span(self, items, insertion_dates: array) -> None:
        """Fill the first ``len(items)`` free cells in one bulk copy.

        ``insertion_dates`` must be an ``array('q')`` of the same length as
        ``items``; entry *i* becomes the insertion date of the cell holding
        ``items[i]``.  The caller is responsible for the dates (the span
        schedule over :meth:`head_free_freeing_span`) — this method only
        moves storage: at most two wraparound slice assignments per buffer
        instead of ``k`` word pushes.
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
        self._insertion[start:end] = insertion_dates[:first]
        rest = count - first
        if rest:
            self._data[0:rest] = items[first:]
            self._insertion[0:rest] = insertion_dates[first:]
        self._first_free = (start + count) % depth
        self.busy_count += count

    def pop_span(self, count: int, freeing_dates: array) -> List[Any]:
        """Free the first ``count`` busy cells in one bulk copy.

        ``freeing_dates`` must be an ``array('q')`` of length ``count``;
        entry *i* becomes the freeing date of the *i*-th popped cell.
        Returns the popped data in pop order.  Symmetric storage-only twin
        of :meth:`push_span` (dates: the span schedule over
        :meth:`head_busy_insertion_span`).
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
        self._freeing[start:end] = freeing_dates[:first]
        rest = count - first
        if rest:
            data.extend(self._data[0:rest])
            self._data[0:rest] = [None] * rest
            self._freeing[0:rest] = freeing_dates[first:]
        self._first_busy = (start + count) % depth
        self.busy_count -= count
        return data

    # ------------------------------------------------------------------
    # Monitor interpretation
    # ------------------------------------------------------------------
    def real_size_at(self, date_fs: int) -> int:
        """Number of items the modelled hardware FIFO holds at ``date_fs``.

        The occupancy-interpretation rules of Section III-C:

        * an internally **busy** cell is really busy if the insertion date
          is in the past, or if the previous freeing date is in the future
          (internally the cell has been freed and filled again since the
          observation date, so at the observation date it still held the
          previous item);
        * an internally **free** cell is really busy if the freeing date is
          in the future and the previous insertion date is in the past (the
          item it held at the observation date had not yet left).
        """
        busy = self.busy_count
        free = self.depth - busy
        insertion, freeing = self._insertion, self._freeing
        start, first_free = self._first_busy, self._first_free
        count = 0
        for insertion_fs, freeing_fs in zip(
            _ring_slice(insertion, start, busy),
            _ring_slice(freeing, start, busy),
        ):
            if insertion_fs <= date_fs or freeing_fs > date_fs:
                count += 1
        for insertion_fs, freeing_fs in zip(
            _ring_slice(insertion, first_free, free),
            _ring_slice(freeing, first_free, free),
        ):
            if freeing_fs > date_fs and insertion_fs <= date_fs:
                count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CellRing(depth={self.depth}, busy={self.busy_count}, "
            f"head={self._first_busy}, tail={self._first_free})"
        )
