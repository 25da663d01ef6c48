"""Property-based oracle for the Smart FIFO's cell ring (hypothesis).

:class:`~repro.fifo.cells.CellRing` stores no free/busy flag: the busy
cells are the ``busy_count`` cells from the first busy index on.  These
properties drive a Smart FIFO's ring through both of its mutation paths —
the word path (``SmartFifo._do_write`` / ``_do_read`` at explicit dates,
non-decreasing per side) and the span path (``push_span`` / ``pop_span``)
— and compare it after every step with a naive per-cell model that keeps
its own busy flag per cell and states the Section III-C rules again, cell
by cell:

* the number of internally busy cells;
* the freeing dates of the free cells in push order and the insertion
  dates of the busy cells in pop order (the two head slices);
* the real FIFO size at every date where it can change, and next to it.
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fifo import SmartFifo
from repro.fifo.cells import NEVER
from repro.kernel import Simulator


class NaiveRing:
    """One record per cell: its own busy flag, its two dates, its data."""

    def __init__(self, depth):
        self.depth = depth
        self.busy = [False] * depth
        self.insertion = [NEVER] * depth
        self.freeing = [NEVER] * depth
        self.data = [None] * depth
        self.next_push = 0
        self.next_pop = 0

    def busy_count(self):
        return sum(self.busy)

    def push(self, data, date_fs):
        index = self.next_push
        assert not self.busy[index]
        self.busy[index] = True
        self.insertion[index] = date_fs
        self.data[index] = data
        self.next_push = (index + 1) % self.depth

    def pop(self, date_fs):
        index = self.next_pop
        assert self.busy[index]
        self.busy[index] = False
        self.freeing[index] = date_fs
        data, self.data[index] = self.data[index], None
        self.next_pop = (index + 1) % self.depth
        return data

    def _walk(self, start, busy):
        """Indices of the consecutive cells from ``start`` whose flag is
        ``busy``, in ring order."""
        indices = []
        index = start
        while len(indices) < self.depth and self.busy[index] == busy:
            indices.append(index)
            index = (index + 1) % self.depth
        return indices

    def free_freeing_dates(self):
        return [self.freeing[i] for i in self._walk(self.next_push, False)]

    def busy_insertion_dates(self):
        return [self.insertion[i] for i in self._walk(self.next_pop, True)]

    def really_busy(self, index, date_fs):
        inserted = self.insertion[index] <= date_fs
        freed_later = self.freeing[index] > date_fs
        if self.busy[index]:
            # Busy: the item is there, or the previous one has not left.
            return inserted or freed_later
        # Free: the item it held had not yet left.
        return freed_later and inserted

    def real_size_at(self, date_fs):
        return sum(self.really_busy(i, date_fs) for i in range(self.depth))

    def sample_dates(self):
        """Every date where the real size can change, and its neighbours."""
        dates = {0}
        for date_fs in self.insertion + self.freeing:
            if date_fs >= 0:
                dates.update((max(date_fs - 1, 0), date_fs, date_fs + 1))
        return sorted(dates)


def _assert_same(ring, model):
    assert ring.busy_count == model.busy_count()
    free = ring.depth - ring.busy_count
    assert list(ring.head_free_freeing_span(free)) == model.free_freeing_dates()
    assert (
        list(ring.head_busy_insertion_span(ring.busy_count))
        == model.busy_insertion_dates()
    )
    for date_fs in model.sample_dates():
        assert ring.real_size_at(date_fs) == model.real_size_at(date_fs), date_fs


operations = st.lists(
    st.tuples(
        st.sampled_from(["word_write", "word_read", "span_write", "span_read"]),
        st.integers(min_value=1, max_value=8),  # words
        st.lists(st.integers(min_value=0, max_value=20), min_size=8, max_size=8),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=7), operations)
def test_ring_matches_a_per_cell_model_on_word_and_span_paths(depth, ops):
    fifo = SmartFifo(Simulator("ring"), "fifo", depth=depth)
    ring = fifo._cells
    model = NaiveRing(depth)
    write_fs = read_fs = 0
    item = 0
    _assert_same(ring, model)
    for kind, words, gaps in ops:
        if kind.endswith("write"):
            count = min(words, depth - model.busy_count())
        else:
            count = min(words, model.busy_count())
        if count == 0:
            continue
        # Each word of the step is requested a gap after the previous access
        # of its side and lands no earlier than its cell's date: the word
        # path raises the caller to that date, and the span path gets the
        # dates the burst path's recurrence gives it.
        if kind.endswith("write"):
            cell_dates = model.free_freeing_dates()[:count]
        else:
            cell_dates = model.busy_insertion_dates()[:count]
        side_fs = write_fs if kind.endswith("write") else read_fs
        requested, dates = [], []
        for gap, cell_fs in zip(gaps, cell_dates):
            requested.append(side_fs + gap)
            side_fs = max(side_fs + gap, cell_fs)
            dates.append(side_fs)
        if kind == "word_write":
            for request_fs, date_fs in zip(requested, dates):
                fifo._do_write(None, fifo._manager, item, request_fs)
                assert fifo._last_write_fs == date_fs
                model.push(item, date_fs)
                item += 1
        elif kind == "span_write":
            items = list(range(item, item + count))
            ring.push_span(items, array("q", dates))
            for data, date_fs in zip(items, dates):
                model.push(data, date_fs)
            item += count
        elif kind == "word_read":
            for request_fs, date_fs in zip(requested, dates):
                data = fifo._do_read(None, fifo._manager, request_fs)
                assert fifo._last_read_fs == date_fs
                assert data == model.pop(date_fs)
        else:
            popped = ring.pop_span(count, array("q", dates))
            assert popped == [model.pop(date_fs) for date_fs in dates]
        if kind.endswith("write"):
            write_fs = side_fs
        else:
            read_fs = side_fs
        _assert_same(ring, model)

