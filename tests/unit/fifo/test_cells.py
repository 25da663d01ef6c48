"""Unit tests for the timestamped cell ring (Section III internals)."""

from array import array

import pytest

from repro.fifo import SmartFifo
from repro.fifo.cells import CellRing, NEVER
from repro.kernel import FifoError, Simulator
from repro.kernel.simtime import ns


def fs(nanoseconds):
    return ns(nanoseconds).femtoseconds


class WordRing:
    """A ring filled and drained one word at a time at explicit dates.

    The per-word push and pop of the ring are the Smart FIFO's word path
    (``SmartFifo._do_write`` / ``_do_read``), so these tests drive that
    path, outside any process, on the FIFO's own ring.
    """

    def __init__(self, depth):
        self.fifo = SmartFifo(Simulator("cells"), "fifo", depth=depth)
        self.ring = self.fifo._cells

    def push(self, data, insertion_fs):
        self.fifo._do_write(None, self.fifo._manager, data, insertion_fs)

    def pop(self, freeing_fs):
        return self.fifo._do_read(None, self.fifo._manager, freeing_fs)


class TestRingMechanics:
    def test_depth_validation(self):
        with pytest.raises(FifoError):
            CellRing(0)

    def test_push_pop_order_and_wraparound(self):
        word = WordRing(2)
        ring = word.ring
        word.push("a", fs(1))
        word.push("b", fs(2))
        assert ring.busy_count == ring.depth
        assert word.pop(fs(3)) == "a"
        word.push("c", fs(4))
        assert word.pop(fs(5)) == "b"
        assert word.pop(fs(6)) == "c"
        assert ring.busy_count == 0

    def test_push_full_raises(self):
        word = WordRing(1)
        ring = word.ring
        word.push("a", 0)
        with pytest.raises(FifoError):
            word.push("b", 0)
        # The guard raises before any state moves.
        assert ring.busy_count == 1
        assert word.pop(0) == "a"

    def test_pop_empty_raises(self):
        word = WordRing(1)
        ring = word.ring
        with pytest.raises(FifoError):
            word.pop(0)
        assert ring.busy_count == 0
        assert word.fifo.total_read == 0

    def test_first_cells_and_counts(self):
        word = WordRing(3)
        ring = word.ring
        assert ring.busy_count == 0
        word.push("a", fs(1))
        word.push("b", fs(2))
        assert ring.busy_count == 2
        assert ring.head_busy_insertion_fs() == fs(1)
        assert list(ring.head_busy_insertion_span(2)) == [fs(1), fs(2)]
        assert list(ring._insertion) == [fs(1), fs(2), NEVER]
        assert word.pop(fs(3)) == "a"
        assert word.pop(fs(3)) == "b"

    def test_single_item_leaves_the_other_cells_free(self):
        word = WordRing(3)
        ring = word.ring
        word.push("a", 0)
        assert ring.busy_count == 1
        assert ring.head_busy_insertion_fs() == 0
        # The two free cells follow the busy one, never filled or freed.
        assert list(ring.head_free_freeing_span(2)) == [NEVER, NEVER]
        assert ring._data == ["a", None, None]

    def test_timestamps_recorded(self):
        word = WordRing(1)
        ring = word.ring
        word.push("a", fs(10))
        assert ring.head_busy_insertion_fs() == fs(10)
        word.pop(fs(25))
        assert ring.head_free_freeing_fs() == fs(25)
        # Re-using the cell keeps the previous freeing date until the next pop.
        word.push("b", fs(40))
        assert ring.head_busy_insertion_fs() == fs(40)
        assert ring._freeing[0] == fs(25)


class TestSpanMechanics:
    """Bulk span transfers (burst path)."""

    def test_push_span_pop_span_wraparound(self):
        word = WordRing(4)
        ring = word.ring
        # Rotate the head so the span has to wrap the buffer end.
        word.push("x", fs(1))
        word.push("y", fs(1))
        assert word.pop(fs(2)) == "x"
        assert word.pop(fs(2)) == "y"
        ring.push_span(["a", "b", "c", "d"], array("q", [fs(3)] * 4))
        assert ring.busy_count == ring.depth
        assert list(ring.head_busy_insertion_span(4)) == [fs(3)] * 4
        dates = array("q", [fs(4), fs(5), fs(6), fs(7)])
        assert ring.pop_span(4, dates) == ["a", "b", "c", "d"]
        assert ring.busy_count == 0
        # Freeing dates landed on the popped slots, in pop order.
        assert list(ring.head_free_freeing_span(4)) == [fs(4), fs(5), fs(6), fs(7)]

    def test_span_overrun_raises(self):
        word = WordRing(2)
        ring = word.ring
        word.push("a", 0)
        with pytest.raises(FifoError):
            ring.push_span(["b", "c"], array("q", [0, 0]))
        with pytest.raises(FifoError):
            ring.pop_span(2, array("q", [0, 0]))

    def test_mutations_counted_per_span_not_per_word(self):
        word = WordRing(4)
        ring = word.ring
        word.push("a", 0)
        word.pop(0)
        assert ring.mutations == 0
        ring.push_span([], array("q", []))
        assert ring.mutations == 0
        ring.push_span(["a", "b"], array("q", [0, 0]))
        ring.pop_span(2, array("q", [0, 0]))
        assert ring.mutations == 2


class TestMonitorInterpretation:
    """The real-occupancy rules of Section III-C.

    The four single-cell cases run on depth-1 rings, where ``real_size_at``
    is 1 exactly when the one cell is really busy.
    """

    def test_busy_cell_with_past_insertion_counts(self):
        word = WordRing(1)
        word.push("x", fs(10))
        assert word.ring.real_size_at(fs(10)) == 1
        assert word.ring.real_size_at(fs(50)) == 1
        assert word.ring.real_size_at(fs(5)) == 0

    def test_busy_cell_refilled_since_observation_counts(self):
        # Internally the cell was freed at 30 and refilled at 40; observed at
        # 20 the cell still holds the *previous* item -> really busy.
        word = WordRing(1)
        word.push("old", fs(10))
        word.pop(fs(30))
        word.push("new", fs(40))
        assert word.ring.real_size_at(fs(20)) == 1
        # Observed between the freeing and the new insertion: really free.
        assert word.ring.real_size_at(fs(35)) == 0

    def test_free_cell_freed_in_the_future_counts(self):
        word = WordRing(1)
        word.push("x", fs(10))
        word.pop(fs(50))
        assert word.ring.real_size_at(fs(20)) == 1
        assert word.ring.real_size_at(fs(50)) == 0
        assert word.ring.real_size_at(fs(60)) == 0
        assert word.ring.real_size_at(fs(5)) == 0

    def test_never_used_free_cell_never_counts(self):
        ring = CellRing(1)
        assert ring.real_size_at(0) == 0
        assert ring.real_size_at(fs(100)) == 0

    def test_real_size_at_mixed_ring(self):
        word = WordRing(3)
        ring = word.ring
        word.push("a", fs(10))
        word.push("b", fs(20))
        word.pop(fs(30))            # "a" freed at 30
        word.push("c", fs(40))
        # At t=25: "a" still there (freed at 30 in the future, inserted at 10),
        # "b" there (inserted 20), "c" not yet (inserted 40) -> 2 items.
        assert ring.real_size_at(fs(25)) == 2
        # At t=35: "a" gone, "b" there, "c" not yet -> 1.
        assert ring.real_size_at(fs(35)) == 1
        # At t=45: "b" and "c" -> 2.
        assert ring.real_size_at(fs(45)) == 2
        # Before anything: empty.
        assert ring.real_size_at(fs(5)) == 0
