"""Unit tests for the Smart FIFO blocking interfaces (Section III-A).

The reference behaviour is always the same model built with a regular FIFO
and plain waits: the Smart FIFO runs must produce exactly the same dates.
"""

import pytest

from repro.fifo import RegularFifo, SmartFifo
from repro.kernel import Simulator, TimingError
from repro.kernel.simtime import TimeUnit

from .helpers import DecoupledReader, DecoupledWriter, TimedReader, TimedWriter


def run_reference(depth, items, write_period, read_period, read_start=0):
    sim = Simulator("reference")
    fifo = RegularFifo(sim, "fifo", depth=depth)
    writer = TimedWriter(sim, "writer", fifo, items, write_period)
    reader = TimedReader(sim, "reader", fifo, len(items), read_period, read_start)
    sim.run()
    return writer.write_dates, reader.read_dates, sim


def run_smart(depth, items, write_period, read_period, read_start=0):
    sim = Simulator("smart")
    fifo = SmartFifo(sim, "fifo", depth=depth)
    writer = DecoupledWriter(sim, "writer", fifo, items, write_period)
    reader = DecoupledReader(sim, "reader", fifo, len(items), read_period, read_start)
    sim.run()
    return writer.write_dates, reader.read_dates, sim, fifo


class TestPaperExample:
    """The Fig. 1 example: 3 writes every 20 ns, reads every 15 ns."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 8])
    def test_dates_match_reference_for_any_depth(self, depth):
        items = [1, 2, 3]
        ref_writes, ref_reads, _ = run_reference(depth, items, 20, 15)
        smart_writes, smart_reads, _, _ = run_smart(depth, items, 20, 15)
        assert smart_writes == ref_writes
        assert smart_reads == ref_reads

    def test_expected_fig2_dates(self):
        smart_writes, smart_reads, _, _ = run_smart(4, [1, 2, 3], 20, 15)
        assert smart_writes == [(1, 0.0), (2, 20.0), (3, 40.0)]
        assert smart_reads == [(1, 0.0), (2, 20.0), (3, 40.0)]

    def test_context_switches_reduced_with_depth(self):
        _, _, sim_shallow, _ = run_smart(1, list(range(20)), 20, 15)
        _, _, sim_deep, _ = run_smart(32, list(range(20)), 20, 15)
        assert sim_deep.stats.context_switches < sim_shallow.stats.context_switches


class TestReaderTimeAdjustment:
    def test_reader_local_time_raised_to_insertion_date(self):
        # Writer is slow (50 ns/item), reader is fast: every read must land
        # exactly on the insertion date of the item it returns.
        ref_writes, ref_reads, _ = run_reference(4, list(range(5)), 50, 1)
        smart_writes, smart_reads, _, _ = run_smart(4, list(range(5)), 50, 1)
        assert smart_reads == ref_reads
        assert [date for _, date in smart_reads] == [0.0, 50.0, 100.0, 150.0, 200.0]

    def test_reader_ahead_keeps_its_own_date(self):
        # Reader starts with 100 ns of local time: all items were inserted
        # earlier, so reads complete at the reader's own dates.
        _, smart_reads, _, _ = run_smart(8, [1, 2, 3], 5, 10, read_start=100)
        assert [date for _, date in smart_reads] == [100.0, 110.0, 120.0]


class TestWriterBackPressure:
    def test_writer_local_time_raised_to_freeing_date(self):
        # Depth-1 FIFO, slow reader: each write (after the first) must wait
        # for the previous item to be consumed.
        ref_writes, ref_reads, _ = run_reference(1, list(range(4)), 1, 30)
        smart_writes, smart_reads, _, _ = run_smart(1, list(range(4)), 1, 30)
        assert smart_writes == ref_writes
        assert smart_reads == ref_reads
        # First two writes fit (the reader drained item 0 at t=0); the later
        # writes land exactly on the reader's freeing dates (30 ns period).
        assert [date for _, date in smart_writes] == [0.0, 1.0, 30.0, 60.0]

    def test_blocking_waits_counted(self):
        _, _, _, fifo = run_smart(1, list(range(4)), 1, 30)
        assert fifo.blocking_waits > 0
        assert fifo.total_written == 4
        assert fifo.total_read == 4

    def test_data_order_preserved_under_backpressure(self):
        items = list(range(50))
        _, smart_reads, _, _ = run_smart(2, items, 1, 3)
        assert [value for value, _ in smart_reads] == items


class _WriterAt(DecoupledWriter):
    """Writes one item after advancing its local time by ``at_ns``."""

    def __init__(self, parent, name, fifo, at_ns, item="x"):
        self.at_ns = at_ns
        super().__init__(parent, name, fifo, [item])

    def run(self):
        self.inc(self.at_ns)
        yield from self.fifo.write(self.items[0])
        self.write_dates.append((self.items[0], self.local_time_stamp().to(TimeUnit.NS)))


class TestSideOrdering:
    def test_two_writers_with_decreasing_dates_raise(self):
        # The first process writes at local date 100 ns, the second at 10 ns:
        # Section III requires non-decreasing dates per side, so the Smart
        # FIFO must reject the second access (an arbiter would be needed).
        sim = Simulator()
        fifo = SmartFifo(sim, "fifo", depth=8)
        _WriterAt(sim, "writer_late", fifo, at_ns=100, item="a")
        _WriterAt(sim, "writer_early", fifo, at_ns=10, item="b")
        with pytest.raises(TimingError):
            sim.run()

    def test_ordering_check_can_be_disabled(self):
        sim = Simulator()
        fifo = SmartFifo(sim, "fifo", depth=8, enforce_side_ordering=False)
        _WriterAt(sim, "writer_late", fifo, at_ns=100, item="a")
        _WriterAt(sim, "writer_early", fifo, at_ns=10, item="b")
        DecoupledReader(sim, "reader", fifo, 2)
        sim.run()  # must not raise

    def test_sync_on_access_flag_produces_same_dates(self):
        items = [1, 2, 3, 4]
        ref_writes, ref_reads, _ = run_reference(2, items, 7, 11)

        sim = Simulator()
        fifo = SmartFifo(sim, "fifo", depth=2, sync_on_access=True)
        writer = DecoupledWriter(sim, "writer", fifo, items, 7)
        reader = DecoupledReader(sim, "reader", fifo, len(items), 11)
        sim.run()
        assert writer.write_dates == ref_writes
        assert reader.read_dates == ref_reads

    def test_sync_on_access_costs_more_context_switches(self):
        items = list(range(20))

        def build(sync_on_access):
            sim = Simulator()
            fifo = SmartFifo(sim, "fifo", depth=16, sync_on_access=sync_on_access)
            DecoupledWriter(sim, "writer", fifo, items, 5)
            DecoupledReader(sim, "reader", fifo, len(items), 5)
            sim.run()
            return sim.stats.context_switches

        assert build(True) > build(False)


class TestSyncPerAccess:
    """Section II-B's reference for decoupled callers: a ``sync()`` at the
    head of every access (``sync_on_access=True``) gives the dates of the
    non-decoupled model and pays a context switch per access."""

    def test_dates_match_non_decoupled_reference(self):
        items = [10, 20, 30, 40, 50]
        ref_writes, ref_reads, _ = run_reference(2, items, 7, 13)

        sim = Simulator("sync")
        fifo = SmartFifo(sim, "fifo", depth=2, sync_on_access=True)
        writer = DecoupledWriter(sim, "writer", fifo, items, period_ns=7)
        reader = DecoupledReader(sim, "reader", fifo, len(items), period_ns=13)
        sim.run()
        assert writer.write_dates == ref_writes
        assert reader.read_dates == ref_reads

    def test_one_context_switch_per_access(self):
        """Every access synchronizes, so each of the 10 writes and 10
        reads costs a context switch although the FIFO never fills up."""
        items = list(range(10))
        sim = Simulator()
        fifo = SmartFifo(sim, "fifo", depth=64, sync_on_access=True)
        DecoupledWriter(sim, "writer", fifo, items, period_ns=5)
        DecoupledReader(sim, "reader", fifo, len(items), period_ns=5)
        sim.run()
        assert sim.stats.context_switches == 2 * len(items)
