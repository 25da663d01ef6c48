"""Unit tests for the Smart FIFO monitor interface (Section III-C)."""

import pytest

from repro.fifo import RegularFifo, SmartFifo
from repro.kernel import Simulator
from repro.kernel.simtime import TimeUnit, ns
from repro.td import DecoupledModule

from .helpers import DecoupledReader, DecoupledWriter, TimedReader, TimedWriter


class TestGetSize:
    def test_paper_example_write_visible_at_local_date(self, sim, host):
        """Section III-C: a write at global date 10 ns with local date 20 ns
        increments the *real* size only at 20 ns."""
        fifo = SmartFifo(sim, "fifo", depth=4)
        sizes = {}

        class Writer(DecoupledModule):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.create_thread(self.run)

            def run(self):
                yield self.wait(10)               # global date 10 ns
                self.inc(10)                      # local date 20 ns
                yield from fifo.write("x")        # internal change at g=10

        def monitor():
            yield host.wait(15)                   # between 10 and 20 ns
            size = yield from fifo.get_size()
            sizes[15] = size
            yield host.wait(10)                   # 25 ns
            size = yield from fifo.get_size()
            sizes[25] = size

        Writer(sim, "writer")
        host.add(monitor)
        sim.run()
        assert sizes == {15: 0, 25: 1}

    def test_get_size_synchronizes_the_caller(self, sim, host):
        fifo = SmartFifo(sim, "fifo", depth=4)
        observed = {}

        class Monitor(DecoupledModule):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.create_thread(self.run)

            def run(self):
                self.inc(30)
                size = yield from fifo.get_size()
                observed["size"] = size
                observed["global_after"] = self.now.to(TimeUnit.NS)

        Monitor(sim, "monitor")
        sim.run()
        assert observed == {"size": 0, "global_after": 30.0}

    def test_monitor_matches_reference_fifo_levels(self):
        """The monitor must report exactly what a regular FIFO would hold."""
        items = list(range(8))
        # Sample at half-nanosecond offsets so the monitor never observes the
        # FIFO at the exact date of a data access (same-date interleavings are
        # scheduler dependent and excluded by the paper's methodology).
        sample_dates = [5.5, 35.5, 65.5, 95.5, 125.5]

        def reference_levels():
            sim = Simulator()
            fifo = RegularFifo(sim, "fifo", depth=4)
            TimedWriter(sim, "writer", fifo, items, period_ns=10)
            TimedReader(sim, "reader", fifo, len(items), period_ns=25)
            levels = []

            def monitor():
                previous = 0
                for date in sample_dates:
                    yield sim.wait(date - previous)
                    previous = date
                    levels.append(fifo.size)

            sim.create_thread(monitor, name="monitor")
            sim.run()
            return levels

        def smart_levels():
            sim = Simulator()
            fifo = SmartFifo(sim, "fifo", depth=4)
            DecoupledWriter(sim, "writer", fifo, items, period_ns=10)
            DecoupledReader(sim, "reader", fifo, len(items), period_ns=25)
            levels = []

            def monitor():
                previous = 0
                for date in sample_dates:
                    yield sim.wait(date - previous)
                    previous = date
                    size = yield from fifo.get_size()
                    levels.append(size)

            sim.create_thread(monitor, name="monitor")
            sim.run()
            return levels

        assert smart_levels() == reference_levels()

    def test_get_free_count(self, sim, host):
        fifo = SmartFifo(sim, "fifo", depth=3)
        fifo.nb_write(1)
        results = {}

        def proc():
            free = yield from fifo.get_free_count()
            results["free"] = free

        host.add(proc)
        sim.run()
        assert results == {"free": 2}


class TestPureObservers:
    def test_size_at_arbitrary_dates(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=4)
        manager_dates = [(1, 10), (2, 20), (3, 30)]
        for value, date in manager_dates:
            fifo._do_write(None, fifo._manager, value, ns(date).femtoseconds)
        fifo._do_read(None, fifo._manager, ns(25).femtoseconds)
        assert fifo.size_at(ns(5)) == 0
        assert fifo.size_at(ns(15)) == 1
        assert fifo.size_at(ns(22)) == 2
        assert fifo.size_at(ns(26)) == 1
        assert fifo.size_at(ns(35)) == 2

    @pytest.mark.parametrize("depth", (4, 64, 1024))
    def test_size_at_counts_every_word_written_now(self, sim, depth):
        fifo = SmartFifo(sim, "fifo", depth=depth)
        for value in range(depth // 2):
            fifo.nb_write(value)
        assert fifo.size_at(sim.now) == depth // 2
        assert not fifo.is_empty()
        assert [fifo.nb_read() for _ in range(depth // 2)] == list(range(depth // 2))
        assert fifo.total_read == depth // 2

    def test_peek_size_uses_caller_local_date(self, sim, host):
        fifo = SmartFifo(sim, "fifo", depth=4)
        observed = {}

        class Writer(DecoupledModule):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.create_thread(self.run)

            def run(self):
                self.inc(40)
                yield from fifo.write("x")        # inserted at 40 ns
                observed["writer_view"] = fifo.peek_size()

        def synchronized_observer():
            yield host.wait(10)
            observed["observer_view"] = fifo.peek_size()

        Writer(sim, "writer")
        host.add(synchronized_observer)
        sim.run()
        # The writer (local date 40 ns) already sees its item; a synchronized
        # observer at 10 ns does not.
        assert observed == {"writer_view": 1, "observer_view": 0}

    def test_internal_size_differs_from_real_size(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=4)
        fifo._do_write(None, fifo._manager, "x", ns(100).femtoseconds)
        assert fifo.internal_size == 1
        assert fifo.size_at(ns(0)) == 0
        assert fifo.depth == 4
