"""Unit tests for the regular (sc_fifo-like) FIFO."""

import pytest

from repro.fifo import RegularFifo
from repro.kernel import FifoError
from repro.kernel.simtime import TimeUnit


def now_ns(sim):
    return sim.now.to(TimeUnit.NS)


class TestBasics:
    def test_depth_must_be_positive(self, sim):
        with pytest.raises(FifoError):
            RegularFifo(sim, "f", depth=0)

    def test_nb_write_and_nb_read(self, sim):
        fifo = RegularFifo(sim, "f", depth=2)
        assert fifo.nb_write(1)
        assert fifo.nb_write(2)
        assert not fifo.nb_write(3)  # full
        assert fifo.size == 2
        assert fifo.nb_read() == 1
        assert fifo.nb_read() == 2
        with pytest.raises(FifoError):
            fifo.nb_read()

    def test_peek_does_not_consume(self, sim):
        fifo = RegularFifo(sim, "f", depth=2)
        fifo.nb_write(42)
        assert fifo.peek() == 42
        assert fifo.size == 1
        fifo.nb_read()
        with pytest.raises(FifoError):
            fifo.peek()

    def test_counters_and_len(self, sim):
        fifo = RegularFifo(sim, "f", depth=4)
        for value in range(3):
            fifo.nb_write(value)
        fifo.nb_read()
        assert fifo.total_written == 3
        assert fifo.total_read == 1
        assert len(fifo) == 2
        assert fifo.size == 2

    def test_is_empty_is_full(self, sim):
        fifo = RegularFifo(sim, "f", depth=1)
        assert fifo.is_empty()
        assert not fifo.is_full()
        fifo.nb_write(0)
        assert fifo.is_full()
        assert not fifo.is_empty()


class TestBlocking:
    def test_fifo_order_preserved(self, sim, host):
        fifo = RegularFifo(sim, "f", depth=3)
        received = []

        def producer():
            for value in range(10):
                yield from fifo.write(value)
                yield host.wait(1)

        def consumer():
            for _ in range(10):
                value = yield from fifo.read()
                received.append(value)
                yield host.wait(2)

        host.add(producer)
        host.add(consumer)
        sim.run()
        assert received == list(range(10))

    def test_reader_blocks_until_data(self, sim, host):
        fifo = RegularFifo(sim, "f", depth=1)
        dates = []

        def producer():
            yield host.wait(30)
            yield from fifo.write("x")

        def consumer():
            value = yield from fifo.read()
            dates.append((value, now_ns(sim)))

        host.add(producer)
        host.add(consumer)
        sim.run()
        assert dates == [("x", 30.0)]

    def test_writer_blocks_until_room(self, sim, host):
        fifo = RegularFifo(sim, "f", depth=1)
        dates = []

        def producer():
            yield from fifo.write(1)
            yield from fifo.write(2)   # blocks until the reader drains
            dates.append(("written", now_ns(sim)))

        def consumer():
            yield host.wait(25)
            yield from fifo.read()

        host.add(producer)
        host.add(consumer)
        sim.run()
        assert dates == [("written", 25.0)]

    def test_get_size_generator_interface(self, sim, host):
        fifo = RegularFifo(sim, "f", depth=4)
        sizes = []

        def proc():
            size = yield from fifo.get_size()
            sizes.append(size)
            fifo.nb_write(1)
            size = yield from fifo.get_size()
            sizes.append(size)

        host.add(proc)
        sim.run()
        assert sizes == [0, 1]

    def test_events_exposed(self, sim):
        fifo = RegularFifo(sim, "f", depth=1)
        assert fifo.not_empty_event is fifo._data_written_event
        assert fifo.not_full_event is fifo._data_read_event
