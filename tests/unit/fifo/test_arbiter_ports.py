"""Unit tests for the FIFO side arbiters and the FIFO ports."""

import pytest

from repro.fifo import (
    FifoReadPort,
    FifoWritePort,
    ReadArbiter,
    RegularFifo,
    SmartFifo,
    WriteArbiter,
)
from repro.kernel import BindingError, Module, Simulator, ns
from repro.kernel.simtime import TimeUnit
from repro.td import DecoupledModule
from repro.workloads import ArbiterContentionScenario, ContentionConfig

from .helpers import DecoupledReader


class OneShotWriter(DecoupledModule):
    """Writes a single item through a writer interface at a given local date."""

    def __init__(self, parent, name, target, item, at_ns):
        super().__init__(parent, name)
        self.target = target
        self.item = item
        self.at_ns = at_ns
        self.write_date = None
        self.create_thread(self.run)

    def run(self):
        self.inc(self.at_ns)
        yield from self.target.write(self.item)
        self.write_date = self.local_time_stamp().to(TimeUnit.NS)


class TestWriteArbiter:
    def test_serializes_out_of_order_writers(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=8)
        arbiter = WriteArbiter(sim, "arbiter", fifo, access_duration=ns(5))
        late = OneShotWriter(sim, "late", arbiter, "late", at_ns=100)
        early = OneShotWriter(sim, "early", arbiter, "early", at_ns=10)
        DecoupledReader(sim, "reader", fifo, 2)
        sim.run()
        # The early writer arrived after the port was granted at 100 ns, so
        # it is delayed to the end of the previous access (100 + 5 ns).
        assert late.write_date == 100.0
        assert early.write_date == 105.0
        assert arbiter.arbitrated_accesses == 1
        assert arbiter.total_accesses == 2

    def test_no_delay_when_dates_increase(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=8)
        arbiter = WriteArbiter(sim, "arbiter", fifo, access_duration=ns(5))
        first = OneShotWriter(sim, "first", arbiter, "a", at_ns=10)
        second = OneShotWriter(sim, "second", arbiter, "b", at_ns=50)
        DecoupledReader(sim, "reader", fifo, 2)
        sim.run()
        assert first.write_date == 10.0
        assert second.write_date == 50.0
        assert arbiter.arbitrated_accesses == 0

    def test_forwarding_of_state_queries(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=1)
        arbiter = WriteArbiter(sim, "arbiter", fifo)
        assert not arbiter.is_full()
        assert arbiter.not_full_event is fifo.not_full_event
        assert arbiter.nb_write("x")
        assert arbiter.is_full()

    def test_sync_on_access_fifos_are_rejected(self, sim):
        from repro.kernel.errors import FifoError

        fifo = SmartFifo(sim, "fifo", depth=4, sync_on_access=True)
        with pytest.raises(FifoError, match="sync_on_access"):
            WriteArbiter(sim, "warb", fifo)
        with pytest.raises(FifoError, match="sync_on_access"):
            ReadArbiter(sim, "rarb", fifo)

    def test_refused_nb_writes_do_not_pollute_the_grant_oracle(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=1)
        arbiter = WriteArbiter(
            sim, "arbiter", fifo, access_duration=ns(5), record_grants=True
        )
        assert arbiter.nb_write("a")
        # The FIFO is now full: polling must be refused without occupying
        # the port, growing the counters or the grant-date history.
        for _ in range(3):
            assert not arbiter.nb_write("b")
        assert arbiter.total_accesses == 1
        assert arbiter.arbitrated_accesses == 0
        assert len(arbiter.grant_dates_fs) == 1
        # After the reader frees the cell the next write is granted at the
        # end of the first access, not after 3 phantom arbitration cycles.
        assert fifo.nb_read() == "a"
        assert arbiter.nb_write("b")
        assert arbiter.grant_dates_fs == [0, ns(5).femtoseconds]


class TestReadArbiter:
    def test_two_readers_share_a_fifo(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=8)
        for value in (1, 2):
            fifo.nb_write(value)
        arbiter = ReadArbiter(sim, "arbiter", fifo, access_duration=ns(3))
        values = []

        class Reader(DecoupledModule):
            def __init__(self, parent, name, at_ns):
                super().__init__(parent, name)
                self.at_ns = at_ns
                self.create_thread(self.run)

            def run(self):
                self.inc(self.at_ns)
                value = yield from arbiter.read()
                values.append((value, self.local_time_stamp().to(TimeUnit.NS)))

        Reader(sim, "reader_late", at_ns=40)
        Reader(sim, "reader_early", at_ns=10)
        sim.run()
        assert values == [(1, 40.0), (2, 43.0)]
        assert arbiter.arbitrated_accesses == 1

    def test_non_blocking_delegation(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=2)
        fifo.nb_write("x")
        arbiter = ReadArbiter(sim, "arbiter", fifo)
        assert not arbiter.is_empty()
        assert arbiter.nb_read() == "x"
        assert arbiter.is_empty()
        assert arbiter.not_empty_event is fifo.not_empty_event

    def test_refused_nb_reads_do_not_pollute_the_grant_oracle(self, sim):
        from repro.kernel.errors import FifoError

        fifo = SmartFifo(sim, "fifo", depth=2)
        arbiter = ReadArbiter(
            sim, "arbiter", fifo, access_duration=ns(3), record_grants=True
        )
        for _ in range(2):
            with pytest.raises(FifoError):
                arbiter.nb_read()
        assert arbiter.total_accesses == 0
        assert arbiter.grant_dates_fs == []
        fifo.nb_write("x")
        assert arbiter.nb_read() == "x"
        assert arbiter.total_accesses == 1
        assert arbiter.grant_dates_fs == [0]


class TestMultiWriterMultiReaderContention:
    """Section III arbiters under real contention: at least three decoupled
    writers and three decoupled readers share one Smart FIFO.  This is also
    the oracle reused by the campaign's ``contention`` scenario."""

    def run_scenario(self, sim, **overrides):
        config = ContentionConfig(**overrides)
        scenario = ArbiterContentionScenario(sim, config)
        scenario.run()
        return scenario

    def test_three_by_three_contention_invariants(self, sim):
        scenario = self.run_scenario(
            sim, seed=5, n_writers=3, n_readers=3, items_per_writer=20
        )
        # The full oracle: accounting, per-side monotonicity, conservation.
        scenario.verify()
        # Decoupling ran the first writer far ahead, so later writers MUST
        # have been delayed by arbitration (the scenario is not degenerate).
        assert scenario.arbitration_happened
        assert scenario.write_arbiter.arbitrated_accesses > 0

    def test_per_side_dates_are_monotonic(self, sim):
        scenario = self.run_scenario(
            sim, seed=11, n_writers=4, n_readers=3, items_per_writer=15
        )
        for arbiter in (scenario.write_arbiter, scenario.read_arbiter):
            dates = arbiter.grant_dates_fs
            assert len(dates) == scenario.config.total_items
            assert dates == sorted(dates)
            assert arbiter.grants_monotonic()

    def test_access_counters_account_for_every_item(self, sim):
        scenario = self.run_scenario(
            sim, seed=2, n_writers=3, n_readers=4, items_per_writer=12
        )
        total = scenario.config.total_items
        assert scenario.write_arbiter.total_accesses == total
        assert scenario.read_arbiter.total_accesses == total
        assert 0 < scenario.write_arbiter.arbitrated_accesses <= total
        assert scenario.read_arbiter.arbitrated_accesses <= total
        # Every token written was read exactly once.
        assert len(scenario.all_tokens()) == total

    def test_uneven_reader_shares_sum_to_total(self, sim):
        scenario = self.run_scenario(
            sim, seed=7, n_writers=3, n_readers=3, items_per_writer=13
        )
        shares = scenario.config.reader_shares()
        assert sum(shares) == scenario.config.total_items
        assert [len(r.tokens) for r in scenario.readers] == shares
        scenario.verify()


class TestFifoPorts:
    class Producer(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.out_port = FifoWritePort(self, "out")
            self.create_thread(self.run)

        def run(self):
            yield from self.out_port.write("hello")

    class Consumer(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.in_port = FifoReadPort(self, "in")
            self.received = []
            self.create_thread(self.run)

        def run(self):
            value = yield from self.in_port.read()
            self.received.append(value)

    def test_port_delegation(self, sim):
        fifo = RegularFifo(sim, "fifo", depth=2)
        producer = self.Producer(sim, "producer")
        consumer = self.Consumer(sim, "consumer")
        producer.out_port.bind(fifo)
        consumer.in_port.bind(fifo)
        sim.run()
        assert consumer.received == ["hello"]

    def test_unbound_port_fails_elaboration(self, sim):
        self.Producer(sim, "producer")
        with pytest.raises(BindingError):
            sim.run()

    def test_type_checked_binding(self, sim):
        producer = self.Producer(sim, "producer")
        with pytest.raises(BindingError):
            producer.out_port.bind(object())

    def test_nonblocking_port_helpers(self, sim):
        fifo = RegularFifo(sim, "fifo", depth=1)
        producer = self.Producer(sim, "producer")
        consumer = self.Consumer(sim, "consumer")
        producer.out_port.bind(fifo)
        consumer.in_port.bind(fifo)
        assert not producer.out_port.is_full()
        assert consumer.in_port.is_empty()
        assert producer.out_port.nb_write("x")
        assert consumer.in_port.nb_read() == "x"
        assert producer.out_port.not_full_event is fifo.not_full_event
        assert consumer.in_port.not_empty_event is fifo.not_empty_event
        sim.run()
