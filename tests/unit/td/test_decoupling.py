"""Unit tests for the inc/sync/local_time_stamp API and DecoupledModule."""

import pytest

from repro.kernel import Module, ProcessError, Timeout, ns
from repro.kernel.simtime import TimeUnit
from repro.td import DecoupledModule, inc, is_synchronized, local_offset, local_time_stamp, sync
from repro.td.local_time import get_local_time_manager


def now_ns(sim):
    return sim.now.to(TimeUnit.NS)


class TestFreeFunctions:
    def test_inc_advances_local_time_not_global(self, sim, host):
        observed = {}

        def proc():
            inc(25)
            observed["local"] = local_time_stamp().to(TimeUnit.NS)
            observed["global"] = now_ns(sim)
            observed["offset"] = local_offset().to(TimeUnit.NS)
            observed["synchronized"] = is_synchronized()
            yield host.wait(1)

        host.add(proc)
        sim.run()
        assert observed == {
            "local": 25.0,
            "global": 0.0,
            "offset": 25.0,
            "synchronized": False,
        }

    def test_sync_waits_for_global_time(self, sim, host):
        observed = {}

        def proc():
            inc(40)
            yield from sync()
            observed["global_after_sync"] = now_ns(sim)
            observed["synchronized"] = is_synchronized()

        host.add(proc)
        sim.run()
        assert observed == {"global_after_sync": 40.0, "synchronized": True}

    def test_sync_when_already_synchronized_is_instant(self, sim, host):
        def proc():
            yield from sync()
            assert now_ns(sim) == 0.0
            yield host.wait(1)

        host.add(proc)
        sim.run()
        # Initial activation + the wait wake-up only: sync added no switch.
        assert sim.stats.context_switches == 2

    def test_inc_outside_process_raises(self, sim):
        with pytest.raises(ProcessError):
            inc(10)

    def test_sync_from_method_raises(self, sim, host):
        errors = []

        def method():
            try:
                list(sync())
            except ProcessError as exc:
                errors.append(str(exc))

        host.add_method(method)
        sim.run()
        assert len(errors) == 1
        assert "method" in errors[0]

    def test_inc_units(self, sim, host):
        def proc():
            inc(2, TimeUnit.US)
            assert local_time_stamp() == ns(2000)
            yield host.wait(1)

        host.add(proc)
        sim.run()

    def test_inc_in_method_process(self, sim, host):
        """The paper relies on inc() being usable from SC_METHODs (IV-C)."""
        observed = {}

        def method():
            inc(7)
            observed["local"] = local_time_stamp().to(TimeUnit.NS)
            observed["global"] = now_ns(sim)

        host.add_method(method)
        sim.run()
        assert observed == {"local": 7.0, "global": 0.0}


class TestSyncContract:
    """``sync()`` is a plain function returning the waits to perform."""

    def test_synchronized_sync_returns_no_wait(self, sim, host):
        observed = {}

        def proc():
            waits = sync()
            observed["waits"] = tuple(waits)
            yield from waits
            observed["switches"] = sim.stats.context_switches
            observed["tracked"] = sim.current_process().lt_tracked
            yield host.wait(1)

        host.add(proc)
        sim.run()
        # The first activation is the only switch before the plain wait.
        assert observed == {"waits": (), "switches": 1, "tracked": True}

    def test_ahead_sync_returns_one_timeout_of_the_offset(self, sim, host):
        observed = {}

        def proc():
            yield host.wait(10)
            inc(35)
            process = sim.current_process()
            waits = sync()
            observed["offset_fs"] = process.local_fs - sim.now_fs
            observed["waits"] = waits
            yield from waits
            manager = get_local_time_manager(sim)
            observed["now"] = now_ns(sim)
            observed["synchronized"] = is_synchronized()
            observed["local"] = local_time_stamp().to(TimeUnit.NS)
            observed["tracked"] = process.lt_tracked
            observed["max_local_fs"] = manager.max_local_fs()

        host.add(proc)
        sim.run()
        (timeout,) = observed.pop("waits")
        assert type(timeout) is Timeout
        assert timeout.duration_fs == observed.pop("offset_fs") == ns(35).femtoseconds
        assert observed == {
            "now": 45.0,
            "synchronized": True,
            "local": 45.0,
            "tracked": True,
            "max_local_fs": ns(45).femtoseconds,
        }
        assert sim.stats.context_switches == 3

    def test_sync_outside_a_process_raises(self, sim):
        with pytest.raises(ProcessError, match="outside of a process"):
            sync(sim=sim)

    def test_sync_from_method_raises_on_the_call(self, sim, host):
        errors = []

        def method():
            try:
                sync()
            except ProcessError as exc:
                errors.append(str(exc))

        host.add_method(method)
        sim.run()
        assert len(errors) == 1
        assert "method process" in errors[0]


class TestDecoupledModule:
    class Worker(DecoupledModule):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.dates = []
            self.create_thread(self.run)

        def run(self):
            self.inc(10)
            self.dates.append(("after_inc", self.local_time_stamp().to(TimeUnit.NS)))
            yield from self.sync()
            self.dates.append(("after_sync", self.now.to(TimeUnit.NS)))
            yield from self.timed_wait(5)
            self.dates.append(("after_timed_wait", self.now.to(TimeUnit.NS)))

    def test_mixin_api(self, sim):
        worker = self.Worker(sim, "worker")
        sim.run()
        assert worker.dates == [
            ("after_inc", 10.0),
            ("after_sync", 10.0),
            ("after_timed_wait", 15.0),
        ]

    def test_log_uses_local_date(self, sim):
        class Logger(DecoupledModule):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.create_thread(self.run)

            def run(self):
                self.inc(33)
                self.log("annotated")
                yield from self.sync()

        Logger(sim, "logger")
        sim.run()
        record = list(sim.trace)[0]
        assert record.local_fs == ns(33).femtoseconds
        assert record.global_fs == 0

    def test_non_decoupled_module_logs_global_date(self, sim):
        class Plain(Module):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.create_thread(self.run)

            def run(self):
                yield self.wait(8)
                self.log("plain")

        Plain(sim, "plain")
        sim.run()
        record = list(sim.trace)[0]
        assert record.local_fs == ns(8).femtoseconds
        assert record.global_fs == ns(8).femtoseconds
