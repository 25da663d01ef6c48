"""Unit tests for the per-process local-date map."""

import pytest

from repro.kernel import TimingError, ns
from repro.kernel.simtime import TimeUnit
from repro.td.local_time import LocalTimeManager, get_local_time_manager


class TestManagerBasics:
    def test_manager_is_per_simulator_singleton(self, sim):
        assert get_local_time_manager(sim) is get_local_time_manager(sim)

    def test_unknown_process_is_synchronized(self, sim, host):
        manager = get_local_time_manager(sim)
        checks = []

        def proc():
            process = sim.current_process()
            checks.append(manager.local_fs(process))
            checks.append(manager.is_synchronized(process))
            yield host.wait(1)

        host.add(proc)
        sim.run()
        assert checks == [0, True]

    def test_none_process_maps_to_global_date(self, sim):
        manager = get_local_time_manager(sim)
        assert manager.local_fs(None) == 0
        assert manager.local_time(None) == ns(0)


class TestAdvance:
    def test_advance_and_offset(self, sim, host):
        manager = get_local_time_manager(sim)
        observed = {}

        def proc():
            process = sim.current_process()
            manager.advance(process, ns(30))
            observed["local"] = manager.local_fs(process)
            observed["offset"] = manager.offset_fs(process)
            observed["synchronized"] = manager.is_synchronized(process)
            yield host.wait(50)
            # Global time passed the stored local date: clamped back to global.
            observed["after_wait"] = manager.local_fs(process)
            observed["after_offset"] = manager.offset_fs(process)

        host.add(proc)
        sim.run()
        assert observed["local"] == ns(30).femtoseconds
        assert observed["offset"] == ns(30).femtoseconds
        assert observed["synchronized"] is False
        assert observed["after_wait"] == ns(50).femtoseconds
        assert observed["after_offset"] == 0

    def test_advance_fs_fast_path(self, sim, host):
        manager = get_local_time_manager(sim)
        observed = {}

        def proc():
            process = sim.current_process()
            manager.advance_fs(process, 1000)
            manager.advance_fs(process, 500)
            observed["local"] = manager.local_fs(process)
            yield host.wait(1)

        host.add(proc)
        sim.run()
        assert observed["local"] == 1500

    def test_advance_to_forwards_only(self, sim, host):
        manager = get_local_time_manager(sim)

        def proc():
            process = sim.current_process()
            manager.advance_to(process, ns(10).femtoseconds)
            with pytest.raises(TimingError):
                manager.advance_to(process, ns(5).femtoseconds)
            yield host.wait(1)

        host.add(proc)
        sim.run()

    def test_set_synchronized_and_forget(self, sim, host):
        manager = get_local_time_manager(sim)
        observed = {}

        def proc():
            process = sim.current_process()
            manager.advance(process, ns(100))
            manager.set_synchronized(process)
            observed["after_sync"] = manager.offset_fs(process)
            manager.advance(process, ns(5))
            manager.forget(process)
            observed["after_forget"] = manager.offset_fs(process)
            yield host.wait(1)

        host.add(proc)
        sim.run()
        assert observed["after_sync"] == 0
        assert observed["after_forget"] == 0


class TestIntrospection:
    def test_max_local_fs_with_a_process_ahead(self, sim, host):
        manager = get_local_time_manager(sim)
        listing = {}

        def ahead():
            manager.advance(sim.current_process(), ns(40))
            yield host.wait(1)

        def behind():
            listing["max_fs"] = manager.max_local_fs()
            yield host.wait(1)

        host.add(ahead)
        host.add(behind)
        sim.run()
        assert listing["max_fs"] == ns(40).femtoseconds

    def test_max_local_fs_without_decoupling(self, sim):
        manager = get_local_time_manager(sim)
        assert manager.max_local_fs() == 0

    def test_manager_local_time_returns_simtime(self, sim, host):
        manager = get_local_time_manager(sim)
        seen = {}

        def proc():
            process = sim.current_process()
            manager.advance(process, ns(3))
            seen["t"] = manager.local_time(process)
            yield host.wait(1)

        host.add(proc)
        sim.run()
        assert seen["t"].to(TimeUnit.NS) == 3.0
