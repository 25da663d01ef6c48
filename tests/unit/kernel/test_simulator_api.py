"""Unit tests for the Simulator facade and global context helpers."""

import pytest

from repro.kernel import (
    Simulator,
    current_process,
    current_simulator,
    current_simulator_or_none,
    simulate,
)
from repro.kernel.context import set_current_simulator
from repro.kernel.errors import SimulationError
from repro.kernel.simtime import TimeUnit, ns


class TestGlobalContext:
    def test_latest_simulator_becomes_current(self):
        first = Simulator("first")
        assert current_simulator() is first
        second = Simulator("second")
        assert current_simulator() is second
        assert current_simulator_or_none() is second

    def test_current_process_outside_execution_is_none(self):
        Simulator("idle")
        assert current_process() is None
        set_current_simulator(None)
        assert current_process() is None
        with pytest.raises(SimulationError):
            current_simulator()


class TestSimulatorFacade:
    def test_simulate_helper(self):
        seen = []

        def setup(sim):
            def proc():
                yield sim.wait(7)
                seen.append(sim.now.to(TimeUnit.NS))

            sim.create_thread(proc)

        sim = simulate(setup)
        assert seen == [7.0]
        assert sim.now == ns(7)

    def test_run_returns_final_time(self, sim, host):
        def proc():
            yield host.wait(42)

        host.add(proc)
        assert sim.run() == ns(42)

    def test_log_outside_process_uses_elaboration_label(self, sim):
        sim.log("hello from elaboration")
        record = list(sim.trace)[0]
        assert record.process == "<elaboration>"
        assert record.message == "hello from elaboration"

    def test_current_process_name_during_run(self, sim, host):
        names = []

        def proc():
            names.append(sim.current_process_name())
            yield host.wait(1)

        host.add(proc, name="p")
        sim.run()
        assert names == ["host.p"]

    def test_incremental_runs_accumulate(self, sim, host):
        ticks = []

        def proc():
            for _ in range(4):
                yield host.wait(10)
                ticks.append(sim.now.to(TimeUnit.NS))

        host.add(proc)
        sim.run(until=15)
        assert ticks == [10.0]
        sim.run(until=35)
        assert ticks == [10.0, 20.0, 30.0]
        sim.run()
        assert ticks == [10.0, 20.0, 30.0, 40.0]
