"""Unit tests for the shared workload machinery (TimingMode, advance)."""

import pytest

from repro.kernel import Simulator
from repro.kernel.simtime import TimeUnit
from repro.td import GlobalQuantum
from repro.workloads import TimingMode, WorkloadModule


class Stepper(WorkloadModule):
    """Calls advance() a fixed number of times and records the dates."""

    def __init__(self, parent, name, timing, steps=4, step_ns=10):
        super().__init__(parent, name, timing)
        self.steps = steps
        self.step_ns = step_ns
        self.kernel_dates = []
        self.local_dates = []
        self.create_thread(self.run)

    def run(self):
        for _ in range(self.steps):
            yield from self.advance(self.step_ns)
            self.kernel_dates.append(self.now.to(TimeUnit.NS))
            self.local_dates.append(self.local_time_stamp().to(TimeUnit.NS))
        self.mark_finished()
        self.checkpoint("done")


class TestTimingModeProperties:
    def test_is_decoupled_flag(self):
        assert TimingMode.DECOUPLED.is_decoupled
        assert TimingMode.QUANTUM.is_decoupled
        assert not TimingMode.TIMED_WAIT.is_decoupled
        assert not TimingMode.UNTIMED.is_decoupled


class TestAdvanceSemantics:
    def test_untimed_advance_costs_nothing(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.UNTIMED)
        sim.run()
        assert stepper.kernel_dates == [0.0] * 4
        assert stepper.local_dates == [0.0] * 4
        assert stepper.finish_time.femtoseconds == 0

    def test_timed_wait_advances_the_kernel_clock(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.TIMED_WAIT)
        sim.run()
        assert stepper.kernel_dates == [10.0, 20.0, 30.0, 40.0]
        assert stepper.finish_time.to(TimeUnit.NS) == 40.0
        # One context switch per annotation (plus the initial activation).
        assert sim.stats.context_switches == 5

    def test_decoupled_advance_only_moves_local_time(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.DECOUPLED)
        sim.run()
        assert stepper.kernel_dates == [0.0] * 4
        assert stepper.local_dates == [10.0, 20.0, 30.0, 40.0]
        assert stepper.finish_time.to(TimeUnit.NS) == 40.0
        assert sim.stats.context_switches == 1

    def test_quantum_advance_syncs_at_the_quantum(self, sim):
        GlobalQuantum.instance(sim).set(25, TimeUnit.NS)
        stepper = Stepper(sim, "stepper", TimingMode.QUANTUM, steps=6, step_ns=10)
        sim.run()
        # Synchronizations at 30 ns and 60 ns (offsets of 30 reach the 25 ns
        # quantum); local dates still advance by 10 ns per step.
        assert stepper.local_dates == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        assert stepper.kernel_dates == [0.0, 0.0, 30.0, 30.0, 30.0, 60.0]
        assert stepper.finish_time.to(TimeUnit.NS) == 60.0

    def test_checkpoint_records_local_date_for_decoupled_modules(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.DECOUPLED)
        sim.run()
        record = list(sim.trace)[-1]
        assert record.message == "done"
        assert record.local_fs == stepper.finish_time.femtoseconds
        assert record.global_fs == 0

    def test_checkpoint_records_kernel_date_for_timed_modules(self, sim):
        Stepper(sim, "stepper", TimingMode.TIMED_WAIT)
        sim.run()
        record = list(sim.trace)[-1]
        assert record.local_fs == record.global_fs


class TestQuantumKeeperLaziness:
    def test_quantum_keeper_created_on_demand(self, sim):
        stepper = Stepper(sim, "stepper", TimingMode.DECOUPLED)
        assert stepper._quantum_keeper is None
        keeper = stepper.quantum_keeper
        assert stepper.quantum_keeper is keeper
