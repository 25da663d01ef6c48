"""Unit tests for the global quantum and the quantum keeper.

Also reproduces the Section II-A discussion: with a global quantum, a flag
set for 10 ns may be invisible to an observer unless an explicit sync() is
inserted, and a cancellation-style message can be observed up to one
quantum late.
"""

import pytest

from repro.kernel import ns, us
from repro.kernel.simtime import TimeUnit
from repro.td import DecoupledModule, GlobalQuantum, QuantumKeeper


class TestGlobalQuantum:
    def test_per_simulator_singleton(self, sim):
        quantum = GlobalQuantum.instance(sim)
        assert GlobalQuantum.instance(sim) is quantum

    def test_default_disabled(self, sim):
        assert GlobalQuantum.instance(sim).quantum.is_zero
        assert not GlobalQuantum.instance(sim).enabled

    def test_set_quantum(self, sim):
        GlobalQuantum.instance(sim).set(1, TimeUnit.US)
        assert GlobalQuantum.instance(sim).quantum == us(1)
        assert GlobalQuantum.instance(sim).enabled


class TestQuantumKeeper:
    class Initiator(DecoupledModule):
        def __init__(self, parent, name, step_ns, steps, quantum=None):
            super().__init__(parent, name)
            self.keeper = QuantumKeeper(self, quantum)
            self.step_ns = step_ns
            self.steps = steps
            self.sync_dates = []
            self.create_thread(self.run)

        def run(self):
            for _ in range(self.steps):
                self.keeper.inc(self.step_ns)
                if self.keeper.need_sync():
                    yield from self.keeper.sync()
                    self.sync_dates.append(self.now.to(TimeUnit.NS))
            yield from self.keeper.sync()

    def test_zero_quantum_syncs_every_annotation(self, sim):
        initiator = self.Initiator(sim, "init", step_ns=10, steps=5)
        sim.run()
        assert initiator.sync_dates == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_large_quantum_batches_synchronizations(self, sim):
        GlobalQuantum.instance(sim).set(100, TimeUnit.NS)
        initiator = self.Initiator(sim, "init", step_ns=30, steps=10)
        sim.run()
        # Syncs happen only once the accumulated offset reaches 100 ns
        # (the final sync outside the loop is not recorded).
        assert initiator.sync_dates == [120.0, 240.0]
        assert sim.now.to(TimeUnit.NS) == 300.0

    def test_keeper_follows_a_global_quantum_set_after_construction(self, sim):
        initiator = self.Initiator(sim, "init", step_ns=30, steps=10)
        assert initiator.keeper.quantum.is_zero
        GlobalQuantum.instance(sim).set(100, TimeUnit.NS)
        assert initiator.keeper.quantum == ns(100)
        sim.run()
        assert initiator.sync_dates == [120.0, 240.0]

    def test_global_quantum_change_applies_at_the_next_check(self, sim):
        class Probe(DecoupledModule):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.keeper = QuantumKeeper(self)
                self.flags = []
                self.create_thread(self.run)

            def run(self):
                # Zero quantum and zero offset: nothing to synchronize.
                self.flags.append(self.keeper.need_sync())
                GlobalQuantum.instance(sim).set(100, TimeUnit.NS)
                self.keeper.inc(60)
                self.flags.append(self.keeper.need_sync())
                GlobalQuantum.instance(sim).set(50, TimeUnit.NS)
                self.flags.append(self.keeper.need_sync())
                yield from self.keeper.sync()

        probe = Probe(sim, "probe")
        sim.run()
        assert probe.flags == [False, False, True]
        assert sim.now == ns(60)

    def test_local_quantum_overrides_global(self, sim):
        GlobalQuantum.instance(sim).set(1000, TimeUnit.NS)
        initiator = self.Initiator(sim, "init", step_ns=30, steps=4, quantum=ns(50))
        sim.run()
        assert initiator.keeper.quantum == ns(50)
        assert initiator.sync_dates == [60.0, 120.0]

    def test_sync_if_needed(self, sim):
        class Lazy(DecoupledModule):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.keeper = QuantumKeeper(self, ns(100))
                self.synced_at = []
                self.create_thread(self.run)

            def run(self):
                self.keeper.inc(10)
                yield from self.keeper.sync_if_needed()   # below quantum: no-op
                self.synced_at.append(self.now.to(TimeUnit.NS))
                self.keeper.inc(200)
                yield from self.keeper.sync_if_needed()   # above quantum: sync
                self.synced_at.append(self.now.to(TimeUnit.NS))

        module = Lazy(sim, "lazy")
        sim.run()
        assert module.synced_at == [0.0, 210.0]

    def test_need_sync_reports_offset(self, sim):
        class Probe(DecoupledModule):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.keeper = QuantumKeeper(self, ns(40))
                self.flags = []
                self.create_thread(self.run)

            def run(self):
                self.flags.append(self.keeper.need_sync())
                self.keeper.inc(39)
                self.flags.append(self.keeper.need_sync())
                self.keeper.inc(1)
                self.flags.append(self.keeper.need_sync())
                yield from self.keeper.sync()

        probe = Probe(sim, "probe")
        sim.run()
        assert probe.flags == [False, False, True]


class TestQuantumAccuracyPitfall:
    """The flag-visibility example of Section II-A."""

    class FlagSetter(DecoupledModule):
        def __init__(self, parent, name, flag, explicit_sync):
            super().__init__(parent, name)
            self.flag = flag
            self.explicit_sync = explicit_sync
            self.create_thread(self.run)

        def run(self):
            self.flag["value"] = 1
            self.inc(10)
            if self.explicit_sync:
                yield from self.sync()
            self.flag["value"] = 0
            yield from self.sync()

    class FlagObserver(DecoupledModule):
        def __init__(self, parent, name, flag):
            super().__init__(parent, name)
            self.flag = flag
            self.observed = []
            self.create_thread(self.run)

        def run(self):
            yield self.wait(5)
            self.observed.append(self.flag["value"])

    def test_without_sync_the_flag_pulse_is_invisible(self, sim):
        flag = {"value": 0}
        self.FlagSetter(sim, "setter", flag, explicit_sync=False)
        observer = self.FlagObserver(sim, "observer", flag)
        sim.run()
        # The setter reset the flag at global date 0 (its local date was 10 ns
        # but no synchronization happened): the observer at 5 ns sees 0.
        assert observer.observed == [0]

    def test_with_explicit_sync_the_pulse_is_visible(self, sim):
        flag = {"value": 0}
        self.FlagSetter(sim, "setter", flag, explicit_sync=True)
        observer = self.FlagObserver(sim, "observer", flag)
        sim.run()
        assert observer.observed == [1]
