"""Unit tests for the case-study platform assembly and the FIFO level probe."""

import pytest

from repro.fifo import RegularFifo, SmartFifo
from repro.kernel import SimulationError, Simulator
from repro.kernel.simtime import TimeUnit, ns
from repro.soc import FifoLevelProbe, FifoPolicy, SocConfig, SocPlatform
from repro.td import DecoupledModule


class TestSocConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            SocConfig(items_per_chain=10, packet_size=4).validate()
        with pytest.raises(SimulationError):
            SocConfig(packet_size=32, fifo_depth=8).validate()
        with pytest.raises(SimulationError):
            SocConfig(n_chains=0).validate()
        SocConfig.small().validate()
        SocConfig.benchmark(n_chains=3).validate()


class TestPlatform:
    @pytest.mark.parametrize("policy", [FifoPolicy.SMART, FifoPolicy.SYNC_PER_ACCESS])
    def test_small_platform_completes_and_verifies(self, policy):
        sim = Simulator(policy.value)
        platform = SocPlatform(sim, policy=policy, config=SocConfig.small())
        platform.run()
        platform.verify()
        for chain in platform.chains:
            assert chain.consumer.items_processed == platform.config.items_per_chain
            assert chain.consumer.finish_time is not None
        assert platform.core.finish_time is not None
        assert platform.core.monitor_samples  # firmware monitored FIFO levels

    def test_two_chains_share_the_noc(self):
        sim = Simulator()
        config = SocConfig(
            n_chains=2,
            workers_per_chain=1,
            items_per_chain=32,
            monitor_repetitions=1,
        )
        platform = SocPlatform(sim, config=config)
        platform.run()
        platform.verify()
        assert platform.mesh.total_packets_routed > 0
        finishes = platform.consumer_finish_times()
        assert len(finishes) == 2

    def test_policies_have_identical_timing_but_different_cost(self):
        config = SocConfig(n_chains=2, workers_per_chain=2, items_per_chain=64)
        results = {}
        for policy in (FifoPolicy.SMART, FifoPolicy.SYNC_PER_ACCESS):
            sim = Simulator(policy.value)
            platform = SocPlatform(sim, policy=policy, config=config)
            platform.run()
            platform.verify()
            results[policy] = {
                "finish": {
                    name: date.to(TimeUnit.NS)
                    for name, date in platform.consumer_finish_times().items()
                },
                "core_finish": platform.core.finish_time.to(TimeUnit.NS),
                "monitor": platform.core.monitor_samples,
                "switches": sim.stats.context_switches,
            }
        smart = results[FifoPolicy.SMART]
        sync = results[FifoPolicy.SYNC_PER_ACCESS]
        assert smart["finish"] == sync["finish"]
        assert smart["core_finish"] == sync["core_finish"]
        assert smart["monitor"] == sync["monitor"]
        assert smart["switches"] < sync["switches"]

    def test_register_map_and_bus_accesses(self):
        sim = Simulator()
        platform = SocPlatform(sim, config=SocConfig.small())
        platform.run()
        assert platform.bus.total_accesses() > 0
        # Every accelerator got at least the ITEMS and CTRL writes.
        for name in platform.accelerators:
            assert platform.bus.accesses[name] >= 2

    def test_fifo_blocking_waits_reported(self):
        sim = Simulator()
        platform = SocPlatform(sim, config=SocConfig.small())
        platform.run()
        assert platform.fifo_blocking_waits() >= 0
        assert isinstance(platform.fifo_blocking_waits(), int)


class TestFifoLevelProbe:
    def test_probe_samples_levels(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=8)

        class Producer(DecoupledModule):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.create_thread(self.run)

            def run(self):
                for value in range(6):
                    yield from fifo.write(value)
                    self.inc(10)

        Producer(sim, "producer")
        probe = FifoLevelProbe(
            sim, "probe", [fifo], period=ns(20), samples=3, start_offset=ns(5)
        )
        sim.run()
        history = probe.history_for(fifo.full_name)
        assert [level for _, level in history] == [1, 3, 5]
        assert max(sample.level for sample in probe.samples) == 5

    def test_probe_multiple_fifos(self, sim):
        fifo_a = SmartFifo(sim, "fifo_a", depth=4)
        fifo_b = SmartFifo(sim, "fifo_b", depth=4)
        fifo_a.nb_write(1)
        probe = FifoLevelProbe(sim, "probe", [fifo_a, fifo_b], period=ns(10), samples=2)
        sim.run()
        assert len(probe.samples) == 4
        assert {(sample.fifo, sample.level) for sample in probe.samples} == {
            (fifo_a.full_name, 1),
            (fifo_b.full_name, 0),
        }

    def test_samples_carry_the_sampling_dates(self, sim):
        fifo = SmartFifo(sim, "fifo", depth=8)

        class Producer(DecoupledModule):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.create_thread(self.run)

            def run(self):
                for value in range(4):
                    yield from fifo.write(value)
                    self.inc(10)

        Producer(sim, "producer")
        probe = FifoLevelProbe(
            sim, "probe", [fifo], period=ns(10), samples=4, start_offset=ns(5)
        )
        sim.run()
        assert probe.history_for(fifo.full_name) == [
            (ns(5), 1),
            (ns(15), 2),
            (ns(25), 3),
            (ns(35), 4),
        ]

    def test_history_for_separates_the_fifos(self, sim):
        fifo_a = SmartFifo(sim, "fifo_a", depth=4)
        fifo_b = SmartFifo(sim, "fifo_b", depth=4)
        fifo_a.nb_write(1)
        probe = FifoLevelProbe(sim, "probe", [fifo_a, fifo_b], period=ns(10), samples=2)
        sim.run()
        assert probe.history_for(fifo_a.full_name) == [(ns(1), 1), (ns(11), 1)]
        assert probe.history_for(fifo_b.full_name) == [(ns(1), 0), (ns(11), 0)]
        assert probe.history_for("missing") == []

    def test_probe_samples_a_regular_fifo(self, sim):
        fifo = RegularFifo(sim, "regular", depth=4)
        fifo.nb_write("a")
        fifo.nb_write("b")
        probe = FifoLevelProbe(sim, "probe", [fifo], period=ns(10), samples=3)
        sim.run()
        assert probe.history_for(fifo.full_name) == [
            (ns(1), 2),
            (ns(11), 2),
            (ns(21), 2),
        ]
