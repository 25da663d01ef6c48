"""Regression test: FifoLevelProbe stamps samples with *local* dates.

The probe is a :class:`~repro.td.decoupling.DecoupledMixin`; the validation
methodology of Section IV-A compares locally timestamped observations, so a
probe sample must carry the date at which the probe really observed the
level, not the raw global date.  This test runs the same seeded traffic in
the two modes of the paper's methodology (regular FIFO without decoupling,
Smart FIFO with decoupling) and requires the probe histories — dates
included — to be identical.
"""

from repro.fifo import RegularFifo, SmartFifo
from repro.kernel import PS, SimTime, Simulator, ns
from repro.soc import FifoLevelProbe
from repro.workloads import (
    RandomConsumer,
    RandomProducer,
    RandomTrafficConfig,
    TimingMode,
)


def run_probed_traffic(decoupled: bool, config: RandomTrafficConfig):
    sim = Simulator("smart" if decoupled else "reference")
    if decoupled:
        fifo = SmartFifo(sim, "fifo", depth=config.fifo_depth)
        timing = TimingMode.DECOUPLED
    else:
        fifo = RegularFifo(sim, "fifo", depth=config.fifo_depth)
        timing = TimingMode.TIMED_WAIT
    RandomProducer(sim, "producer", fifo, config, timing)
    RandomConsumer(sim, "consumer", fifo, config, timing)
    # Offset by 500 ps so probe dates can never collide with the integer
    # nanosecond dates of the data accesses (random_traffic convention).
    probe = FifoLevelProbe(
        sim,
        "probe",
        [fifo],
        period=ns(config.monitor_period_ns),
        samples=config.monitor_samples,
        start_offset=SimTime(500, PS),
    )
    sim.run()
    return probe


class TestProbeDatesAreLocal:
    def test_probe_histories_identical_between_modes(self):
        config = RandomTrafficConfig(seed=17, item_count=40, fifo_depth=3)
        reference = run_probed_traffic(False, config)
        smart = run_probed_traffic(True, config)
        ref_history = [
            (s.date.femtoseconds, s.fifo, s.level) for s in reference.samples
        ]
        smart_history = [
            (s.date.femtoseconds, s.fifo, s.level) for s in smart.samples
        ]
        assert len(ref_history) == config.monitor_samples
        assert ref_history == smart_history

    def test_probe_dates_follow_the_sampling_grid(self):
        config = RandomTrafficConfig(
            seed=3, item_count=30, fifo_depth=4, monitor_samples=5,
            monitor_period_ns=40,
        )
        probe = run_probed_traffic(True, config)
        expected = [
            SimTime(500, PS).femtoseconds + i * ns(40).femtoseconds
            for i in range(config.monitor_samples)
        ]
        assert [s.date.femtoseconds for s in probe.samples] == expected
