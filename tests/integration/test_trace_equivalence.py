"""Integration tests implementing the paper's validation methodology (IV-A).

Every scenario is executed twice — (regular FIFO, no decoupling) and
(Smart FIFO, decoupling), random tests reusing the same seed — and the
locally-timestamped traces must be identical after reordering.  Monitor
accesses are part of the traces.
"""

import pytest

from repro.analysis.trace_diff import compare_collectors
from repro.kernel import Simulator
from repro.kernel.simtime import TimeUnit
from repro.workloads import (
    RandomTrafficConfig,
    RandomTrafficScenario,
    VideoConfig,
    VideoPipeline,
    run_pair,
)


class TestRandomTrafficEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 13, 42])
    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_seeded_scenarios_are_equivalent(self, seed, depth):
        config = RandomTrafficConfig(
            seed=seed, item_count=40, fifo_depth=depth, monitor_samples=5
        )
        ref_sim, dec_sim, ref, dec = run_pair(config)
        comparison = compare_collectors(ref_sim.trace, dec_sim.trace)
        assert comparison.equivalent, (
            f"seed={seed} depth={depth}:\n" + comparison.report()
        )
        assert ref.consumed_values == dec.consumed_values
        assert ref.monitor_samples == dec.monitor_samples

    def test_decoupled_run_is_cheaper_in_context_switches(self):
        config = RandomTrafficConfig(seed=5, item_count=120, fifo_depth=16,
                                     monitor_samples=3)
        ref_sim, dec_sim, _, _ = run_pair(config)
        assert dec_sim.stats.context_switches < ref_sim.stats.context_switches

    def test_bursty_asymmetric_rates(self):
        # Fast producer, slow consumer: the FIFO spends most of the time full.
        config = RandomTrafficConfig(
            seed=9,
            item_count=60,
            fifo_depth=3,
            max_producer_delay_ns=4,
            max_consumer_delay_ns=40,
            monitor_samples=8,
            monitor_period_ns=70,
        )
        ref_sim, dec_sim, ref, dec = run_pair(config)
        assert compare_collectors(ref_sim.trace, dec_sim.trace).equivalent
        assert ref.monitor_samples == dec.monitor_samples

    def test_slow_producer_fast_consumer(self):
        # The consumer blocks on an empty FIFO most of the time.
        config = RandomTrafficConfig(
            seed=21,
            item_count=60,
            fifo_depth=3,
            max_producer_delay_ns=40,
            max_consumer_delay_ns=4,
            monitor_samples=8,
            monitor_period_ns=90,
        )
        ref_sim, dec_sim, _, _ = run_pair(config)
        assert compare_collectors(ref_sim.trace, dec_sim.trace).equivalent


class TestVideoPipelineEquivalence:
    def test_macroblock_dates_identical(self):
        config = VideoConfig(n_frames=3, macroblocks_per_frame=16, fifo_depth=4)
        dates = {}
        for decoupled in (False, True):
            sim = Simulator("dec" if decoupled else "ref")
            pipeline = VideoPipeline(sim, decoupled=decoupled, config=config)
            pipeline.run()
            dates[decoupled] = [
                d.to(TimeUnit.NS) for d in pipeline.display.completion_dates
            ]
        assert dates[True] == dates[False]

    @pytest.mark.parametrize("depth", [1, 2, 8])
    def test_depth_does_not_change_dates(self, depth):
        config = VideoConfig(n_frames=2, macroblocks_per_frame=12, fifo_depth=depth)
        reference_depth_config = VideoConfig(
            n_frames=2, macroblocks_per_frame=12, fifo_depth=depth
        )
        ref_sim = Simulator("ref")
        ref = VideoPipeline(ref_sim, decoupled=False, config=reference_depth_config)
        ref.run()
        dec_sim = Simulator("dec")
        dec = VideoPipeline(dec_sim, decoupled=True, config=config)
        dec.run()
        assert [d.femtoseconds for d in ref.display.completion_dates] == [
            d.femtoseconds for d in dec.display.completion_dates
        ]


class TestScenarioWithoutMonitor:
    def test_equivalence_without_monitor_process(self):
        config = RandomTrafficConfig(seed=31, item_count=50, fifo_depth=2)
        ref_sim, dec_sim, ref, dec = run_pair(config, with_monitor=False)
        assert compare_collectors(ref_sim.trace, dec_sim.trace).equivalent
        assert ref.consumed_values == dec.consumed_values
