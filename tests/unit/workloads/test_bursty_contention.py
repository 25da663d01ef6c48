"""Unit tests for the bursty and arbiter-contention campaign workloads."""

import pytest

from repro.analysis.trace_diff import compare_collectors
from repro.workloads import (
    ArbiterContentionScenario,
    BurstyConfig,
    BurstyScenario,
    ContentionConfig,
    run_bursty_pair,
)


class TestBurstyWorkload:
    def test_burst_sizes_are_seeded_and_stable(self):
        config = BurstyConfig(seed=4)
        assert config.burst_sizes() == config.burst_sizes()
        assert BurstyConfig(seed=4).burst_sizes() == config.burst_sizes()
        assert BurstyConfig(seed=5).burst_sizes() != config.burst_sizes()
        assert config.total_items == sum(config.burst_sizes())

    def test_all_values_arrive_in_order(self, sim):
        config = BurstyConfig(seed=2, n_bursts=5, max_burst=6, fifo_depth=3)
        scenario = BurstyScenario(sim, decoupled=True, config=config)
        scenario.run()
        scenario.verify()
        assert scenario.consumed_values == tuple(range(config.total_items))

    @pytest.mark.parametrize("seed", [1, 3, 9])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_trace_equivalence_between_modes(self, seed, depth):
        config = BurstyConfig(seed=seed, fifo_depth=depth)
        ref_sim, dec_sim, ref, dec = run_bursty_pair(config)
        ref.verify()
        dec.verify()
        comparison = compare_collectors(ref_sim.trace, dec_sim.trace)
        assert comparison.equivalent, comparison.report()
        assert ref.consumed_values == dec.consumed_values

    def test_decoupled_run_is_cheaper_in_context_switches(self):
        config = BurstyConfig(seed=6, n_bursts=12, max_burst=10, fifo_depth=8)
        ref_sim, dec_sim, _, _ = run_bursty_pair(config)
        assert dec_sim.stats.context_switches < ref_sim.stats.context_switches


class TestContentionWorkload:
    def test_verify_passes_for_default_config(self, sim):
        scenario = ArbiterContentionScenario(sim, ContentionConfig(seed=1))
        scenario.run()
        scenario.verify()
        assert scenario.arbitration_happened

    def test_seeded_runs_are_deterministic(self):
        def run(seed):
            from repro.kernel import Simulator

            sim = Simulator(f"contention_{seed}")
            scenario = ArbiterContentionScenario(sim, ContentionConfig(seed=seed))
            scenario.run()
            return (
                scenario.all_tokens(),
                scenario.write_arbiter.grant_dates_fs,
                scenario.read_arbiter.grant_dates_fs,
            )

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_writers=0), dict(n_readers=0), dict(items_per_writer=0),
         dict(fifo_depth=0), dict(access_time_ns=-1)],
    )
    def test_contention_rejects_degenerate_configs(self, kwargs):
        with pytest.raises(ValueError):
            ContentionConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_bursts=0), dict(max_burst=0), dict(fifo_depth=0),
         dict(min_idle_ns=50, max_idle_ns=10)],
    )
    def test_bursty_rejects_degenerate_configs(self, kwargs):
        with pytest.raises(ValueError):
            BurstyConfig(**kwargs)
