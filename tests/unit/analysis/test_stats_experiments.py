"""Unit tests for run measurement and the experiment drivers."""

import pytest

from repro.analysis import experiments
from repro.analysis.stats import RunResult, measure_run
from repro.kernel import Module
from repro.kernel.simtime import SimTime, TimeUnit
from repro.soc import SocConfig
from repro.workloads import PipelineModel, StreamingConfig


TINY = StreamingConfig(n_blocks=2, words_per_block=10, fifo_depth=4)


class TestMeasureRun:
    def test_measure_simple_scenario(self):
        class Ticker(Module):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.create_thread(self.run)

            def run(self):
                for _ in range(5):
                    yield self.wait(10)

        def setup(sim):
            Ticker(sim, "ticker")
            return None

        result = measure_run("ticker", setup)
        assert result.label == "ticker"
        assert result.sim_end.to(TimeUnit.NS) == 50.0
        assert result.context_switches == 6
        assert result.wall_seconds >= 0
        row = result.as_row()
        assert row["label"] == "ticker"
        assert row["context_switches"] == 6

    def test_gain_helper(self):
        fast = RunResult("fast", 1.0, SimTime(0), 10, 0, 0, 0)
        slow = RunResult("slow", 2.0, SimTime(0), 20, 0, 0, 0)
        assert abs(fast.gain_percent_vs(slow) - 50.0) < 1e-9


class TestExampleExperiment:
    def test_fig2_fig3_example_properties(self):
        result = experiments.fig2_fig3_example()
        assert result.smart_matches_reference
        assert result.naive_differs_from_reference
        table = result.table()
        assert "reference" in table and "smart" in table


class TestFig5Experiment:
    def test_depth_sweep_rows_and_tables(self):
        rows = experiments.fig5_depth_sweep(
            depths=(1, 4),
            base_config=TINY,
            models=(PipelineModel.TDLESS, PipelineModel.TDFULL),
        )
        assert len(rows) == 4
        depths = {row["depth"] for row in rows}
        assert depths == {1, 4}
        table = experiments.fig5_table(rows)
        assert "tdless" in table and "tdfull" in table
        series = experiments.fig5_series(rows)
        assert set(series) == {"tdless", "tdfull"}
        speedups = experiments.fig5_speedup_table(rows)
        assert "TDfull speedup" in speedups

    def test_pipeline_runner_reports_completion(self):
        result = experiments.run_pipeline(PipelineModel.TDFULL, TINY)
        assert result.extra["completion_ns"] > 0
        assert result.extra["model"] == "tdfull"


class TestFig5Shape:
    """The paper's Fig. 5 shape, on counters and dates rather than wall
    clock: TDless pays a context switch per FIFO access at every depth,
    while TDfull (Smart FIFO) and untimed only switch when the FIFO is
    internally full or empty.  The thresholds are those the paper's claims
    were checked against at the quick scale."""

    DEPTHS = (1, 2, 4, 8, 16, 64)

    @pytest.fixture(scope="class")
    def sweep(self):
        rows = experiments.fig5_depth_sweep(depths=self.DEPTHS, base_config=TINY)
        switches, completion = {}, {}
        for row in rows:
            switches.setdefault(row["model"], {})[row["depth"]] = row["context_switches"]
            completion.setdefault(row["model"], {})[row["depth"]] = row["completion_ns"]
        return switches, completion

    def test_tdfull_switches_shrink_with_depth(self, sweep):
        tdfull = sweep[0]["tdfull"]
        assert tdfull[max(self.DEPTHS)] * 4 <= tdfull[1]

    def test_tdless_switches_are_depth_independent(self, sweep):
        tdless = sweep[0]["tdless"]
        assert max(tdless.values()) < 1.3 * min(tdless.values())

    def test_tdfull_is_no_cheaper_than_tdless_at_depth_one(self, sweep):
        switches = sweep[0]
        assert switches["tdfull"][1] > 0.8 * switches["tdless"][1]

    def test_tdfull_gains_at_the_largest_depth(self, sweep):
        switches, depth = sweep[0], max(self.DEPTHS)
        assert switches["tdless"][depth] / switches["tdfull"][depth] > 1.5

    def test_tdfull_stays_within_four_times_untimed(self, sweep):
        switches = sweep[0]
        for depth in self.DEPTHS:
            assert switches["tdfull"][depth] <= 4 * switches["untimed"][depth]

    def test_tdless_and_tdfull_complete_on_the_same_date(self, sweep):
        completion = sweep[1]
        assert completion["tdfull"] == completion["tdless"]


class TestContextSwitchSweep:
    def test_rows_have_expected_columns(self):
        rows = experiments.context_switch_sweep(depths=(1, 8), base_config=TINY)
        assert all({"depth", "model", "context_switches", "delta_cycles"} <= set(row) for row in rows)
        table = experiments.context_switch_table(rows)
        assert "context_switches" in table


class TestQuantumAblation:
    def test_rows_include_reference_quanta_and_smart(self):
        rows = experiments.quantum_ablation(quanta_ns=(0, 1000), config=TINY)
        labels = [row["label"] for row in rows]
        assert labels[0] == "tdless_reference"
        assert "smart_fifo" in labels
        assert any(str(row["quantum_ns"]) == "1000" for row in rows)
        # The Smart FIFO row must have zero timing error, and so must
        # quantum 0, which disables decoupling.
        smart_row = [row for row in rows if row["label"] == "smart_fifo"][0]
        assert smart_row["timing_error_ns"] == 0.0
        zero_row = [row for row in rows if row["quantum_ns"] == 0][0]
        assert zero_row["timing_error_ns"] == 0.0
        table = experiments.quantum_table(rows)
        assert "timing_error_ns" in table

    def test_large_quantum_introduces_timing_error(self):
        rows = experiments.quantum_ablation(quanta_ns=(100000,), config=TINY)
        quantum_row = [row for row in rows if row["quantum_ns"] == 100000][0]
        assert quantum_row["timing_error_ns"] > 0.0


class TestCaseStudyExperiment:
    def test_small_case_study(self):
        config = SocConfig(n_chains=1, workers_per_chain=1, items_per_chain=32,
                           monitor_repetitions=1)
        result = experiments.case_study(config)
        assert result.timing_identical
        assert result.smart.context_switches < result.sync.context_switches / 2
        assert "Smart FIFO" in result.table()
        assert result.consumer_dates_ns["smart"] == result.consumer_dates_ns["sync"]
