"""Unit tests for the experiment drivers.

Every figure driver but Fig. 2/3 runs campaign specs through
:func:`repro.campaign.evaluators.simulate`; the pinned counters below
were measured on the drivers' previous, separate simulation path, so
they hold both paths to the same schedules.
"""

import pytest

from repro.analysis import experiments
from repro.campaign.rows import CampaignResult
from repro.workloads import PipelineModel, StreamingConfig


TINY = StreamingConfig(n_blocks=2, words_per_block=10, fifo_depth=4)
#: The small scale every figure's rows are pinned at.
SMALL = StreamingConfig(n_blocks=4, words_per_block=25)


def _by_model(rows, column):
    table = {}
    for row in rows:
        table.setdefault(row["model"], {})[row["depth"]] = row[column]
    return table


class TestExampleExperiment:
    def test_fig2_fig3_example_properties(self):
        result = experiments.fig2_fig3_example()
        assert result.smart_matches_reference
        assert result.naive_differs_from_reference
        table = result.table()
        assert "reference" in table and "smart" in table


class TestFig5Experiment:
    def test_depth_sweep_rows_and_tables(self):
        rows = experiments.fig5_rows(experiments.fig5_depth_sweep(
            depths=(1, 4),
            base_config=TINY,
            models=(PipelineModel.TDLESS, PipelineModel.TDFULL),
        ))
        assert [(row["depth"], row["model"]) for row in rows] == [
            (1, "tdless"), (1, "tdfull"), (4, "tdless"), (4, "tdfull"),
        ]
        assert all(row["completion_ns"] > 0 for row in rows)
        table = experiments.fig5_table(rows)
        assert "tdless" in table and "tdfull" in table
        series = experiments.fig5_series(rows)
        assert set(series) == {"tdless", "tdfull"}
        speedups = experiments.fig5_speedup_table(rows)
        assert "TDfull speedup" in speedups

    def test_each_model_runs_as_a_streaming_spec(self):
        result = experiments.fig5_depth_sweep(depths=(2,), base_config=TINY)
        assert [(r.name, r.workload, r.mode, r.timing, r.depth)
                for r in result.runs] == [
            ("untimed_d2", "streaming", "smart", "untimed", 2),
            ("tdless_d2", "streaming", "reference", None, 2),
            ("tdfull_d2", "streaming", "smart", None, 2),
        ]


class TestFig5Pinned:
    """4 blocks x 25 words at depths 1, 4 and 16."""

    @pytest.fixture(scope="class")
    def result(self):
        return experiments.fig5_depth_sweep(depths=(1, 4, 16), base_config=SMALL)

    def test_context_switches(self, result):
        assert _by_model(experiments.fig5_rows(result), "context_switches") == {
            "untimed": {1: 302, 4: 77, 16: 23},
            "tdless": {1: 466, 4: 363, 16: 322},
            "tdfull": {1: 458, 4: 91, 16: 23},
        }

    def test_completion_dates(self, result):
        completion = _by_model(experiments.fig5_rows(result), "completion_ns")
        expected = {1: 1360.0, 4: 1258.0, 16: 1258.0}
        assert completion["tdless"] == expected
        assert completion["tdfull"] == expected

    def test_delta_cycles_and_end_dates(self, result):
        rows = experiments.fig5_rows(result)
        assert _by_model(rows, "delta_cycles") == {
            "untimed": {1: 200, 4: 50, 16: 14},
            "tdless": {1: 448, 4: 324, 16: 268},
            "tdfull": {1: 440, 4: 87, 16: 21},
        }
        assert _by_model(rows, "sim_end")["tdfull"] == {
            1: "1348 ns", 4: "1210 ns", 16: "1210 ns",
        }

    def test_fingerprint(self, result):
        assert result.fingerprint() == (
            "7e042ee8f003724ed8e87bb4aeed9908b24bc01d31119ada28b22d5a76fd58c2"
        )


class TestFig5Shape:
    """The paper's Fig. 5 shape, on counters and dates rather than wall
    clock: TDless pays a context switch per FIFO access at every depth,
    while TDfull (Smart FIFO) and untimed only switch when the FIFO is
    internally full or empty.  The thresholds are those the paper's claims
    were checked against at the quick scale."""

    DEPTHS = (1, 2, 4, 8, 16, 64)

    @pytest.fixture(scope="class")
    def sweep(self):
        rows = experiments.fig5_rows(
            experiments.fig5_depth_sweep(depths=self.DEPTHS, base_config=TINY)
        )
        return _by_model(rows, "context_switches"), _by_model(rows, "completion_ns")

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


class TestQuantumAblation:
    def test_rows_include_reference_quanta_and_smart(self):
        rows = experiments.quantum_rows(
            experiments.quantum_ablation(quanta_ns=(0, 1000), config=TINY)
        )
        labels = [row["label"] for row in rows]
        assert labels == [
            "tdless_reference", "quantum_0ns", "quantum_1000ns", "smart_fifo",
        ]
        assert [row["quantum_ns"] for row in rows] == ["-", 0, 1000, "none needed"]
        # The Smart FIFO row must have zero timing error, and so must
        # quantum 0, which disables decoupling.
        smart_row = [row for row in rows if row["label"] == "smart_fifo"][0]
        assert smart_row["timing_error_ns"] == 0.0
        zero_row = [row for row in rows if row["quantum_ns"] == 0][0]
        assert zero_row["timing_error_ns"] == 0.0
        table = experiments.quantum_table(rows)
        assert "timing_error_ns" in table

    def test_large_quantum_introduces_timing_error(self):
        rows = experiments.quantum_rows(
            experiments.quantum_ablation(quanta_ns=(100000,), config=TINY)
        )
        quantum_row = [row for row in rows if row["quantum_ns"] == 100000][0]
        assert quantum_row["timing_error_ns"] > 0.0

    def test_pinned_at_the_small_scale(self):
        result = experiments.quantum_ablation(quanta_ns=(0, 100, 1000), config=SMALL)
        rows = experiments.quantum_rows(result)
        quanta = {row["quantum_ns"]: row for row in rows
                  if row["model"] == "quantum"}
        assert [quanta[q]["context_switches"] for q in (0, 100, 1000)] == [
            322, 38, 25,
        ]
        assert [quanta[q]["completion_ns"] for q in (0, 100, 1000)] == [
            1258.0, 1234.0, 1200.0,
        ]
        assert result.fingerprint() == (
            "5534c00f0a700dd93b6a4783d1c0f858b49197f9f83736ac971dc110804c98df"
        )


class TestCaseStudyExperiment:
    def test_small_case_study(self):
        result = experiments.case_study(
            n_chains=1, items_per_chain=32, workers_per_chain=1
        )
        assert result.timing_identical
        assert result.smart.context_switches < result.sync.context_switches / 2
        assert "Smart FIFO" in result.table()
        assert [row["label"] for row in result.rows()] == [
            "sync_per_access", "smart_fifo",
        ]
        assert set(result.top_processes) == {"reference", "smart"}

    def test_pinned_benchmark_platform(self):
        """``SocConfig.benchmark(n_chains=2, items_per_chain=64)``."""
        result = experiments.case_study(n_chains=2, items_per_chain=64)
        assert [(r.context_switches, r.method_invocations, r.delta_cycles,
                 r.sim_end_fs) for r in (result.sync, result.smart)] == [
            (726, 384, 331, 16548 * 10**6),
            (144, 318, 176, 16548 * 10**6),
        ]
        assert result.timing_identical
        assert result.top_processes["smart"][0] == ("src_ni_0_0.packetize", 49)
        runs = CampaignResult(
            runs=[result.sync, result.smart], pairs=[], workers=1,
            wall_seconds=0.0,
        )
        assert runs.fingerprint() == (
            "674a6ee94e14f005c80829523a97a3efc19b012d62573d5189a5915924b88efe"
        )

    def test_gain_is_relative_to_sync_per_access(self):
        result = experiments.case_study(
            n_chains=1, items_per_chain=32, workers_per_chain=1
        )
        result.sync.wall_seconds, result.smart.wall_seconds = 2.0, 1.0
        assert result.gain_percent == 50.0
        result.sync.wall_seconds = 0.0
        assert result.gain_percent == 0.0
