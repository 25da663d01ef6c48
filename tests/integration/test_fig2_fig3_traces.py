"""Integration test reproducing the execution traces of Fig. 2 and Fig. 3.

EXP-FIG2 / EXP-FIG3 of DESIGN.md: the exact dates of every FIFO access in
the three executions of the writer/reader example, plus the trace-level
equivalence between the reference and the Smart FIFO executions.
"""

from repro.analysis.trace_diff import compare_collectors, emission_order_changed
from repro.analysis.experiments import fig2_fig3_example
from repro.kernel import Simulator
from repro.kernel.simtime import TimeUnit
from repro.workloads import ExampleMode, WriterReaderExample


class TestFigureDates:
    def test_full_example_result(self):
        result = fig2_fig3_example()
        # Fig. 2 (reference): writes at 0/20/40, reads complete at 0/20/40.
        assert result.reference == [(1, 0.0, 0.0), (2, 20.0, 20.0), (3, 40.0, 40.0)]
        # Fig. 3 (decoupling without synchronization): the reader's dates are
        # wrong because every write happened at the global date 0.
        assert result.naive_decoupled == [(1, 0.0, 0.0), (2, 20.0, 15.0), (3, 40.0, 30.0)]
        # Smart FIFO: identical to the reference, as required by Section III.
        assert result.smart == result.reference
        assert result.smart_matches_reference
        assert result.naive_differs_from_reference

    def test_depth_one_fifo_still_matches(self):
        result = fig2_fig3_example(fifo_depth=1)
        assert result.smart == result.reference


class TestTraceEquivalence:
    def run_example(self, mode):
        sim = Simulator(mode.value)
        example = WriterReaderExample(sim, mode=mode)
        example.run()
        return sim, example

    def test_smart_traces_equal_reference_after_reordering(self):
        ref_sim, _ = self.run_example(ExampleMode.REFERENCE)
        smart_sim, _ = self.run_example(ExampleMode.SMART)
        comparison = compare_collectors(ref_sim.trace, smart_sim.trace)
        assert comparison.equivalent, comparison.report()

    def test_naive_traces_differ_from_reference(self):
        ref_sim, _ = self.run_example(ExampleMode.REFERENCE)
        naive_sim, _ = self.run_example(ExampleMode.DECOUPLED_NO_SYNC)
        comparison = compare_collectors(ref_sim.trace, naive_sim.trace)
        assert not comparison.equivalent

    def test_schedule_changes_but_dates_do_not(self):
        """The signature of a correct Smart FIFO run (Section IV-A): the raw
        emission order changes, the sorted traces are identical."""
        ref_sim, _ = self.run_example(ExampleMode.REFERENCE)
        smart_sim, _ = self.run_example(ExampleMode.SMART)
        assert emission_order_changed(ref_sim.trace, smart_sim.trace)
        assert compare_collectors(ref_sim.trace, smart_sim.trace).equivalent

    def test_global_time_lags_behind_local_time_in_smart_mode(self):
        _, smart = self.run_example(ExampleMode.SMART)
        # With full decoupling and a deep-enough FIFO, the kernel date never
        # needs to advance: all the timing lives in the local dates.
        assert smart.sim.now.femtoseconds < smart.writer.finish_time.femtoseconds

    def test_context_switch_comparison(self):
        ref_sim, _ = self.run_example(ExampleMode.REFERENCE)
        smart_sim, _ = self.run_example(ExampleMode.SMART)
        assert smart_sim.stats.context_switches < ref_sim.stats.context_switches
