"""Unit tests for the streaming workloads (Fig. 1/2/3 example, Fig. 5 pipeline)."""

from dataclasses import replace

import pytest

from repro.kernel import Simulator
from repro.kernel.simtime import TimeUnit
from repro.workloads import (
    ExampleMode,
    PipelineModel,
    StreamingConfig,
    StreamingPipeline,
    TimingMode,
    WriterReaderExample,
)


class TestWriterReaderExample:
    def test_reference_dates_are_the_fig2_dates(self):
        sim = Simulator()
        example = WriterReaderExample(sim, mode=ExampleMode.REFERENCE)
        example.run()
        assert example.dates_ns() == [
            (1, 0.0, 0.0),
            (2, 20.0, 20.0),
            (3, 40.0, 40.0),
        ]
        # Writer ends after its last 20 ns wait, reader after its last 15 ns.
        assert example.writer.finish_time.to(TimeUnit.NS) == 60.0
        assert example.reader.finish_time.to(TimeUnit.NS) == 55.0

    def test_naive_decoupling_reproduces_the_fig3_error(self):
        sim = Simulator()
        example = WriterReaderExample(sim, mode=ExampleMode.DECOUPLED_NO_SYNC)
        example.run()
        # All FIFO accesses happen at the global date 0: the reader sees the
        # data immediately and its dates are wrong (0/15/30 instead of
        # 0/20/40).
        assert example.dates_ns() == [
            (1, 0.0, 0.0),
            (2, 20.0, 15.0),
            (3, 40.0, 30.0),
        ]
        assert example.reader.finish_time.to(TimeUnit.NS) == 45.0

    def test_smart_fifo_restores_the_reference_dates(self):
        sim = Simulator()
        example = WriterReaderExample(sim, mode=ExampleMode.SMART)
        example.run()
        assert example.dates_ns() == [
            (1, 0.0, 0.0),
            (2, 20.0, 20.0),
            (3, 40.0, 40.0),
        ]
        assert example.writer.finish_time.to(TimeUnit.NS) == 60.0
        assert example.reader.finish_time.to(TimeUnit.NS) == 55.0

    def test_values_read_in_order(self):
        sim = Simulator()
        example = WriterReaderExample(sim, mode=ExampleMode.SMART, fifo_depth=1)
        example.run()
        assert example.reader.values_read == [1, 2, 3]


class TestStreamingConfig:
    def test_defaults(self):
        config = StreamingConfig()
        assert config.total_words == config.n_blocks * config.words_per_block


SMALL = StreamingConfig(n_blocks=4, words_per_block=25, fifo_depth=4)
#: The 1,000-word pipeline of the context-switch bounds below.
SWEEP = StreamingConfig(n_blocks=20, words_per_block=50)


def context_switches(model, config):
    sim = Simulator(f"{model.value}_d{config.fifo_depth}")
    StreamingPipeline(sim, model, config).run()
    return sim.stats.context_switches


class TestStreamingPipeline:
    @pytest.mark.parametrize("model", list(PipelineModel))
    def test_all_words_delivered(self, model):
        sim = Simulator(model.value)
        pipeline = StreamingPipeline(sim, model, SMALL)
        pipeline.run()
        pipeline.verify()
        assert pipeline.sink.items_processed == SMALL.total_words
        assert pipeline.checksum == pipeline.expected_checksum()

    def test_untimed_model_finishes_at_time_zero(self):
        sim = Simulator()
        pipeline = StreamingPipeline(sim, PipelineModel.UNTIMED, SMALL)
        pipeline.run()
        assert pipeline.completion_time.femtoseconds == 0

    def test_tdless_and_tdfull_have_identical_completion_dates(self):
        completions = {}
        for model in (PipelineModel.TDLESS, PipelineModel.TDFULL):
            sim = Simulator(model.value)
            pipeline = StreamingPipeline(sim, model, SMALL)
            pipeline.run()
            completions[model] = pipeline.completion_time.to(TimeUnit.NS)
            for stage in (pipeline.source, pipeline.transmitter, pipeline.sink):
                assert stage.finish_time is not None
        assert completions[PipelineModel.TDLESS] == completions[PipelineModel.TDFULL]

    def test_tdfull_uses_fewer_context_switches_for_deep_fifos(self):
        # (config, k): TDfull needs under 1/k of TDless's switches and at
        # most 2.5x those of the untimed lower bound.
        inputs = [(StreamingConfig(n_blocks=4, words_per_block=25, fifo_depth=32), 4)]
        inputs += [(replace(SWEEP, fifo_depth=depth), 2) for depth in (4, 8, 32)]
        for config, k in inputs:
            switches = {
                model: context_switches(model, config)
                for model in (PipelineModel.TDLESS, PipelineModel.TDFULL,
                              PipelineModel.UNTIMED)
            }
            tdfull = switches[PipelineModel.TDFULL]
            assert tdfull < switches[PipelineModel.TDLESS] / k, config
            assert tdfull <= switches[PipelineModel.UNTIMED] * 2.5, config

    def test_deeper_fifos_reduce_tdfull_context_switches(self):
        def switches(depth):
            config = StreamingConfig(n_blocks=4, words_per_block=25, fifo_depth=depth)
            return context_switches(PipelineModel.TDFULL, config)

        assert switches(16) < switches(2) < switches(1)
        # A single cell blocks on every access: TDfull keeps no advantage.
        single = replace(SWEEP, fifo_depth=1)
        assert context_switches(PipelineModel.TDFULL, single) >= (
            0.5 * context_switches(PipelineModel.TDLESS, single)
        )

    def test_timing_modes_exposed(self):
        sim = Simulator()
        pipeline = StreamingPipeline(sim, PipelineModel.TDFULL, SMALL)
        assert pipeline.source.timing is TimingMode.DECOUPLED
        sim2 = Simulator()
        pipeline2 = StreamingPipeline(sim2, PipelineModel.UNTIMED, SMALL)
        assert pipeline2.source.timing is TimingMode.UNTIMED
