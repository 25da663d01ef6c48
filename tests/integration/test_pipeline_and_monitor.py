"""Integration tests: streaming pipeline timing equality and monitor probes."""

import pytest

from repro.kernel import Simulator
from repro.kernel.simtime import TimeUnit, ns
from repro.soc import FifoLevelProbe
from repro.workloads import PipelineModel, StreamingConfig, StreamingPipeline


class TestPipelineTimingEquality:
    @pytest.mark.parametrize("depth", [1, 2, 4, 8, 16, 64])
    def test_completion_date_independent_of_model(self, depth):
        """For every FIFO depth, TDfull must finish at exactly the TDless date."""
        config = StreamingConfig(n_blocks=3, words_per_block=40, fifo_depth=depth)
        completions = {}
        for model in (PipelineModel.TDLESS, PipelineModel.TDFULL):
            sim = Simulator(f"{model.value}_{depth}")
            pipeline = StreamingPipeline(sim, model, config)
            pipeline.run()
            pipeline.verify()
            completions[model] = pipeline.completion_time.femtoseconds
        assert completions[PipelineModel.TDLESS] == completions[PipelineModel.TDFULL]

    def test_stage_finish_times_match(self):
        config = StreamingConfig(n_blocks=3, words_per_block=30, fifo_depth=4)
        finishes = {}
        for model in (PipelineModel.TDLESS, PipelineModel.TDFULL):
            sim = Simulator(model.value)
            pipeline = StreamingPipeline(sim, model, config)
            pipeline.run()
            finishes[model] = (
                pipeline.source.finish_time.femtoseconds,
                pipeline.transmitter.finish_time.femtoseconds,
                pipeline.sink.finish_time.femtoseconds,
            )
        assert finishes[PipelineModel.TDLESS] == finishes[PipelineModel.TDFULL]

    def test_varying_data_rates(self):
        """Rate combinations where each stage in turn is the bottleneck."""
        rate_sets = [
            (2, 10, 3),    # transmitter-bound
            (12, 3, 4),    # source-bound
            (3, 4, 15),    # sink-bound
        ]
        for source_ns, transmitter_ns, sink_ns in rate_sets:
            config = StreamingConfig(
                n_blocks=2,
                words_per_block=30,
                fifo_depth=4,
                source_word_time=ns(source_ns),
                transmitter_word_time=ns(transmitter_ns),
                sink_word_time=ns(sink_ns),
            )
            completions = set()
            for model in (PipelineModel.TDLESS, PipelineModel.TDFULL):
                sim = Simulator(f"{model.value}_{source_ns}_{transmitter_ns}_{sink_ns}")
                pipeline = StreamingPipeline(sim, model, config)
                pipeline.run()
                completions.add(pipeline.completion_time.femtoseconds)
            assert len(completions) == 1, (source_ns, transmitter_ns, sink_ns)


class TestMonitorOnPipeline:
    def test_probe_levels_match_between_models(self):
        """A hardware-style probe sampling the pipeline FIFOs must observe the
        same levels whether the pipeline is decoupled (Smart FIFO) or not."""
        config = StreamingConfig(n_blocks=2, words_per_block=25, fifo_depth=8)
        histories = {}
        for model in (PipelineModel.TDLESS, PipelineModel.TDFULL):
            sim = Simulator(model.value)
            pipeline = StreamingPipeline(sim, model, config)
            probe = FifoLevelProbe(
                sim,
                "probe",
                [pipeline.fifo1, pipeline.fifo2],
                period=ns(100),
                samples=6,
                start_offset=ns(0.5),
            )
            pipeline.run()
            histories[model] = [
                (sample.date.femtoseconds, sample.fifo.split(".")[-1], sample.level)
                for sample in probe.samples
            ]
        # The probe reads regular-FIFO sizes in one case and Smart FIFO
        # get_size in the other: the observed levels must be identical.
        tdless = [(date, name.replace("fifo", ""), level) for date, name, level in histories[PipelineModel.TDLESS]]
        tdfull = [(date, name.replace("fifo", ""), level) for date, name, level in histories[PipelineModel.TDFULL]]
        assert tdless == tdfull

    def test_probe_observes_backpressure(self):
        """With a slow sink the second FIFO must be observed full at least once."""
        config = StreamingConfig(
            n_blocks=2,
            words_per_block=40,
            fifo_depth=4,
            source_word_time=ns(2),
            transmitter_word_time=ns(2),
            sink_word_time=ns(30),
        )
        sim = Simulator()
        pipeline = StreamingPipeline(sim, PipelineModel.TDFULL, config)
        probe = FifoLevelProbe(
            sim, "probe", [pipeline.fifo2], period=ns(40), samples=15, start_offset=ns(0.5)
        )
        pipeline.run()
        assert max(level for _, level in probe.history_for(pipeline.fifo2.full_name)) == 4
