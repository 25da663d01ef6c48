"""Streaming pipeline workloads.

This module contains the two workloads used by the paper's evaluation:

* :class:`WriterReaderExample` — the didactic two-process example of
  Fig. 1/2/3: a writer produces three values spaced by 20 ns, a reader
  consumes them with 15 ns of processing per value.  Running it in the
  three modes (reference, naively decoupled, Smart FIFO) reproduces the
  execution traces of Fig. 2 and Fig. 3 and demonstrates that the Smart
  FIFO restores the reference dates.

* :class:`StreamingPipeline` — the performance benchmark of Fig. 5: a
  ``source -> transmitter -> sink`` chain connected by two FIFOs,
  transferring ``n_blocks`` blocks of ``words_per_block`` words with
  configurable data rates, in the three implementations compared by the
  paper (*untimed*, *TDless*, *TDfull*).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..fifo.interfaces import FifoInterface
from ..fifo.regular_fifo import RegularFifo
from ..fifo.smart_fifo import SmartFifo
from ..kernel.simtime import SimTime, TimeUnit, ns
from ..kernel.simulator import Simulator
from .base import TimingMode, WorkloadModule


# ---------------------------------------------------------------------------
# Fig. 1 / 2 / 3 — writer/reader example
# ---------------------------------------------------------------------------
class ExampleMode(enum.Enum):
    """The three executions discussed in Sections II-B and III."""

    #: Regular FIFO, plain ``wait`` annotations — the timing reference (Fig. 2).
    REFERENCE = "reference"
    #: Regular FIFO, ``inc`` annotations but no synchronization — the broken
    #: execution of Fig. 3 (all FIFO accesses happen at t = 0).
    DECOUPLED_NO_SYNC = "decoupled_no_sync"
    #: Smart FIFO with ``inc`` annotations — must reproduce the Fig. 2 dates.
    SMART = "smart"


class _ExampleWriter(WorkloadModule):
    """Writes ``values`` spaced by ``period`` (20 ns in the paper)."""

    def __init__(self, parent, name, fifo, values, period: SimTime, timing: TimingMode):
        super().__init__(parent, name, timing)
        self.fifo = fifo
        self.values = list(values)
        self.period = period
        self.write_dates: List[Tuple[int, SimTime]] = []
        self.create_thread(self.run)

    def run(self):
        for value in self.values:
            yield from self.fifo.write(value)
            date = (
                self.local_time_stamp()
                if self.timing is TimingMode.DECOUPLED
                else self.now
            )
            self.write_dates.append((value, date))
            self.checkpoint(f"wr {value}")
            yield from self.advance(self.period.to(TimeUnit.NS))
        self.mark_finished()


class _ExampleReader(WorkloadModule):
    """Reads ``count`` values, spending ``period`` (15 ns) after each read."""

    def __init__(self, parent, name, fifo, count: int, period: SimTime, timing: TimingMode):
        super().__init__(parent, name, timing)
        self.fifo = fifo
        self.count = count
        self.period = period
        self.read_dates: List[Tuple[int, SimTime]] = []
        self.values_read: List[int] = []
        self.create_thread(self.run)

    def run(self):
        for _ in range(self.count):
            value = yield from self.fifo.read()
            date = (
                self.local_time_stamp()
                if self.timing is TimingMode.DECOUPLED
                else self.now
            )
            self.values_read.append(value)
            self.read_dates.append((value, date))
            self.checkpoint(f"rd {value}")
            yield from self.advance(self.period.to(TimeUnit.NS))
        self.mark_finished()


class WriterReaderExample:
    """The complete Fig. 1 model, in a selectable execution mode."""

    def __init__(
        self,
        sim: Simulator,
        mode: ExampleMode = ExampleMode.REFERENCE,
        fifo_depth: int = 4,
        values: Tuple[int, ...] = (1, 2, 3),
        write_period: SimTime = ns(20),
        read_period: SimTime = ns(15),
    ):
        self.sim = sim
        self.mode = mode
        if mode is ExampleMode.REFERENCE:
            fifo: FifoInterface = RegularFifo(sim, "fifo", depth=fifo_depth)
            timing = TimingMode.TIMED_WAIT
        elif mode is ExampleMode.DECOUPLED_NO_SYNC:
            fifo = RegularFifo(sim, "fifo", depth=fifo_depth)
            timing = TimingMode.DECOUPLED
        else:
            fifo = SmartFifo(sim, "fifo", depth=fifo_depth)
            timing = TimingMode.DECOUPLED
        self.fifo = fifo
        self.writer = _ExampleWriter(sim, "writer", fifo, values, write_period, timing)
        self.reader = _ExampleReader(
            sim, "reader", fifo, len(values), read_period, timing
        )

    def run(self) -> None:
        self.sim.run()

    @property
    def write_dates(self):
        return list(self.writer.write_dates)

    @property
    def read_dates(self):
        return list(self.reader.read_dates)

    def dates_ns(self):
        """(value, write ns, read ns) triples, convenient for assertions."""
        writes = {value: date.to(TimeUnit.NS) for value, date in self.writer.write_dates}
        reads = {value: date.to(TimeUnit.NS) for value, date in self.reader.read_dates}
        return [
            (value, writes[value], reads[value]) for value in self.reader.values_read
        ]


# ---------------------------------------------------------------------------
# Fig. 5 — source / transmitter / sink pipeline
# ---------------------------------------------------------------------------
class PipelineModel(enum.Enum):
    """The implementations compared by Fig. 5 (plus the quantum ablation)."""

    UNTIMED = "untimed"
    TDLESS = "tdless"
    TDFULL = "tdfull"
    #: Ablation (EXP-QUANTUM): global-quantum decoupling with regular FIFOs.
    #: Fast, but the timing is only approximate (error bounded by the quantum).
    QUANTUM = "quantum"


@dataclass
class StreamingConfig:
    """Parameters of the Fig. 5 benchmark.

    The paper transfers 1000 blocks of 1000 words; the default here is a
    scaled-down run that keeps the same shape in seconds-long Python
    simulations.
    """

    n_blocks: int = 50
    words_per_block: int = 100
    fifo_depth: int = 16
    #: Per-word production / transmission / consumption times (data rates).
    source_word_time: SimTime = field(default_factory=lambda: ns(10))
    transmitter_word_time: SimTime = field(default_factory=lambda: ns(8))
    sink_word_time: SimTime = field(default_factory=lambda: ns(12))
    #: Fixed overhead per block in the transmitter (header processing...).
    block_overhead: SimTime = field(default_factory=lambda: ns(50))

    @property
    def total_words(self) -> int:
        return self.n_blocks * self.words_per_block


class Source(WorkloadModule):
    """Produces ``n_blocks`` blocks of ``words_per_block`` increasing words."""

    def __init__(self, parent, name, out_fifo, config: StreamingConfig, timing: TimingMode, burst: bool = False):
        super().__init__(parent, name, timing)
        self.out_fifo = out_fifo
        self.config = config
        self.burst = burst
        self.create_thread(self.run)

    def run(self):
        word_time_ns = self.config.source_word_time.to(TimeUnit.NS)
        value = 0
        if self.burst:
            per_block = self.config.words_per_block
            for _block in range(self.config.n_blocks):
                block = list(range(value, value + per_block))
                value += per_block
                yield from self.burst_write(self.out_fifo, block, word_time_ns)
            self.mark_finished()
            return
        for _block in range(self.config.n_blocks):
            for _ in range(self.config.words_per_block):
                yield from self.out_fifo.write(value)
                self.items_processed += 1
                value += 1
                yield from self.advance(word_time_ns)
        self.mark_finished()


class Transmitter(WorkloadModule):
    """Forwards words from the input FIFO to the output FIFO."""

    def __init__(self, parent, name, in_fifo, out_fifo, config: StreamingConfig, timing: TimingMode):
        super().__init__(parent, name, timing)
        self.in_fifo = in_fifo
        self.out_fifo = out_fifo
        self.config = config
        self.create_thread(self.run)

    def run(self):
        word_time_ns = self.config.transmitter_word_time.to(TimeUnit.NS)
        block_overhead_ns = self.config.block_overhead.to(TimeUnit.NS)
        for _block in range(self.config.n_blocks):
            if block_overhead_ns:
                yield from self.advance(block_overhead_ns)
            for _ in range(self.config.words_per_block):
                word = yield from self.in_fifo.read()
                yield from self.advance(word_time_ns)
                yield from self.out_fifo.write(word)
                self.items_processed += 1
        self.mark_finished()


class Sink(WorkloadModule):
    """Consumes every word, keeping a checksum for functional validation."""

    def __init__(self, parent, name, in_fifo, config: StreamingConfig, timing: TimingMode, burst: bool = False):
        super().__init__(parent, name, timing)
        self.in_fifo = in_fifo
        self.config = config
        self.burst = burst
        self.checksum = 0
        self.create_thread(self.run)

    def run(self):
        word_time_ns = self.config.sink_word_time.to(TimeUnit.NS)
        if self.burst:
            chunk = self.config.words_per_block
            remaining = self.config.total_words
            while remaining:
                count = min(chunk, remaining)
                words = yield from self.burst_read(self.in_fifo, count, word_time_ns)
                self.checksum = (self.checksum + sum(words)) % (1 << 32)
                remaining -= count
            self.mark_finished()
            return
        for _ in range(self.config.total_words):
            word = yield from self.in_fifo.read()
            self.checksum = (self.checksum + word) % (1 << 32)
            self.items_processed += 1
            yield from self.advance(word_time_ns)
        self.mark_finished()


class StreamingPipeline:
    """source -> fifo1 -> transmitter -> fifo2 -> sink, in a given model."""

    def __init__(
        self,
        sim: Simulator,
        model: PipelineModel,
        config: Optional[StreamingConfig] = None,
        burst: bool = False,
    ):
        self.sim = sim
        self.model = model
        self.config = config or StreamingConfig()
        depth = self.config.fifo_depth

        if model is PipelineModel.TDFULL:
            self.fifo1: FifoInterface = SmartFifo(sim, "fifo1", depth=depth)
            self.fifo2: FifoInterface = SmartFifo(sim, "fifo2", depth=depth)
            timing = TimingMode.DECOUPLED
        else:
            self.fifo1 = RegularFifo(sim, "fifo1", depth=depth)
            self.fifo2 = RegularFifo(sim, "fifo2", depth=depth)
            if model is PipelineModel.UNTIMED:
                timing = TimingMode.UNTIMED
            elif model is PipelineModel.QUANTUM:
                timing = TimingMode.QUANTUM
            else:
                timing = TimingMode.TIMED_WAIT

        self.source = Source(sim, "source", self.fifo1, self.config, timing, burst=burst)
        self.transmitter = Transmitter(
            sim, "transmitter", self.fifo1, self.fifo2, self.config, timing
        )
        self.sink = Sink(sim, "sink", self.fifo2, self.config, timing, burst=burst)

    def run(self) -> None:
        self.sim.run()

    # ------------------------------------------------------------------
    @property
    def completion_time(self) -> Optional[SimTime]:
        """Date at which the sink consumed the last word (local date for
        the decoupled model, kernel date otherwise)."""
        return self.sink.finish_time

    @property
    def checksum(self) -> int:
        return self.sink.checksum

    def expected_checksum(self) -> int:
        total = self.config.total_words
        return (total * (total - 1) // 2) % (1 << 32)

    def verify(self) -> None:
        """Check functional completion (every word arrived, in order)."""
        assert self.sink.items_processed == self.config.total_words, (
            self.sink.items_processed,
            self.config.total_words,
        )
        assert self.checksum == self.expected_checksum()
