"""A video-decoder-like accelerator chain.

The introduction of the paper motivates the work with stream-processing
hardware accelerators (e.g. video decoding) connected by FIFOs.  This
workload models such a chain: a bitstream parser producing bursts of
macroblock data, followed by compute stages with different per-item costs
(inverse transform, motion compensation, deblocking), ending in a display
sink with a strict consumption rate.

Every stage is written once and runs in the three timing modes; the chain
can be built with regular FIFOs (reference), Smart FIFOs (decoupled) or any
mix, which makes it a good integration scenario for the trace-equivalence
validation and a realistic example application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..fifo.interfaces import FifoInterface
from ..fifo.regular_fifo import RegularFifo
from ..fifo.smart_fifo import SmartFifo
from ..kernel.simtime import SimTime, TimeUnit, ns
from ..kernel.simulator import Simulator
from .base import TimingMode, WorkloadModule


@dataclass
class VideoConfig:
    """Parameters of the synthetic video pipeline."""

    n_frames: int = 4
    macroblocks_per_frame: int = 24
    fifo_depth: int = 8
    #: Parser emits a burst of macroblocks, then pauses (bitstream refill).
    parser_burst: int = 6
    parser_item_time: SimTime = field(default_factory=lambda: ns(4))
    parser_refill_time: SimTime = field(default_factory=lambda: ns(60))
    #: Per-macroblock compute times of the middle stages.
    stage_item_times: Sequence[SimTime] = field(
        default_factory=lambda: (ns(9), ns(7), ns(5))
    )
    #: Display consumes at a fixed rate.
    display_item_time: SimTime = field(default_factory=lambda: ns(11))

    @property
    def total_items(self) -> int:
        return self.n_frames * self.macroblocks_per_frame


class BitstreamParser(WorkloadModule):
    """Produces macroblock tokens in bursts."""

    def __init__(self, parent, name, out_fifo, config: VideoConfig, timing: TimingMode, burst: bool = False):
        super().__init__(parent, name, timing)
        self.out_fifo = out_fifo
        self.config = config
        self.burst = burst
        self.create_thread(self.run)

    def run(self):
        cfg = self.config
        item_ns = cfg.parser_item_time.to(TimeUnit.NS)
        refill_ns = cfg.parser_refill_time.to(TimeUnit.NS)
        emitted = 0
        if self.burst:
            while emitted < cfg.total_items:
                burst = min(cfg.parser_burst, cfg.total_items - emitted)
                tokens = list(range(emitted, emitted + burst))
                emitted += burst
                yield from self.burst_write(self.out_fifo, tokens, item_ns)
                yield from self.advance(refill_ns)
            self.mark_finished()
            return
        while emitted < cfg.total_items:
            burst = min(cfg.parser_burst, cfg.total_items - emitted)
            for _ in range(burst):
                yield from self.out_fifo.write(emitted)
                emitted += 1
                self.items_processed += 1
                yield from self.advance(item_ns)
            yield from self.advance(refill_ns)
        self.mark_finished()


class ComputeStage(WorkloadModule):
    """A macroblock-processing stage with a fixed per-item cost."""

    def __init__(
        self,
        parent,
        name,
        in_fifo,
        out_fifo,
        item_time: SimTime,
        total_items: int,
        timing: TimingMode,
    ):
        super().__init__(parent, name, timing)
        self.in_fifo = in_fifo
        self.out_fifo = out_fifo
        self.item_time = item_time
        self.total_items = total_items
        self.create_thread(self.run)

    def run(self):
        item_ns = self.item_time.to(TimeUnit.NS)
        for _ in range(self.total_items):
            token = yield from self.in_fifo.read()
            yield from self.advance(item_ns)
            yield from self.out_fifo.write(token)
            self.items_processed += 1
        self.mark_finished()


class Display(WorkloadModule):
    """Consumes macroblocks at a fixed rate; records per-item completion dates."""

    def __init__(self, parent, name, in_fifo, config: VideoConfig, timing: TimingMode, burst: bool = False):
        super().__init__(parent, name, timing)
        self.in_fifo = in_fifo
        self.config = config
        self.burst = burst
        self.completion_dates: List[SimTime] = []
        self.create_thread(self.run)

    def run(self):
        item_ns = self.config.display_item_time.to(TimeUnit.NS)
        if self.burst:
            per_frame = self.config.macroblocks_per_frame
            remaining = self.config.total_items
            while remaining:
                count = min(per_frame, remaining)
                dates: List[int] = []
                yield from self.burst_read(
                    self.in_fifo, count, item_ns, dates_out=dates
                )
                self.completion_dates.extend(
                    SimTime.from_femtoseconds(date) for date in dates
                )
                remaining -= count
            self.mark_finished()
            return
        for _ in range(self.config.total_items):
            token = yield from self.in_fifo.read()
            date = (
                self.local_time_stamp()
                if self.timing is TimingMode.DECOUPLED
                else self.now
            )
            self.completion_dates.append(date)
            self.items_processed += 1
            del token
            yield from self.advance(item_ns)
        self.mark_finished()


class VideoPipeline:
    """parser -> stage_1 -> ... -> stage_k -> display."""

    def __init__(
        self,
        sim: Simulator,
        decoupled: bool,
        config: Optional[VideoConfig] = None,
        burst: bool = False,
    ):
        self.sim = sim
        self.config = config or VideoConfig()
        self.decoupled = decoupled
        cfg = self.config
        timing = TimingMode.DECOUPLED if decoupled else TimingMode.TIMED_WAIT

        def make_fifo(name: str) -> FifoInterface:
            if decoupled:
                return SmartFifo(sim, name, depth=cfg.fifo_depth)
            return RegularFifo(sim, name, depth=cfg.fifo_depth)

        n_stages = len(cfg.stage_item_times)
        self.fifos = [make_fifo(f"fifo{i}") for i in range(n_stages + 1)]
        self.parser = BitstreamParser(sim, "parser", self.fifos[0], cfg, timing, burst=burst)
        self.stages = [
            ComputeStage(
                sim,
                f"stage{i}",
                self.fifos[i],
                self.fifos[i + 1],
                item_time,
                cfg.total_items,
                timing,
            )
            for i, item_time in enumerate(cfg.stage_item_times)
        ]
        self.display = Display(sim, "display", self.fifos[-1], cfg, timing, burst=burst)

    def run(self) -> None:
        self.sim.run()

    @property
    def frame_dates(self) -> List[SimTime]:
        """Completion date of the last macroblock of each frame."""
        per_frame = self.config.macroblocks_per_frame
        dates = self.display.completion_dates
        return [
            dates[(i + 1) * per_frame - 1]
            for i in range(self.config.n_frames)
            if (i + 1) * per_frame - 1 < len(dates)
        ]

    @property
    def completion_time(self) -> Optional[SimTime]:
        return self.display.finish_time
