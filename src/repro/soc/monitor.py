"""Hardware-side FIFO monitoring.

The monitor interface of the Smart FIFO exists because the embedded
software "must be able to monitor the accelerators and their FIFO; knowing
the FIFO filling levels can be used for debug and dynamic performance
tuning" (Section III).  Besides the software path (register reads issued by
the control core), it is convenient to have a hardware-style probe for
tests, examples and the validation methodology: :class:`FifoLevelProbe`
samples ``get_size`` on a list of FIFOs at a fixed (low) rate and keeps the
history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..kernel.module import Module
from ..kernel.simtime import SimTime, TimeUnit, ns
from ..kernel.simulator import Simulator
from ..td.decoupling import DecoupledMixin


@dataclass(frozen=True)
class LevelSample:
    """One sample of one FIFO's real filling level."""

    date: SimTime
    fifo: str
    level: int


class FifoLevelProbe(DecoupledMixin, Module):
    """Periodically samples the monitor interface of several FIFOs."""

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        fifos: Sequence,
        period: SimTime = ns(500),
        samples: int = 10,
        start_offset: SimTime = ns(1),
    ):
        super().__init__(parent, name)
        self.fifos = list(fifos)
        self.period = period
        self.sample_count = samples
        self.start_offset = start_offset
        self.samples: List[LevelSample] = []
        self.create_thread(self.run)

    def run(self):
        yield self.wait(self.start_offset.to(TimeUnit.NS))
        for _ in range(self.sample_count):
            for fifo in self.fifos:
                level = yield from fifo.get_size()
                # Stamp the *local* date of the sampling process, not the
                # global date: the validation methodology compares locally
                # timestamped observations between the reference and the
                # decoupled run (cf. the 500 ps offset convention in
                # workloads/random_traffic.py), and the two only agree when
                # the sample carries the date at which the probe really
                # observed the level.
                self.samples.append(
                    LevelSample(
                        self.local_time_stamp(),
                        getattr(fifo, "full_name", str(fifo)),
                        level,
                    )
                )
            yield self.wait(self.period.to(TimeUnit.NS))

    # ------------------------------------------------------------------
    def history_for(self, fifo_name: str) -> List[Tuple[SimTime, int]]:
        return [
            (sample.date, sample.level)
            for sample in self.samples
            if sample.fifo == fifo_name
        ]
