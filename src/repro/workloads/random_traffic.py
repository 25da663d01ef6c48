"""Randomized producer/consumer traffic for the validation methodology.

Section IV-A of the paper validates the Smart FIFO by running every test in
two modes — (regular FIFO, no temporal decoupling) and (Smart FIFO,
temporal decoupling), random tests reusing the same seed — and checking
that the printed, locally-timestamped traces are identical after
reordering.  Monitor accesses are used extensively to follow the FIFO
filling levels.

This module provides the randomized scenarios: producers and consumers with
seeded random inter-access delays, plus a low-rate monitor process sampling
``get_size``.  Monitor samples are taken at dates offset by 500 ps so they
can never collide with the integer-nanosecond dates of the data accesses:
same-date accesses are scheduler-dependent and the paper explicitly
excludes such programs from the equivalence check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..fifo.interfaces import FifoInterface
from ..fifo.regular_fifo import RegularFifo
from ..fifo.smart_fifo import SmartFifo
from ..kernel.simtime import TimeUnit
from ..kernel.simulator import Simulator
from .base import TimingMode, WorkloadModule


@dataclass
class RandomTrafficConfig:
    """Parameters of one randomized scenario."""

    seed: int = 1
    item_count: int = 40
    fifo_depth: int = 4
    max_producer_delay_ns: int = 30
    max_consumer_delay_ns: int = 30
    monitor_samples: int = 10
    monitor_period_ns: int = 25


class RandomProducer(WorkloadModule):
    """Writes ``item_count`` values with seeded random gaps."""

    def __init__(self, parent, name, fifo, config: RandomTrafficConfig, timing: TimingMode, burst: bool = False):
        super().__init__(parent, name, timing)
        self.fifo = fifo
        self.config = config
        self.burst = burst
        self.rng = random.Random(config.seed * 7919 + 1)
        self.create_thread(self.run)

    def run(self):
        if self.burst:
            count = self.config.item_count
            # Draw every delay upfront, in the same RNG order as the word
            # loop (one randint after each write), so both modes replay
            # exactly the same traffic.
            delays = [
                self.rng.randint(0, self.config.max_producer_delay_ns)
                for _ in range(count)
            ]
            yield from self.burst_write(
                self.fifo,
                list(range(count)),
                delays,
                message_fn=lambda index, _word: f"produced {index}",
            )
            self.mark_finished()
            self.checkpoint("producer done")
            return
        for index in range(self.config.item_count):
            yield from self.fifo.write(index)
            self.items_processed += 1
            self.checkpoint(f"produced {index}")
            delay = self.rng.randint(0, self.config.max_producer_delay_ns)
            yield from self.advance(delay)
        self.mark_finished()
        self.checkpoint("producer done")


class RandomConsumer(WorkloadModule):
    """Reads ``item_count`` values with seeded random gaps."""

    def __init__(self, parent, name, fifo, config: RandomTrafficConfig, timing: TimingMode, burst: bool = False):
        super().__init__(parent, name, timing)
        self.fifo = fifo
        self.config = config
        self.burst = burst
        self.rng = random.Random(config.seed * 104729 + 2)
        self.values: List[int] = []
        self.create_thread(self.run)

    def run(self):
        if self.burst:
            count = self.config.item_count
            delays = [
                self.rng.randint(0, self.config.max_consumer_delay_ns)
                for _ in range(count)
            ]
            words = yield from self.burst_read(
                self.fifo,
                count,
                delays,
                message_fn=lambda _index, word: f"consumed {word}",
            )
            self.values.extend(words)
            self.mark_finished()
            self.checkpoint("consumer done")
            return
        for _ in range(self.config.item_count):
            value = yield from self.fifo.read()
            self.values.append(value)
            self.items_processed += 1
            self.checkpoint(f"consumed {value}")
            delay = self.rng.randint(0, self.config.max_consumer_delay_ns)
            yield from self.advance(delay)
        self.mark_finished()
        self.checkpoint("consumer done")


class FillLevelMonitor(WorkloadModule):
    """Low-rate monitor sampling ``get_size`` (Section III-C usage)."""

    def __init__(self, parent, name, fifo, config: RandomTrafficConfig, timing: TimingMode):
        super().__init__(parent, name, timing)
        self.fifo = fifo
        self.config = config
        self.samples: List[tuple] = []
        self.create_thread(self.run)

    def run(self):
        # Start half a nanosecond after the data processes so monitor dates
        # never coincide with data-access dates (see module docstring).
        yield self.wait(500, TimeUnit.PS)
        for sample in range(self.config.monitor_samples):
            size = yield from self.fifo.get_size()
            date = self.now  # get_size synchronizes the caller in both modes
            self.samples.append((date, size))
            self.checkpoint(f"level {size}")
            yield self.wait(self.config.monitor_period_ns, TimeUnit.NS)
        self.mark_finished()


class RandomTrafficScenario:
    """One producer, one consumer, one monitor around a single FIFO."""

    def __init__(
        self,
        sim: Simulator,
        decoupled: bool,
        config: Optional[RandomTrafficConfig] = None,
        with_monitor: bool = True,
        burst: bool = False,
    ):
        self.sim = sim
        self.config = config or RandomTrafficConfig()
        self.decoupled = decoupled
        if decoupled:
            self.fifo: FifoInterface = SmartFifo(
                sim, "fifo", depth=self.config.fifo_depth
            )
            timing = TimingMode.DECOUPLED
        else:
            self.fifo = RegularFifo(sim, "fifo", depth=self.config.fifo_depth)
            timing = TimingMode.TIMED_WAIT
        self.producer = RandomProducer(sim, "producer", self.fifo, self.config, timing, burst=burst)
        self.consumer = RandomConsumer(sim, "consumer", self.fifo, self.config, timing, burst=burst)
        self.monitor = (
            FillLevelMonitor(sim, "monitor", self.fifo, self.config, timing)
            if with_monitor
            else None
        )

    def run(self) -> None:
        self.sim.run()

    @property
    def consumed_values(self) -> Sequence[int]:
        return tuple(self.consumer.values)

    @property
    def monitor_samples(self):
        return [] if self.monitor is None else list(self.monitor.samples)


def run_pair(
    config: Optional[RandomTrafficConfig] = None, with_monitor: bool = True
):
    """Run the reference and the decoupled scenario with the same seed.

    Returns ``(reference_sim, decoupled_sim, reference_scn, decoupled_scn)``
    so callers can compare traces, values and monitor samples.
    """
    config = config or RandomTrafficConfig()
    ref_sim = Simulator("reference")
    ref = RandomTrafficScenario(ref_sim, decoupled=False, config=config, with_monitor=with_monitor)
    ref.run()
    dec_sim = Simulator("decoupled")
    dec = RandomTrafficScenario(dec_sim, decoupled=True, config=config, with_monitor=with_monitor)
    dec.run()
    return ref_sim, dec_sim, ref, dec
