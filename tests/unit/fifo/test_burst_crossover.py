"""The span-length crossover of the Smart FIFO burst path.

A burst moves the words it can move now as one bulk span only when there
are at least :data:`~repro.fifo.smart_fifo.MIN_SPAN_WORDS` of them, and
through the word path otherwise.  The choice is a speed knob only: on
either side of the crossover, and for a burst that blocks part-way and
so moves spans on both sides of it, the burst run must equal the word
loop in every kernel counter, every date and every FIFO count, while the
span/word routing counters land where the rule says.
"""

import pytest

from repro.fifo import SmartFifo
from repro.fifo.smart_fifo import MIN_SPAN_WORDS
from repro.kernel import Simulator
from repro.td import DecoupledModule

K = MIN_SPAN_WORDS
WRITE_GAP_NS = 3
READ_GAP_NS = 5


class Writer(DecoupledModule):
    def __init__(self, parent, name, fifo, words, burst):
        super().__init__(parent, name)
        self.fifo, self.words, self.burst = fifo, words, burst
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        if self.burst:
            yield from self.fifo.write_burst(
                self.words, WRITE_GAP_NS * 1_000_000, self.dates
            )
        else:
            for word in self.words:
                yield from self.fifo.write(word)
                self.dates.append(self.local_time_stamp().femtoseconds)
                self.inc(WRITE_GAP_NS)
        self.final_fs = self.local_time_stamp().femtoseconds


class Reader(DecoupledModule):
    def __init__(self, parent, name, fifo, count, burst):
        super().__init__(parent, name)
        self.fifo, self.count, self.burst = fifo, count, burst
        self.words = []
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        if self.burst:
            self.words = yield from self.fifo.read_burst(
                self.count, READ_GAP_NS * 1_000_000, self.dates
            )
        else:
            for _ in range(self.count):
                word = yield from self.fifo.read()
                self.words.append(word)
                self.dates.append(self.local_time_stamp().femtoseconds)
                self.inc(READ_GAP_NS)
        self.final_fs = self.local_time_stamp().femtoseconds


def _run(n_words, depth, burst):
    sim = Simulator(f"crossover_{burst}")
    fifo = SmartFifo(sim, "fifo", depth=depth)
    words = list(range(100, 100 + n_words))
    writer = Writer(sim, "writer", fifo, words, burst)
    reader = Reader(sim, "reader", fifo, n_words, burst)
    sim.run()
    assert reader.words == words
    return sim, fifo, writer, reader


def _observed(sim, fifo, writer, reader):
    stats = sim.stats.snapshot()
    # write_burst's contract: spans amortize their notifications, so the
    # request count is the one kernel counter a span may lower.
    stats.pop("event_notifications")
    return {
        "stats": stats,
        "activations": dict(sim.stats.per_process_activations),
        "now_fs": sim.now_fs,
        "writer_dates": writer.dates,
        "reader_dates": reader.dates,
        "final_fs": (writer.final_fs, reader.final_fs),
        "fifo": (fifo.total_written, fifo.total_read, fifo.blocking_waits),
    }


@pytest.mark.parametrize(
    "n_words, depth, writes, reads",
    [
        # (span ops, word ops) per side.  One span per side in the first
        # three cases: the free FIFO takes the whole burst at once.
        pytest.param(K - 1, 2 * K, (0, 1), (0, 1), id="k_minus_1"),
        pytest.param(K, 2 * K, (1, 0), (1, 0), id="k"),
        pytest.param(K + 1, 2 * K, (1, 0), (1, 0), id="k_plus_1"),
        # A depth-K FIFO takes K words (a span), blocks the writer, and
        # takes the K - 1 left (the word path) once the reader drained it.
        pytest.param(2 * K - 1, K, (1, 1), (1, 1), id="blocks_part_way"),
    ],
)
def test_burst_equals_word_loop_across_the_crossover(n_words, depth, writes, reads):
    word = _run(n_words, depth, burst=False)
    burst = _run(n_words, depth, burst=True)
    assert _observed(*burst) == _observed(*word)
    fifo = burst[1]
    assert (fifo.burst_span_writes, fifo.burst_word_writes) == writes
    assert (fifo.burst_span_reads, fifo.burst_word_reads) == reads
    # Span words are counted by the ring: exactly those of the span ops.
    assert fifo._cells.span_words == (
        min(n_words, depth) * (writes[0] + reads[0])
    )
