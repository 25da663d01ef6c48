"""Property tests for burst (span) transfers.

The burst API is a pure speed knob: for *any* word sequence, any span
chunking (including empty spans and spans larger than the FIFO depth),
any per-word or constant gap schedule and both Smart FIFO modes, a
burst-driven run must be indistinguishable from the word-by-word run —
same per-word dates, same final local dates, same kernel counters.  The
trace half holds the same way: ``emit_many`` must be a drop-in for
repeated ``emit`` on every sink kind.
"""

import random
from collections import Counter
from itertools import accumulate
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace_diff import compare_spools
from repro.campaign import ScenarioSpec, execute_spec
from repro.fifo import RegularFifo, SmartFifo
from repro.fifo.cells import CellRing
from repro.fifo.smart_fifo import MIN_SPAN_WORDS
from repro.kernel import Simulator
from repro.kernel.process import Timeout, WaitEvent
from repro.kernel.simtime import ns
from repro.kernel.tracing import DigestSink, ListSink, SpoolSink
from repro.td import DecoupledModule
from repro.telemetry import Telemetry

#: 1 ns in femtoseconds (the burst APIs take femtosecond gaps).
NS_FS = 1_000_000


def _chunking(rng, total, depth):
    """Random span sizes summing to ``total``: sometimes empty, sometimes
    larger than the FIFO depth (so spans must split at the blocking
    boundary), up to twice the depth (so a split can leave a full span
    on both sides)."""
    chunks = []
    remaining = total
    while remaining:
        chunk = min(remaining, rng.randrange(0, 2 * depth + 4))
        chunks.append(chunk)
        remaining -= chunk
    rng.shuffle(chunks)
    return chunks


def _sync_points(rng, chunks):
    """Word counts, drawn among the chunk ends, after which a thread
    synchronizes.  A sync lets the peer run part-way, so later spans
    start mid-ring and wrap the buffer end."""
    ends = set(accumulate(chunks)) - {0}
    return {end for end in sorted(ends) if rng.randrange(3) == 0}


class WordWriter(DecoupledModule):
    def __init__(self, parent, name, fifo, words, gaps_ns, syncs=()):
        super().__init__(parent, name)
        self.fifo = fifo
        self.words = words
        self.gaps_ns = gaps_ns
        self.syncs = syncs
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        for index, (word, gap) in enumerate(zip(self.words, self.gaps_ns)):
            yield from self.fifo.write(word)
            self.dates.append(self.local_time_stamp().femtoseconds)
            self.inc(gap)
            if index + 1 in self.syncs:
                yield from self.sync()
        self.final_fs = self.local_time_stamp().femtoseconds


class BurstWriter(DecoupledModule):
    def __init__(self, parent, name, fifo, words, gaps_ns, chunks, constant,
                 syncs=()):
        super().__init__(parent, name)
        self.fifo = fifo
        self.words = words
        self.gaps_ns = gaps_ns
        self.chunks = chunks
        self.constant = constant
        self.syncs = set(syncs)
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        pos = 0
        for chunk in self.chunks:
            sub = self.words[pos:pos + chunk]
            if self.constant:
                gap_fs = (self.gaps_ns[0] if self.gaps_ns else 0) * NS_FS
            else:
                gap_fs = [g * NS_FS for g in self.gaps_ns[pos:pos + chunk]]
            yield from self.fifo.write_burst(sub, gap_fs, self.dates)
            pos += chunk
            if pos in self.syncs:
                self.syncs.discard(pos)
                yield from self.sync()
        self.final_fs = self.local_time_stamp().femtoseconds


class WordReader(DecoupledModule):
    def __init__(self, parent, name, fifo, count, gaps_ns, syncs=()):
        super().__init__(parent, name)
        self.fifo = fifo
        self.count = count
        self.gaps_ns = gaps_ns
        self.syncs = syncs
        self.words = []
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        for index in range(self.count):
            word = yield from self.fifo.read()
            self.words.append(word)
            self.dates.append(self.local_time_stamp().femtoseconds)
            self.inc(self.gaps_ns[index])
            if index + 1 in self.syncs:
                yield from self.sync()
        self.final_fs = self.local_time_stamp().femtoseconds


class BurstReader(DecoupledModule):
    def __init__(self, parent, name, fifo, count, gaps_ns, chunks, constant,
                 syncs=()):
        super().__init__(parent, name)
        self.fifo = fifo
        self.count = count
        self.gaps_ns = gaps_ns
        self.chunks = chunks
        self.constant = constant
        self.syncs = set(syncs)
        self.words = []
        self.dates = []
        self.final_fs = None
        self.create_thread(self.run)

    def run(self):
        pos = 0
        for chunk in self.chunks:
            if self.constant:
                gap_fs = (self.gaps_ns[0] if self.gaps_ns else 0) * NS_FS
            else:
                gap_fs = [g * NS_FS for g in self.gaps_ns[pos:pos + chunk]]
            words = yield from self.fifo.read_burst(chunk, gap_fs, self.dates)
            self.words.extend(words)
            pos += chunk
            if pos in self.syncs:
                self.syncs.discard(pos)
                yield from self.sync()
        self.final_fs = self.local_time_stamp().femtoseconds


def _drive_smart(seed, depth, sync_on_access, constant, use_burst):
    rng = random.Random(seed)
    # Up to four crossover lengths of words: past MIN_SPAN_WORDS deep,
    # bulk spans then land on cells the ring already went round (their
    # dates follow the freeing/insertion recurrence), wrap the buffer end
    # and split at a blocking boundary.
    n = rng.randrange(0, 4 * MIN_SPAN_WORDS + 1)
    words = [rng.randrange(0, 1 << 16) for _ in range(n)]
    if constant:
        gap = rng.randrange(0, 12)
        writer_gaps = [gap] * n
        reader_gaps = [rng.randrange(0, 12)] * n or []
    else:
        writer_gaps = [rng.randrange(0, 12) for _ in range(n)]
        reader_gaps = [rng.randrange(0, 12) for _ in range(n)]
    writer_chunks = _chunking(rng, n, depth)
    reader_chunks = _chunking(rng, n, depth)
    writer_syncs = _sync_points(rng, writer_chunks)
    reader_syncs = _sync_points(rng, reader_chunks)

    sim = Simulator(f"burst_prop_{use_burst}")
    fifo = SmartFifo(sim, "fifo", depth=depth, sync_on_access=sync_on_access)
    if use_burst:
        writer = BurstWriter(sim, "writer", fifo, words, writer_gaps,
                             writer_chunks, constant, writer_syncs)
        reader = BurstReader(sim, "reader", fifo, n, reader_gaps,
                             reader_chunks, constant, reader_syncs)
    else:
        writer = WordWriter(sim, "writer", fifo, words, writer_gaps,
                            writer_syncs)
        reader = WordReader(sim, "reader", fifo, n, reader_gaps,
                            reader_syncs)
    sim.run()
    return sim, fifo, writer, reader, words


def _assert_burst_equals_word(seed, depth, sync_on_access, constant):
    word = _drive_smart(seed, depth, sync_on_access, constant, False)
    burst = _drive_smart(seed, depth, sync_on_access, constant, True)
    word_sim, word_fifo, word_writer, word_reader, words = word
    burst_sim, burst_fifo, burst_writer, burst_reader, _ = burst

    assert burst_reader.words == word_reader.words == words
    assert burst_writer.dates == word_writer.dates
    assert burst_reader.dates == word_reader.dates
    assert burst_writer.final_fs == word_writer.final_fs
    assert burst_reader.final_fs == word_reader.final_fs
    assert burst_sim.now_fs == word_sim.now_fs
    assert (
        burst_sim.stats.context_switches == word_sim.stats.context_switches
    )
    assert burst_sim.stats.delta_cycles == word_sim.stats.delta_cycles
    assert burst_fifo.total_written == word_fifo.total_written == len(words)
    assert burst_fifo.total_read == word_fifo.total_read == len(words)
    assert burst_fifo.blocking_waits == word_fifo.blocking_waits


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=2 * MIN_SPAN_WORDS),
    st.booleans(),
    st.booleans(),
)
def test_smart_burst_equals_word_loop(seed, depth, sync_on_access, constant):
    """``write_burst``/``read_burst`` are bit-exact with the word loop:
    same words, same per-word insertion/read dates, same final local
    dates, same kernel date and counters — for random chunkings that
    include empty spans, spans of exactly ``depth`` words and spans
    larger than the free/busy space (forcing the blocking split).  The
    depths reach past the span-length crossover, so both the bulk span
    path and its word fallback are drawn."""
    _assert_burst_equals_word(seed, depth, sync_on_access, constant)


def _spy(monkeypatch, owner, name, probe, seen):
    """Count in ``seen[name]`` the calls of ``owner.name`` that ``probe``
    accepts (it sees the arguments before the call runs)."""
    original = getattr(owner, name)

    def spied(*args):
        if probe(*args):
            seen[name] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, spied)


def test_drawn_bursts_reach_every_span_case(monkeypatch):
    """The draws of :func:`test_smart_burst_equals_word_loop` reach what
    the bulk span path must get right, so the property cannot quietly
    stop covering it: span dates run through the freeing/insertion
    recurrence (cells reused after the ring went round), spans wrap the
    buffer end, and one burst call moves spans on both sides of a
    blocking split.  A fixed set of draws past the crossover is checked
    for exactness and for each of those cases."""
    seen = Counter()

    _spy(monkeypatch, CellRing, "push_span",
         lambda ring, items, dates: ring._first_free + len(items) > ring.depth,
         seen)
    _spy(monkeypatch, CellRing, "pop_span",
         lambda ring, count, dates: ring._first_busy + count > ring.depth,
         seen)
    # The span schedule runs the word recurrence, not the pure gap
    # schedule, when a cell of the span is dated past the caller's date.
    def caller_fs(fifo, process):
        return max(process.local_fs, fifo._scheduler.now_fs)

    _spy(monkeypatch, SmartFifo, "_write_span",
         lambda fifo, process, words, start, k, *rest:
         max(fifo._cells.head_free_freeing_span(k)) > caller_fs(fifo, process),
         seen)
    _spy(monkeypatch, SmartFifo, "_read_span",
         lambda fifo, process, words, k, *rest:
         max(fifo._cells.head_busy_insertion_span(k)) > caller_fs(fifo, process),
         seen)

    # Every span of a burst call but its last takes all the free (busy)
    # cells there are, so the next one waits behind a blocking split: a
    # call that moves two spans has moved them on both sides of a split.
    def split_counter(name, counter):
        original = getattr(SmartFifo, name)

        def burst(fifo, *args):
            before = getattr(fifo, counter)
            result = yield from original(fifo, *args)
            if getattr(fifo, counter) - before >= 2:
                seen[name] += 1
            return result

        monkeypatch.setattr(SmartFifo, name, burst)

    split_counter("write_burst", "burst_span_writes")
    split_counter("read_burst", "burst_span_reads")

    for seed in range(12):
        for depth in (MIN_SPAN_WORDS, MIN_SPAN_WORDS + 5):
            for constant in (True, False):
                _assert_burst_equals_word(seed, depth, False, constant)
    assert sorted(seen) == [
        "_read_span",
        "_write_span",
        "pop_span",
        "push_span",
        "read_burst",
        "write_burst",
    ], dict(seen)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=5),
)
def test_smart_nb_burst_equals_guarded_nb_loop(seed, depth):
    """``nb_write_burst``/``nb_read_burst`` match the guarded word loops
    on the same prefilled ring state."""
    def build():
        rng = random.Random(seed)
        sim = Simulator("nb_burst_prop")
        # The nb phase below runs post-simulation at the kernel date, which
        # may precede the threads' decoupled dates; ordering enforcement is
        # orthogonal to what this test checks.
        fifo = SmartFifo(sim, "fifo", depth=depth, enforce_side_ordering=False)
        words = [rng.randrange(0, 1 << 16)
                 for _ in range(rng.randrange(0, 2 * depth))]
        gaps = [rng.randrange(0, 6) for _ in words]
        WordWriter(sim, "writer", fifo, words, gaps)
        drain = rng.randrange(0, depth)
        drain_gaps = [rng.randrange(0, 6)] * drain
        WordReader(sim, "reader", fifo, min(drain, len(words)), drain_gaps)
        sim.run()
        return rng, sim, fifo

    rng, _, fifo_a = build()
    _, _, fifo_b = build()
    count = rng.randrange(0, depth + 2)

    burst_words = fifo_a.nb_read_burst(count)
    loop_words = []
    while len(loop_words) < count and not fifo_b.is_empty():
        loop_words.append(fifo_b.nb_read())
    assert burst_words == loop_words
    assert fifo_a.total_read == fifo_b.total_read

    payload = [rng.randrange(0, 1 << 16) for _ in range(count)]
    accepted = fifo_a.nb_write_burst(payload)
    pushed = 0
    for word in payload:
        if not fifo_b.nb_write(word):
            break
        pushed += 1
    assert accepted == pushed
    assert fifo_a.total_written == fifo_b.total_written


def _drive_regular(seed, depth, use_burst):
    rng = random.Random(seed)
    n = rng.randrange(0, 24)
    words = [rng.randrange(0, 1 << 16) for _ in range(n)]
    writer_chunks = _chunking(rng, n, depth)
    reader_chunks = _chunking(rng, n, depth)
    pauses = [rng.randrange(0, 4) for _ in range(len(writer_chunks))]

    sim = Simulator(f"reg_burst_prop_{use_burst}")
    fifo = RegularFifo(sim, "fifo", depth=depth)

    def writer():
        pos = 0
        for index, chunk in enumerate(writer_chunks):
            sub = words[pos:pos + chunk]
            if use_burst:
                yield from fifo.write_burst(sub)
            else:
                for word in sub:
                    yield from fifo.write(word)
            pos += chunk
            if pauses[index]:
                yield Timeout(ns(pauses[index]))

    received = []

    def reader():
        for chunk in reader_chunks:
            if use_burst:
                got = yield from fifo.read_burst(chunk)
                received.extend(got)
            else:
                for _ in range(chunk):
                    word = yield from fifo.read()
                    received.append(word)

    sim.create_thread(writer, name="writer")
    sim.create_thread(reader, name="reader")
    sim.run()
    return sim, fifo, received, words


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
)
def test_regular_burst_equals_word_loop(seed, depth):
    """The regular FIFO's native span transfers preserve the word-loop
    schedule: same data, same kernel date, same context switches."""
    word_sim, word_fifo, word_received, words = _drive_regular(
        seed, depth, False
    )
    burst_sim, burst_fifo, burst_received, _ = _drive_regular(
        seed, depth, True
    )
    assert burst_received == word_received == words
    assert burst_sim.now_fs == word_sim.now_fs
    assert (
        burst_sim.stats.context_switches == word_sim.stats.context_switches
    )
    assert burst_fifo.total_written == word_fifo.total_written
    assert burst_fifo.total_read == word_fifo.total_read


# ---------------------------------------------------------------------------
# Word-vs-burst digest sweep across the burst-capable campaign workloads
# ---------------------------------------------------------------------------
#: Every workload honouring ``ScenarioSpec.burst``, with both halves of a
#: pair where the mode changes scheduling.  The whole deterministic row —
#: trace digest included — must be byte-identical word-vs-burst.
BURST_SWEEP_SPECS = [
    ScenarioSpec("wr", "writer_reader", mode="smart", depth=3),
    ScenarioSpec("str", "streaming", mode="smart", depth=4,
                 params={"n_blocks": 4, "words_per_block": 12}),
    ScenarioSpec("str_ref", "streaming", mode="reference", depth=4,
                 params={"n_blocks": 4, "words_per_block": 12}),
    ScenarioSpec("video", "video", mode="smart", depth=4,
                 params={"n_frames": 2, "macroblocks_per_frame": 8}),
    ScenarioSpec("bursty", "bursty", mode="smart", depth=4, seed=3,
                 params={"n_bursts": 4, "max_burst": 5}),
    ScenarioSpec("random", "random_traffic", mode="smart", depth=3, seed=7,
                 params={"item_count": 20, "monitor_samples": 4}),
    ScenarioSpec("noc", "noc_stress", mode="smart", depth=4,
                 params={"packets_per_stream": 3, "packet_size": 2}),
    ScenarioSpec("fault", "fault_drop", mode="smart", depth=4),
    ScenarioSpec("fault_ref", "fault_drop", mode="reference", depth=4),
    ScenarioSpec("mixed", "mixed", mode="smart", depth=4),
    ScenarioSpec("mixed_ref", "mixed", mode="reference", depth=4),
    ScenarioSpec("packet", "packet_stream", mode="smart", depth=4,
                 params={"packet_size": 2}),
    ScenarioSpec("packet_ref", "packet_stream", mode="reference", depth=4,
                 params={"packet_size": 2}),
    ScenarioSpec("cont", "contention", mode="smart", depth=8, seed=5),
]


@pytest.mark.parametrize(
    "spec", BURST_SWEEP_SPECS, ids=lambda spec: spec.label
)
def test_burst_campaign_rows_bit_exact(spec):
    """``burst=True`` is a pure speed knob at the campaign-row level: the
    deterministic row (dates, kernel counters, extras and the reordered
    trace digest) is byte-identical to the word-by-word run."""
    word = execute_spec(spec, "digest").deterministic_row()
    burst_spec = replace(spec, burst=True, params=dict(spec.params))
    burst = execute_spec(burst_spec, "digest").deterministic_row()
    assert burst == word


#: The Smart specs above whose bursts can move bulk spans, again at depth
#: MIN_SPAN_WORDS or just past it and long enough for spans to land on
#: cells the ring already went round.  At the depths above every span is
#: shorter than the crossover and takes the word path.
DEEP = MIN_SPAN_WORDS
DEEP_BURST_SWEEP_SPECS = [
    ScenarioSpec("str_deep", "streaming", mode="smart", depth=DEEP,
                 params={"n_blocks": 4, "words_per_block": 40}),
    ScenarioSpec("video_deep", "video", mode="smart", depth=DEEP,
                 params={"n_frames": 2, "macroblocks_per_frame": 40}),
    ScenarioSpec("bursty_deep", "bursty", mode="smart", depth=DEEP, seed=3,
                 params={"n_bursts": 4, "max_burst": 40}),
    ScenarioSpec("random_deep", "random_traffic", mode="smart", depth=DEEP,
                 seed=7, params={"item_count": 60, "monitor_samples": 4}),
    ScenarioSpec("noc_deep", "noc_stress", mode="smart", depth=DEEP + 4,
                 params={"packets_per_stream": 3, "packet_size": DEEP}),
    ScenarioSpec("fault_deep", "fault_drop", mode="smart", depth=DEEP + 4,
                 params={"item_count": 60}),
    ScenarioSpec("mixed_deep", "mixed", mode="smart", depth=DEEP,
                 params={"item_count": 60}),
    ScenarioSpec("packet_deep", "packet_stream", mode="smart",
                 depth=DEEP + 4, params={"packet_size": DEEP}),
]


@pytest.mark.parametrize(
    "spec", DEEP_BURST_SWEEP_SPECS, ids=lambda spec: spec.label
)
def test_deep_burst_campaign_rows_bit_exact(spec):
    """The campaign-row exactness above, where bursts do move bulk spans:
    the telemetry must count span transfers, so the comparison cannot
    quietly fall back to comparing the word path with itself."""
    word = execute_spec(spec, "digest").deterministic_row()
    telemetry = Telemetry("deep_burst_sweep")
    burst_spec = replace(spec, burst=True, params=dict(spec.params))
    burst = execute_spec(burst_spec, "digest", telemetry=telemetry)
    assert burst.deterministic_row() == word
    counters = {
        event["name"]: event["value"]
        for event in telemetry.drain()
        if event["kind"] == "counter"
    }
    assert (
        counters.get("fifo.burst_span_writes", 0)
        + counters.get("fifo.burst_span_reads", 0)
    ) > 0, counters


# ---------------------------------------------------------------------------
# emit_many == repeated emit, for every sink kind
# ---------------------------------------------------------------------------
processes = st.sampled_from(["top.writer", "top.reader", "mon"])
records = st.tuples(
    processes,
    st.integers(min_value=0, max_value=10**15),
    st.sampled_from(["wr 1", "rd 2", "level 3", "done", ""]),
)
traces = st.lists(records, max_size=50)


def _fill_word(sink, trace):
    for process, local_fs, message in trace:
        sink.emit(process, local_fs, 0, message)
    return sink


def _fill_spans(sink, trace, span):
    """Group consecutive same-process records into ``emit_many`` spans."""
    index = 0
    while index < len(trace):
        process = trace[index][0]
        entries = []
        while (
            index < len(trace)
            and trace[index][0] == process
            and len(entries) < span
        ):
            entries.append((trace[index][1], trace[index][2]))
            index += 1
        sink.emit_many(process, 0, entries)
    return sink


@given(
    trace=traces,
    span=st.integers(min_value=1, max_value=8),
    max_buffered=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_emit_many_equals_repeated_emit(trace, span, max_buffered):
    list_word = _fill_word(ListSink(), trace)
    list_span = _fill_spans(ListSink(), trace, span)
    assert list_span.records == list_word.records

    digest_word = _fill_word(DigestSink(max_buffered=max_buffered), trace)
    digest_span = _fill_spans(DigestSink(max_buffered=max_buffered), trace, span)
    assert len(digest_span) == len(digest_word)
    assert digest_span.digest() == digest_word.digest()
    digest_word.close()
    digest_span.close()

    spool_word = _fill_word(SpoolSink(max_buffered=max_buffered), trace)
    spool_span = _fill_spans(SpoolSink(max_buffered=max_buffered), trace, span)
    comparison = compare_spools(spool_word, spool_span)
    assert comparison.equivalent, comparison.report()
    spool_word.close()
    spool_span.close()
