"""Memory budgets of record-and-replay.

A recording is kept for the whole sweep it prices, so its size is what a
dense sweep's peak memory grows with.  The recorder writes each thread's
program in the engine's own form: one shared ``(op, a, b, pre)`` tuple
per distinct op and one ``array('q')`` date per op, and the engine runs
those programs without copying them.  This module pins both halves of
that deterministically: the number of distinct op tuples a thread's
program holds, and the ``tracemalloc`` bytes a recording (engine
included) keeps per FIFO access.  It also replays a span-recorded anchor,
whose bursts are expanded into word ops as they are recorded.
"""

import gc
import tracemalloc
from array import array
from dataclasses import replace

import pytest

from repro.campaign import ScenarioSpec, compare_replay_to_spool, record_spool
from repro.campaign.scenarios import build_scenario
from repro.fifo.smart_fifo import MIN_SPAN_WORDS
from repro.kernel import Simulator
from repro.kernel.tracing import DependencyRecorder
from repro.replay import ReplayEngine

#: 20 blocks of 100 words through the Fig. 5 pipeline (two FIFOs).
STREAM = ScenarioSpec(
    "mem_stream", "streaming", depth=8,
    params={"n_blocks": 20, "words_per_block": 100},
)
#: The same traffic in bursts deep enough to move bulk spans.
SPAN = replace(STREAM, name="mem_span", depth=MIN_SPAN_WORDS, burst=True)

#: Bytes a recording and its engine may hold per FIFO access (a word
#: written or read): one 8-byte list slot and one 8-byte date, with room
#: for the lists' growth and the fixed cost of a small recording.  A
#: tuple and a date int per access would be several times over.
BYTES_PER_ACCESS = 32
#: Distinct op tuples per thread of the streaming anchors: a word loop
#: with a constant gap records the same op over and over.
DISTINCT_OPS_PER_THREAD = 4


def _record(spec):
    """``(spool, pipeline)``: the recording of streaming ``spec`` and the
    pipeline it ran."""
    sim = Simulator(f"record_{spec.name}")
    sim.dep_recorder = DependencyRecorder(sim)
    built = build_scenario(sim, spec)
    built.scenario.run()
    built.verify()
    return sim.dep_recorder.finalize(), built.scenario


def _held_bytes_per_access(spec):
    """Bytes a self-checked recording of ``spec`` keeps, per access."""
    record_spool(replace(spec, name="warm_up", params={"n_blocks": 1}))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spool, _ = record_spool(spec)
        engine = ReplayEngine(spool)
        engine.self_check()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    accesses = sum(f["total_written"] + f["total_read"] for f in spool.fifos)
    return held / accesses


def _replay_matches_fresh(engine, anchor, depth):
    result = engine.replay(
        depths=engine.retarget_depths(anchor.depth, depth)
    )
    point = replace(anchor, name=f"{anchor.name}_d{depth}", depth=depth)
    fresh, _ = record_spool(point)
    fresh_result = ReplayEngine(fresh).self_check()
    assert compare_replay_to_spool(result, fresh, fresh_result) == []
    return result


@pytest.mark.parametrize("spec", [STREAM, SPAN], ids=["word", "span"])
class TestStreamingRecording:
    def test_programs_share_their_op_tuples(self, spec):
        spool, _ = record_spool(spec)
        for name, pid in spool.threads:
            program = spool.programs[pid]
            distinct = set(program)
            assert len(distinct) <= DISTINCT_OPS_PER_THREAD, (
                f"{name} holds {len(distinct)} distinct op tuples in "
                f"{len(program)} ops"
            )
            # Equal ops are one object, not equal copies.
            assert len({id(op) for op in program}) == len(distinct)
            dates = spool.dates[pid]
            assert isinstance(dates, array) and dates.typecode == "q"
            assert len(dates) == len(program)

    def test_recording_holds_few_bytes_per_access(self, spec):
        per_access = _held_bytes_per_access(spec)
        assert per_access <= BYTES_PER_ACCESS, (
            f"{spec.name}: the recording holds {per_access:.1f} bytes per "
            f"FIFO access (budget {BYTES_PER_ACCESS})"
        )

    def test_self_check_and_retargets_match_fresh_runs(self, spec):
        spool, pipeline = _record(spec)
        if spec.burst:
            # The source writes and the sink reads in bursts: the recorder
            # saw bulk spans, not only the word fallback.
            assert pipeline.fifo1.burst_span_writes
            assert pipeline.fifo2.burst_span_reads
        engine = ReplayEngine(spool)
        engine.self_check()
        shallow = _replay_matches_fresh(engine, spec, 1)
        deep = _replay_matches_fresh(engine, spec, 64)
        assert deep.blocking_waits < shallow.blocking_waits

