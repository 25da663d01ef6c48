"""The parallel campaign engine.

A campaign is a list of :class:`~repro.campaign.spec.ScenarioSpec`; the
:class:`CampaignRunner` runs it inline or on long-lived worker processes
(:func:`~repro.campaign.executor.run_with_budget`).  Each run
builds its **own** :class:`~repro.kernel.simulator.Simulator` from the
spec — runs are fully isolated and deterministic per seed — and a worker
sends back a small picklable record.  Three guarantees matter:

* **Worker-count transparency** — the aggregated result (every field of
  :meth:`CampaignResult.aggregate_rows` and therefore
  :meth:`CampaignResult.fingerprint`) is byte-identical for any
  ``workers`` value, because the deterministic rows carry only simulated
  dates, counters and trace digests, never wall-clock values or PIDs, and
  are sorted by spec name.
* **Paired validation** — the Section IV-A methodology is a first-class
  campaign mode: every pairable spec is re-run in ``reference`` and
  ``smart`` modes and the locally-timestamped traces are diffed with
  :mod:`repro.analysis.trace_diff`; an empty diff means the Smart FIFO
  changed neither the behaviour nor the timing of that spec.  The two
  halves of a pair are **independent jobs**: each worker ships back the
  digest of its reordered trace (:class:`PairHalf`) and the digests are
  compared at aggregation, so a mostly-pairable campaign keeps every
  worker busy instead of serializing both runs inside one job.  Jobs
  travel to the workers in contiguous batches sized from the job count
  (see :func:`~repro.campaign.executor._batch_size`).
* **Shard transparency** — :meth:`CampaignRunner.shard_specs` partitions a
  campaign deterministically into ``N`` shards; running each shard on its
  own machine (``--shard i/N``), streaming the rows to JSONL and merging
  the files with :func:`merge_jsonl` reproduces the unsharded
  ``fingerprint()`` byte for byte.

JSONL persistence (``--jsonl out.jsonl``) streams one row per *completed*
run/pair, so a long campaign can be tailed while running and merged across
machines afterwards; ``resume=True`` re-reads a partially written file,
skips the specs whose rows are already present and appends only the
missing ones (rejecting a file whose campaign header does not match).  The
schema (one JSON object per line)::

    {"type": "campaign", "schema": 1, "specs": [...], "workers": N,
     "paired": true, "shard": "0/2" | null,
     "shard_by": "index"}          # header, first line (shard_by if sharded)
    {"type": "run", ...SpecRunRecord.deterministic_row()}
    {"type": "pair", ...PairRecord.deterministic_row()}
    {"type": "timeout", ...TimeoutRecord.deterministic_row()}

Rows carry deterministic fields only (never wall clock or PIDs), so the
merge of shard files is byte-identical to the unsharded aggregate.  A
``timeout`` row is the outcome of a job killed by a
:class:`~repro.campaign.executor.RunBudget`; it stands in for
the spec's run/pair rows at merge time and is dropped (the spec re-runs)
on resume.

Trace memory model
------------------

Since the streaming-trace refactor the campaign never materializes trace
record lists: every worker runs its simulation on a
:class:`~repro.kernel.tracing.DigestSink`, which streams the reordered
trace into the ``trace_digest``/``trace_lines`` row fields with bounded
memory, and a pair is equivalent iff the two digests (and deterministic
extras) match — digest equality is exactly reordered-trace equality
because record formatting is injective.  Only when a pair *mismatches* is
it re-run on :class:`~repro.kernel.tracing.SpoolSink` spools, which
:func:`repro.analysis.trace_diff.compare_spools` merge-diffs into the full
line-level report without an in-memory sort.  ``trace_sink`` can override
the worker sink kind (``"list"`` restores the historical collector,
``"null"`` disables tracing — and with it trace validation — entirely).
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.reporting import dict_rows_table
from ..analysis.trace_diff import compare_spools
from ..kernel.simulator import Simulator
from ..kernel.tracing import SINK_KINDS, make_sink
from ..telemetry import (
    NULL_TELEMETRY,
    ProgressTicker,
    Telemetry,
    merge_telemetry_files,
)
from .executor import (
    SCOPE_CAMPAIGN,
    RunBudget,
    TimeoutRecord,
    run_with_budget,
)
from .scenarios import build_scenario
from .spec import MODE_REFERENCE, MODE_SMART, ScenarioSpec, spec_is_pairable

#: Sink kind run by campaign workers unless overridden: digests stream out
#: of the simulation without the trace ever being materialized.
DEFAULT_TRACE_SINK = "digest"

#: File name of the merged telemetry sideband inside ``--telemetry DIR``.
MERGED_TELEMETRY = "telemetry.jsonl"

#: Per-process cache of worker telemetry handles, keyed by
#: ``(telemetry_dir, pid)``.  A worker process reuses one appending
#: ``worker-<pid>.jsonl`` sideband for all its jobs; keying by pid keeps a
#: forked child from writing through an entry inherited from its parent.
_WORKER_TELEMETRY: Dict[Tuple[str, int], Telemetry] = {}


def _worker_telemetry(telemetry_dir: str) -> Telemetry:
    key = (telemetry_dir, os.getpid())
    telemetry = _WORKER_TELEMETRY.get(key)
    if telemetry is None:
        path = os.path.join(telemetry_dir, f"worker-{os.getpid()}.jsonl")
        telemetry = Telemetry("campaign-worker", path=path)
        _WORKER_TELEMETRY[key] = telemetry
    return telemetry


def _collect_fifo_counters(sim: Simulator, telemetry: Telemetry) -> None:
    """Fold the per-FIFO burst routing counts of a finished run into
    telemetry counters.

    Duck-typed on the Smart FIFO counter attributes, so reference FIFOs
    (which have no span path) contribute nothing.  The span-vs-word split
    is the hit rate of the batch-quantum fast path; ``span_words`` over
    ``cell_mutations`` is how many words each ring mutation moved.
    """
    span_writes = word_writes = span_reads = word_reads = 0
    span_words = mutations = 0
    for module in sim.walk_modules():
        if not hasattr(module, "burst_span_writes"):
            continue
        span_writes += module.burst_span_writes
        word_writes += module.burst_word_writes
        span_reads += module.burst_span_reads
        word_reads += module.burst_word_reads
        cells = getattr(module, "_cells", None)
        if cells is not None:
            span_words += cells.span_words
            mutations += cells.mutations
    if span_writes or word_writes:
        telemetry.counter("fifo.burst_span_writes", span_writes)
        telemetry.counter("fifo.burst_word_writes", word_writes)
    if span_reads or word_reads:
        telemetry.counter("fifo.burst_span_reads", span_reads)
        telemetry.counter("fifo.burst_word_reads", word_reads)
    if span_words or mutations:
        telemetry.counter("fifo.span_words", span_words)
        telemetry.counter("fifo.cell_mutations", mutations)


@dataclass
class SpecRunRecord:
    """Outcome of one spec executed in one mode."""

    name: str
    workload: str
    mode: str
    depth: int
    quantum_ns: Optional[int]
    seed: int
    timing: Optional[str]
    sim_end_fs: int
    context_switches: int
    method_invocations: int
    delta_cycles: int
    trace_lines: int
    trace_digest: str
    extra: Dict[str, object] = field(default_factory=dict)
    #: How the numbers were obtained: ``"simulate"`` (a full scheduler run)
    #: or ``"replay"`` (recomputed from a recorded dependency spool by
    #: :class:`repro.replay.ReplayEngine`).  Excluded from the row when it
    #: is the default so pre-replay JSONL files stay byte-identical.
    evaluator: str = "simulate"
    #: Wall-clock and process provenance: informative only, excluded from
    #: the deterministic aggregation.
    wall_seconds: float = 0.0
    worker_pid: int = 0

    def deterministic_row(self) -> Dict[str, object]:
        row = {
            "name": self.name,
            "workload": self.workload,
            "mode": self.mode,
            "depth": self.depth,
            "quantum_ns": self.quantum_ns,
            "seed": self.seed,
            "timing": self.timing,
            "sim_end_fs": self.sim_end_fs,
            "context_switches": self.context_switches,
            "method_invocations": self.method_invocations,
            "delta_cycles": self.delta_cycles,
            "trace_lines": self.trace_lines,
            "trace_digest": self.trace_digest,
            "extra": self.extra,
        }
        if self.evaluator != "simulate":
            row["evaluator"] = self.evaluator
        return row

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "SpecRunRecord":
        """Rebuild a record from a persisted deterministic row."""
        record = cls(**{key: row[key] for key in (
            "name", "workload", "mode", "depth", "quantum_ns", "seed",
            "timing", "sim_end_fs", "context_switches", "method_invocations",
            "delta_cycles", "trace_lines", "trace_digest", "extra",
        )})
        record.evaluator = str(row.get("evaluator", "simulate"))
        return record


@dataclass
class PairRecord:
    """Outcome of one paired reference/Smart equivalence run."""

    name: str
    equivalent: bool
    reference_digest: str
    smart_digest: str
    reference_lines: int
    candidate_lines: int
    #: Whether the deterministic extras (completion dates, checksums...)
    #: also matched — the observable the paper compares for workloads that
    #: do not emit trace lines.
    extras_match: bool = True
    #: Human-readable mismatch summary; empty when the diff is empty.
    report: str = ""
    wall_seconds: float = 0.0
    #: PIDs of the workers that ran the (reference, smart) halves —
    #: provenance only, like ``SpecRunRecord.worker_pid``.
    worker_pids: Tuple[int, int] = (0, 0)

    def deterministic_row(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "equivalent": self.equivalent,
            "reference_digest": self.reference_digest,
            "smart_digest": self.smart_digest,
            "reference_lines": self.reference_lines,
            "candidate_lines": self.candidate_lines,
            "extras_match": self.extras_match,
            "report": self.report,
        }

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "PairRecord":
        """Rebuild a record from a persisted deterministic row."""
        return cls(**{key: row[key] for key in (
            "name", "equivalent", "reference_digest", "smart_digest",
            "reference_lines", "candidate_lines", "extras_match", "report",
        )})


@dataclass
class PairHalf:
    """One half of a split paired run, shipped back by its worker.

    Carries everything the parent needs to recombine the pair without
    re-simulating: the run record of this mode (whose ``trace_digest`` is
    the SHA-256 of the *reordered* trace — the Section IV-A comparison
    key) and the deterministic extras.  The trace itself never crosses the
    process boundary: because
    :meth:`~repro.kernel.tracing.TraceRecord.sort_key` and ``format`` are
    both injective on (local date, process, message), digest equality is
    exactly reordered-trace equality, and a mismatching pair is upgraded
    to the full line-level report by :func:`diff_pair_streaming`.
    """

    name: str
    mode: str
    record: SpecRunRecord
    extras: Dict[str, object]
    wall_seconds: float = 0.0
    worker_pid: int = 0


def _append_extras_report(report: str, extras_match: bool, ref_extras, smart_extras) -> str:
    if extras_match:
        return report
    return (report + "\n" if report else "") + (
        f"extras differ: reference={ref_extras!r} smart={smart_extras!r}"
    )


def combine_pair(ref: PairHalf, smart: PairHalf) -> PairRecord:
    """Recombine the two halves of a split pair: digest diff + extras check.

    The digests decide trace equivalence — an equivalent outcome is
    bit-identical to the historical line-level diff; a mismatching one
    carries a digest-level report, which the campaign runner upgrades to
    the full line diff by re-running the pair on trace spools (see
    :func:`diff_pair_streaming`).
    """
    extras_match = ref.extras == smart.extras
    traces_equal = ref.record.trace_digest == smart.record.trace_digest
    reference_lines = ref.record.trace_lines
    candidate_lines = smart.record.trace_lines
    report = "" if traces_equal else (
        f"traces differ: {reference_lines} reference lines, "
        f"{candidate_lines} candidate lines (sorted-trace digests "
        f"{ref.record.trace_digest[:12]} != "
        f"{smart.record.trace_digest[:12]})"
    )
    report = _append_extras_report(report, extras_match, ref.extras, smart.extras)
    return PairRecord(
        name=ref.name,
        equivalent=traces_equal and extras_match,
        reference_digest=ref.record.trace_digest,
        smart_digest=smart.record.trace_digest,
        reference_lines=reference_lines,
        candidate_lines=candidate_lines,
        extras_match=extras_match,
        report=report,
        wall_seconds=ref.wall_seconds + smart.wall_seconds,
        worker_pids=(ref.worker_pid, smart.worker_pid),
    )


# ---------------------------------------------------------------------------
# Worker entry points (top-level functions: they must be picklable)
# ---------------------------------------------------------------------------
def _run_one(
    spec: ScenarioSpec,
    trace_sink: str = DEFAULT_TRACE_SINK,
    telemetry: Telemetry = NULL_TELEMETRY,
):
    """Build and run ``spec`` in a fresh simulator; return (sim, built, wall).

    ``trace_sink`` names the :mod:`repro.kernel.tracing` sink kind the
    simulation emits into (``"digest"`` on the campaign happy path, so no
    trace record list ever exists).  ``telemetry`` is handed to the
    simulator, so an enabled sideband gets the kernel phase spans and —
    after the run — the per-FIFO burst routing counters; the default
    ``NULL_TELEMETRY`` keeps the hot path at one attribute check.
    """
    sim = Simulator(f"campaign_{spec.label}", trace_sink=make_sink(trace_sink))
    sim.telemetry = telemetry
    built = build_scenario(sim, spec)
    start = time.perf_counter()
    built.scenario.run()
    wall = time.perf_counter() - start
    if built.verify is not None:
        built.verify()
    if telemetry.enabled:
        _collect_fifo_counters(sim, telemetry)
    return sim, built, wall


def _export_trace(sim: Simulator, spec: ScenarioSpec, trace_out: Optional[str]) -> None:
    """Write the reordered spool of a finished run to ``trace_out``."""
    if trace_out is None:
        return
    writer = getattr(sim.trace, "write_sorted", None)
    if writer is None:
        raise ValueError(
            f"--trace-out needs a spool-backed sink, got {sim.trace.kind!r}"
        )
    os.makedirs(trace_out, exist_ok=True)
    path = os.path.join(trace_out, f"{spec.name}.{spec.mode}.trace")
    with open(path, "w") as stream:
        writer(stream)


def _record_from(spec: ScenarioSpec, sim: Simulator, built, wall: float) -> SpecRunRecord:
    return SpecRunRecord(
        name=spec.name,
        workload=spec.workload,
        mode=spec.mode,
        depth=spec.depth,
        quantum_ns=spec.quantum_ns,
        seed=spec.seed,
        timing=spec.timing,
        sim_end_fs=sim.now_fs,
        context_switches=sim.stats.context_switches,
        method_invocations=sim.stats.method_invocations,
        delta_cycles=sim.stats.delta_cycles,
        trace_lines=len(sim.trace),
        trace_digest=sim.trace.digest(),
        extra=built.extras() if built.extras is not None else {},
        wall_seconds=wall,
        worker_pid=os.getpid(),
    )


def execute_spec(
    spec: ScenarioSpec,
    trace_sink: str = DEFAULT_TRACE_SINK,
    trace_out: Optional[str] = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> SpecRunRecord:
    """Worker body of the single-mode campaign."""
    sim, built, wall = _run_one(spec, trace_sink, telemetry)
    record = _record_from(spec, sim, built, wall)
    _export_trace(sim, spec, trace_out)
    sim.trace.close()
    return record


def execute_half(
    spec: ScenarioSpec,
    mode: str,
    trace_sink: str = DEFAULT_TRACE_SINK,
    trace_out: Optional[str] = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> PairHalf:
    """Worker body of one half of a split pair: run ``spec`` in ``mode``.

    Runs are deterministic per seed, so the embedded record is bit-identical
    to what :func:`execute_spec` would produce for ``spec.with_mode(mode)``.
    Only the digest travels back to the parent — the streamed
    ``trace_digest`` is a faithful stand-in for the reordered trace, and
    the lines would dominate the IPC payload.
    """
    mode_spec = spec.with_mode(mode)
    sim, built, wall = _run_one(mode_spec, trace_sink, telemetry)
    record = _record_from(mode_spec, sim, built, wall)
    _export_trace(sim, mode_spec, trace_out)
    sim.trace.close()
    return PairHalf(
        name=spec.name,
        mode=mode,
        record=record,
        extras=built.extras() if built.extras is not None else {},
        wall_seconds=wall,
        worker_pid=os.getpid(),
    )


def diff_pair_streaming(spec: ScenarioSpec) -> PairRecord:
    """Full line-level diff of a pair over two bounded-memory trace spools.

    The mismatch path of the paired campaign: both modes re-run with a
    :class:`~repro.kernel.tracing.SpoolSink` and the two spools are
    merge-diffed in sorted order (:func:`compare_spools`), producing the
    same report the historical in-memory reorder-and-compare produced —
    without ever materializing either trace.  Deterministic, hence
    identical for any worker count.
    """
    ref_spec = spec.with_mode(MODE_REFERENCE)
    smart_spec = spec.with_mode(MODE_SMART)
    ref_sim, ref_built, ref_wall = _run_one(ref_spec, "spool")
    smart_sim, smart_built, smart_wall = _run_one(smart_spec, "spool")
    comparison = compare_spools(ref_sim.trace, smart_sim.trace)
    ref_extras = ref_built.extras() if ref_built.extras is not None else {}
    smart_extras = smart_built.extras() if smart_built.extras is not None else {}
    extras_match = ref_extras == smart_extras
    report = "" if comparison.equivalent else comparison.report()
    report = _append_extras_report(report, extras_match, ref_extras, smart_extras)
    pair = PairRecord(
        name=spec.name,
        equivalent=comparison.equivalent and extras_match,
        reference_digest=ref_sim.trace.digest(),
        smart_digest=smart_sim.trace.digest(),
        reference_lines=comparison.reference_count,
        candidate_lines=comparison.candidate_count,
        extras_match=extras_match,
        report=report,
        wall_seconds=ref_wall + smart_wall,
        worker_pids=(os.getpid(), os.getpid()),
    )
    ref_sim.trace.close()
    smart_sim.trace.close()
    return pair


def execute_paired_spec(spec: ScenarioSpec, trace_sink: str = DEFAULT_TRACE_SINK):
    """Run both halves of a pair inline and recombine them.

    Kept as the one-process entry point (and for API compatibility): the
    campaign itself schedules the two halves as independent jobs — see
    :meth:`CampaignRunner._execute` — and recombines with
    :func:`combine_pair`, which this function reuses, so the records are
    bit-identical either way.  A digest mismatch is upgraded to the full
    line-level report by re-running the pair on trace spools.

    Returns ``(SpecRunRecord, PairRecord)``: the run record is taken from
    the half matching ``spec.mode``, so a paired campaign never simulates
    the same (spec, mode) twice — both halves double as single-mode results.
    """
    ref_half = execute_half(spec, MODE_REFERENCE, trace_sink)
    smart_half = execute_half(spec, MODE_SMART, trace_sink)
    pair = combine_pair(ref_half, smart_half)
    if not pair.equivalent and trace_sink != "null":
        # With tracing off there is no trace to diff (the mismatch can only
        # come from the extras), so the spool upgrade would reintroduce the
        # trace validation the caller disabled.
        pair = diff_pair_streaming(spec)
    record = ref_half.record if spec.mode == MODE_REFERENCE else smart_half.record
    return record, pair


def execute_pair(spec: ScenarioSpec) -> PairRecord:
    """Just the :class:`PairRecord` of :func:`execute_paired_spec`."""
    return execute_paired_spec(spec)[1]


#: Job kinds (second element of a job tuple).  ``None`` marks a single-mode
#: job; a mode string marks one half of a split pair.
_JOB_SINGLE = None


def _execute_job(job):
    """Dispatch one tagged campaign job (see ``CampaignRunner._execute``).

    ``job`` is ``(spec_index, half_mode, spec, trace_sink, trace_out)``,
    optionally extended with ``(telemetry_dir, enqueued_monotonic)``; the
    index rides along so results arriving in completion order can be
    matched back to their spec without relying on submission order.

    With a telemetry directory the worker opens (once per process) an
    appending ``worker-<pid>.jsonl`` sideband and wraps the job in
    queue-wait / execute / serialize spans, flushing after every job so a
    killed worker loses at most the in-flight one.  The queue-wait span is
    cross-process span math: ``time.monotonic`` is system-wide on Linux,
    so the parent's enqueue stamp and this dequeue stamp share a clock.
    """
    index, half_mode, spec, trace_sink, trace_out = job[:5]
    telemetry_dir = job[5] if len(job) > 5 else None
    if telemetry_dir is None:
        if half_mode is _JOB_SINGLE:
            return index, half_mode, execute_spec(spec, trace_sink, trace_out)
        return index, half_mode, execute_half(spec, half_mode, trace_sink, trace_out)
    enqueued = job[6]
    telemetry = _worker_telemetry(telemetry_dir)
    mode = spec.mode if half_mode is _JOB_SINGLE else half_mode
    now = time.monotonic()
    if now > enqueued:
        telemetry.span_at(
            "campaign.queue_wait", enqueued, now - enqueued,
            spec=spec.name, mode=mode,
        )
    with telemetry.span("campaign.execute", spec=spec.name, mode=mode):
        if half_mode is _JOB_SINGLE:
            outcome = execute_spec(
                spec, trace_sink, trace_out, telemetry=telemetry
            )
        else:
            outcome = execute_half(
                spec, half_mode, trace_sink, trace_out, telemetry=telemetry
            )
    record = outcome if half_mode is _JOB_SINGLE else outcome.record
    with telemetry.span("campaign.serialize", spec=spec.name, mode=mode):
        # The canonical-row encode is the worker's share of getting the
        # result onto the wire; the pipe's own pickling cannot be timed
        # from inside the job.
        json.dumps(record.deterministic_row(), sort_keys=True)
    telemetry.counter("campaign.jobs_done")
    telemetry.flush()
    return index, half_mode, outcome


def _run_inline(func, jobs):
    """The inline executor: every job in order, in the calling process."""
    return (("result", func(job)) for job in jobs)


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------
JSONL_SCHEMA = 1


def campaign_header_row(
    campaign_specs: Sequence[ScenarioSpec],
    workers: int,
    paired: bool,
    shard: Optional[Tuple[int, int]] = None,
) -> Dict[str, object]:
    """The campaign header row of a JSONL file (first line).

    ``shard_by`` records *how* a sharded campaign was partitioned.  It is
    always written as ``"index"`` (round-robin, see
    :meth:`CampaignRunner.shard_specs`); older files may carry ``"cost"``
    from a retired cost-balanced partitioner.  Such files still merge —
    :func:`merge_jsonl` never reads the key — but a resume must re-derive
    the identical shard membership, so resuming one is rejected.  The key
    only exists on sharded headers, so unsharded files keep their original
    format, and sharded files written before the field existed carry no
    key and are read as ``"index"``.
    """
    row = {
        "type": "campaign",
        "schema": JSONL_SCHEMA,
        "specs": [spec.name for spec in campaign_specs],
        "workers": workers,
        "paired": paired,
        "shard": f"{shard[0]}/{shard[1]}" if shard else None,
    }
    if shard:
        row["shard_by"] = "index"
    return row


class JsonlSink:
    """Streams one deterministic JSONL row per completed run/pair.

    The first line is a campaign header row; each subsequent line is a
    ``run`` or ``pair`` row.  Rows are flushed as they complete so a
    multi-machine campaign can be tailed and partially merged while still
    running.  The header records the *whole* campaign's spec names (before
    shard partitioning), so :func:`merge_jsonl` can tell shards of the same
    campaign from shards of different ones.

    The resume path :meth:`replay`\\ s the rows recovered from a partially
    written file and marks them seen, so a re-executed spec whose run row
    survived a previous invocation does not produce a duplicate (which
    :func:`merge_jsonl` would rightly reject).
    """

    def __init__(
        self,
        stream: IO[str],
        campaign_specs: Sequence[ScenarioSpec],
        workers: int,
        paired: bool,
        shard: Optional[Tuple[int, int]] = None,
        header_row: Optional[Dict[str, object]] = None,
    ):
        self._stream = stream
        self._skip_runs: Set[Tuple[str, str]] = set()
        self._skip_pairs: Set[str] = set()
        self._write(
            header_row
            if header_row is not None
            else campaign_header_row(campaign_specs, workers, paired, shard)
        )

    def _write(self, row: Dict[str, object]) -> None:
        self._stream.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
        self._stream.write("\n")
        self._stream.flush()

    def reattach(self, stream: IO[str]) -> None:
        """Continue writing rows to another stream.

        Used by the resume path: the recovered prefix is written to a
        temporary file that atomically replaces the original, then the
        sink reattaches to the real file opened in append mode — so there
        is never a moment where the only copy of the campaign is
        truncated.
        """
        self._stream = stream

    def replay(self, runs: Sequence[SpecRunRecord], pairs: Sequence[PairRecord]) -> None:
        """Persist rows recovered from a resumed file and mark them seen."""
        for record in runs:
            self.run_completed(record)
            self._skip_runs.add((record.name, record.mode))
        for pair in pairs:
            self.pair_completed(pair)
            self._skip_pairs.add(pair.name)

    def run_completed(self, record: SpecRunRecord) -> None:
        if (record.name, record.mode) in self._skip_runs:
            return
        self._write({"type": "run", **record.deterministic_row()})

    def pair_completed(self, pair: PairRecord) -> None:
        if pair.name in self._skip_pairs:
            return
        self._write({"type": "pair", **pair.deterministic_row()})

    def timeout_completed(self, record: TimeoutRecord) -> None:
        """Persist the deterministic row of a budget-killed job.

        Never part of the resume skip sets: a resume drops timeout rows
        and re-executes the spec, so a fresh row (or the healed run/pair
        rows) replaces the old one."""
        self._write({"type": "timeout", **record.deterministic_row()})


class _TimedSink:
    """Times every JSONL sink write into the parent telemetry.

    Wraps the sink only *after* any resume replay has run, so recovered
    rows are not counted as fresh writes; the counters answer "how much
    parent time goes into persisting rows" without touching the rows."""

    def __init__(self, sink: JsonlSink, telemetry: Telemetry):
        self._sink = sink
        self._telemetry = telemetry

    def _timed(self, method, record) -> None:
        start = time.perf_counter()
        method(record)
        self._telemetry.counter(
            "campaign.sink_write_s", time.perf_counter() - start
        )
        self._telemetry.counter("campaign.sink_writes")

    def run_completed(self, record: SpecRunRecord) -> None:
        self._timed(self._sink.run_completed, record)

    def pair_completed(self, pair: PairRecord) -> None:
        self._timed(self._sink.pair_completed, pair)

    def timeout_completed(self, record: TimeoutRecord) -> None:
        self._timed(self._sink.timeout_completed, record)


def parse_jsonl_rows(lines: Iterable[str]):
    """Yield ``(type, row)`` for every non-empty line of a campaign JSONL."""
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"JSONL line {number} is not valid JSON: {exc}") from None
        kind = row.get("type")
        if kind not in ("campaign", "run", "pair", "timeout"):
            raise ValueError(f"JSONL line {number} has unknown type {kind!r}")
        yield kind, row


class CampaignResumeError(ValueError):
    """A ``resume=True`` request that cannot be honoured (wrong header,
    corrupt file, missing path).  Distinct from the :class:`ValueError`\\ s
    a broken simulation may raise, so CLIs can report resume problems
    without swallowing genuine model bugs."""


def load_resume_state(
    path: str,
    campaign_specs: Sequence[ScenarioSpec],
    paired: bool,
    shard: Optional[Tuple[int, int]],
    shard_specs: Optional[Sequence[ScenarioSpec]] = None,
):
    """Parse a partially written campaign JSONL for ``resume=True``.

    Returns ``(header_row, runs, pairs)``.  The header must describe the
    *same* campaign as the one being resumed — identical spec list, paired
    flag, shard (including the partitioner: a shard file written by the
    retired cost partitioner cannot be resumed as a round-robin shard) and
    schema — otherwise the resume is rejected: silently appending rows of
    one campaign to the file of another would merge into a
    plausible-looking fingerprint that corresponds to no real run.  (A differing ``workers``
    value is fine: worker count never affects the rows.)  Every recovered
    row must belong to a known spec, and run rows must match the spec's
    identity columns (workload, mode, depth, quantum_ns, seed, timing).
    When resuming one shard of a campaign, ``shard_specs`` names the specs
    of *this* shard: only their rows may appear in the file — a row from
    another shard (the signature of a re-partitioned campaign) is
    rejected, because replaying it would produce a shard file the merge
    rightly refuses.  Rows do **not**
    record ``params`` or the trace-sink kind, so a resume cannot detect
    those changing between invocations — resuming assumes both are
    unchanged, like sharding does.  ``timeout`` rows are validated like
    run rows but *not* returned: the timed-out spec is re-executed and the
    healed file reproduces the uninterrupted fingerprint.  A truncated
    *final* line — the signature of a run that died mid-write — is
    dropped; corruption anywhere else still raises.
    """
    header: Optional[Dict[str, object]] = None
    runs: List[SpecRunRecord] = []
    pairs: List[PairRecord] = []
    timeouts: List[TimeoutRecord] = []
    with open(path) as handle:
        lines = handle.read().splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            kind = row.get("type")
            if kind == "run":
                parsed = SpecRunRecord.from_row(row)
            elif kind == "pair":
                parsed = PairRecord.from_row(row)
            elif kind == "timeout":
                parsed = TimeoutRecord.from_row(row)
            elif kind == "campaign":
                parsed = row
                if header is not None:
                    raise CampaignResumeError(
                        f"{path} contains more than one campaign header row"
                    )
            else:
                raise ValueError(f"unknown row type {kind!r}")
        except CampaignResumeError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            if number == len(lines):
                break  # torn final line: the interrupted write, drop it
            raise CampaignResumeError(
                f"{path} line {number} is not a valid campaign row ({exc}); "
                f"cannot resume from a corrupt file"
            ) from None
        if kind == "campaign":
            if runs or pairs or timeouts:
                raise CampaignResumeError(
                    f"{path} does not start with a campaign header row"
                )
            header = parsed
        elif kind == "run":
            runs.append(parsed)
        elif kind == "timeout":
            timeouts.append(parsed)
        else:
            pairs.append(parsed)
    if header is None:
        raise CampaignResumeError(
            f"{path} does not start with a campaign header row"
        )
    expected = campaign_header_row(campaign_specs, 0, paired, shard)
    for key in ("schema", "specs", "paired", "shard"):
        if header.get(key) != expected[key]:
            raise CampaignResumeError(
                f"cannot resume {path}: its campaign header differs on "
                f"{key!r} ({header.get(key)!r} != {expected[key]!r}) — the "
                f"file belongs to a different campaign"
            )
    if shard is not None:
        # Files written before the shard_by key existed carry none; they
        # were always round-robin ("index") partitioned.
        recorded_by = header.get("shard_by") or "index"
        if recorded_by != expected["shard_by"]:
            raise CampaignResumeError(
                f"cannot resume {path}: the file's shard was partitioned by "
                f"{recorded_by!r} but this campaign shards by "
                f"{expected['shard_by']!r} — shard membership would not match"
            )
    by_name = {spec.name: spec for spec in campaign_specs}
    in_shard = (
        {spec.name for spec in shard_specs} if shard_specs is not None else None
    )

    def check_shard_membership(kind: str, name: str) -> None:
        if in_shard is not None and name not in in_shard:
            raise CampaignResumeError(
                f"cannot resume {path}: {kind} row for spec {name!r} does "
                f"not belong to shard {expected['shard']} (the file mixes "
                f"rows of another shard — was the campaign re-partitioned?)"
            )

    seen_runs: Set[Tuple[str, str]] = set()
    for record in runs:
        spec = by_name.get(record.name)
        if spec is None:
            raise CampaignResumeError(
                f"cannot resume {path}: run row for unknown spec {record.name!r}"
            )
        check_shard_membership("run", record.name)
        expected_identity = spec.with_mode(record.mode).identity_row()
        row_identity = {
            key: getattr(record, key) for key in expected_identity
        }
        if row_identity != expected_identity:
            raise CampaignResumeError(
                f"cannot resume {path}: run row for spec {record.name!r} was "
                f"written by a different spec definition "
                f"({row_identity} != {expected_identity})"
            )
        key = (record.name, record.mode)
        if key in seen_runs:
            raise CampaignResumeError(
                f"cannot resume {path}: duplicate run row for spec "
                f"{record.name!r} mode {record.mode!r}"
            )
        seen_runs.add(key)
    seen_pairs: Set[str] = set()
    for pair in pairs:
        spec = by_name.get(pair.name)
        if spec is None:
            raise CampaignResumeError(
                f"cannot resume {path}: pair row for unknown spec {pair.name!r}"
            )
        check_shard_membership("pair", pair.name)
        if not spec_is_pairable(spec):
            raise CampaignResumeError(
                f"cannot resume {path}: pair row for non-pairable spec "
                f"{pair.name!r}"
            )
        if pair.name in seen_pairs:
            raise CampaignResumeError(
                f"cannot resume {path}: duplicate pair row for spec {pair.name!r}"
            )
        seen_pairs.add(pair.name)
    for timeout in timeouts:
        spec = by_name.get(timeout.name)
        if spec is None:
            raise CampaignResumeError(
                f"cannot resume {path}: timeout row for unknown spec "
                f"{timeout.name!r}"
            )
        check_shard_membership("timeout", timeout.name)
        expected_identity = spec.with_mode(timeout.mode).identity_row()
        row_identity = {
            key: getattr(timeout, key) for key in expected_identity
        }
        if row_identity != expected_identity:
            raise CampaignResumeError(
                f"cannot resume {path}: timeout row for spec "
                f"{timeout.name!r} was written by a different spec "
                f"definition ({row_identity} != {expected_identity})"
            )
    return header, runs, pairs


def _check_merge_completeness(
    headers: List[Dict[str, object]],
    runs: List[SpecRunRecord],
    pairs: List[PairRecord],
    timeouts: Sequence[TimeoutRecord] = (),
) -> None:
    """Reject incomplete merges: a missing shard, a truncated file or a
    dropped pair row must fail loudly instead of yielding a plausible
    partial fingerprint.  A spec with a ``timeout`` row is complete *as a
    timeout*: its run/pair rows are excused — the timeout row is its
    deterministic outcome until a resume re-runs it.  The excusal is by
    spec name, not (name, mode): when the half matching the spec's own
    mode is the one killed, the completed other half legitimately leaves
    no row at all (a half only writes a run row for the spec's own mode,
    and the pair never completes), and the merge cannot know the own mode
    from rows alone.  Contradictions it *can* see — a run row and a
    timeout row for the same (name, mode) — are rejected by the caller."""
    shards = [h.get("shard") for h in headers]
    if any(shards) and not all(shards):
        raise ValueError(
            "cannot mix sharded and unsharded campaign JSONL files in one merge"
        )
    if any(shards):
        # Shards are slices of ONE campaign: the headers record the whole
        # (pre-partitioning) spec list, which must be identical everywhere —
        # shards of different campaigns would otherwise merge into a
        # plausible fingerprint that corresponds to no real campaign.
        spec_lists = {tuple(h.get("specs", [])) for h in headers}
        if len(spec_lists) != 1:
            raise ValueError(
                "merged shard headers describe different campaigns "
                "(their spec lists differ)"
            )
        parsed = set()
        counts = set()
        for shard in shards:
            index_text, _, count_text = str(shard).partition("/")
            parsed.add(int(index_text))
            counts.add(int(count_text))
        if len(counts) != 1:
            raise ValueError(
                f"merged shard headers disagree on the shard count: {sorted(counts)}"
            )
        count = counts.pop()
        missing = sorted(set(range(count)) - parsed)
        if missing:
            raise ValueError(
                f"incomplete shard set: missing shard(s) "
                f"{', '.join(f'{m}/{count}' for m in missing)}"
            )
    timeout_names = {record.name for record in timeouts}
    run_names = {record.name for record in runs}
    expected = [str(name) for h in headers for name in h.get("specs", [])]
    missing_runs = sorted(set(expected) - run_names - timeout_names)
    if missing_runs:
        raise ValueError(
            f"no run row for spec(s) {', '.join(missing_runs)} — a shard "
            f"file is truncated or a campaign did not finish"
        )
    if headers and all(h.get("paired") for h in headers):
        pair_names = {pair.name for pair in pairs} | timeout_names
        missing_pairs = []
        for record in runs:
            spec = ScenarioSpec(
                name=record.name,
                workload=record.workload,
                mode=record.mode,
                depth=record.depth,
                quantum_ns=record.quantum_ns,
                seed=record.seed,
                timing=record.timing,
            )
            try:
                pairable = spec_is_pairable(spec)
            except KeyError:  # workload unknown to this checkout
                continue
            if pairable and record.name not in pair_names:
                missing_pairs.append(record.name)
        if missing_pairs:
            raise ValueError(
                f"no pair row for pairable spec(s) "
                f"{', '.join(sorted(missing_pairs))} — a shard file is "
                f"truncated or a campaign did not finish"
            )


def merge_jsonl(paths: Sequence[str]) -> "CampaignResult":
    """Merge campaign JSONL files (e.g. one per shard) into one result.

    The merged :meth:`CampaignResult.fingerprint` is byte-identical to what
    an unsharded run of the union of the shards would produce: the rows
    carry only deterministic fields and the aggregate sorts by spec name.
    Duplicate (name, mode) runs — the same spec in two shards — are
    rejected, as they would be in an unsharded campaign; so are incomplete
    merges (a missing shard of an ``i/N`` set, a header spec without its
    run row, a pairable run without its pair row), which would otherwise
    produce a plausible-looking partial fingerprint.  ``timeout`` rows are
    first-class: a budget-killed spec's timeout row stands in for its
    run/pair rows, and the merged fingerprint covers it.
    """
    runs: List[SpecRunRecord] = []
    pairs: List[PairRecord] = []
    timeouts: List[TimeoutRecord] = []
    headers: List[Dict[str, object]] = []
    for path in paths:
        first = True
        with open(path) as handle:
            for kind, row in parse_jsonl_rows(handle):
                if first and kind != "campaign":
                    raise ValueError(
                        f"{path} does not start with a campaign header row"
                    )
                first = False
                try:
                    if kind == "campaign":
                        schema = row.get("schema")
                        if schema != JSONL_SCHEMA:
                            raise ValueError(
                                f"{path} uses campaign JSONL schema "
                                f"{schema!r}; this version reads schema "
                                f"{JSONL_SCHEMA}"
                            )
                        headers.append(row)
                    elif kind == "run":
                        runs.append(SpecRunRecord.from_row(row))
                    elif kind == "timeout":
                        timeouts.append(TimeoutRecord.from_row(row))
                    else:
                        pairs.append(PairRecord.from_row(row))
                except KeyError as exc:
                    raise ValueError(
                        f"{path}: {kind} row is missing field {exc}"
                    ) from None
        if first:
            raise ValueError(f"{path} contains no campaign rows")
    seen_runs = set()
    for record in runs:
        key = (record.name, record.mode)
        if key in seen_runs:
            raise ValueError(
                f"duplicate run row for spec {record.name!r} mode "
                f"{record.mode!r} across the merged JSONL files"
            )
        seen_runs.add(key)
    seen_pairs = set()
    for pair in pairs:
        if pair.name in seen_pairs:
            raise ValueError(
                f"duplicate pair row for spec {pair.name!r} across the "
                f"merged JSONL files"
            )
        seen_pairs.add(pair.name)
    seen_timeouts = set()
    for timeout in timeouts:
        key = (timeout.name, timeout.mode)
        if key in seen_timeouts:
            raise ValueError(
                f"duplicate timeout row for spec {timeout.name!r} mode "
                f"{timeout.mode!r} across the merged JSONL files"
            )
        seen_timeouts.add(key)
        if key in seen_runs:
            # One (spec, mode) job either completed or was killed; a file
            # set claiming both is stitched from different campaign
            # executions (a resume always drops timeout rows before
            # re-running, so no single campaign can write both).
            raise ValueError(
                f"contradictory rows for spec {timeout.name!r} mode "
                f"{timeout.mode!r}: both a run row and a timeout row "
                f"across the merged JSONL files"
            )
        if timeout.name in seen_pairs:
            # A pair row proves both halves completed, so a timeout row
            # for the same spec can only come from a different execution
            # (e.g. shards written before and after a re-partition).
            raise ValueError(
                f"contradictory rows for spec {timeout.name!r}: both a "
                f"pair row and a timeout row across the merged JSONL files"
            )
    _check_merge_completeness(headers, runs, pairs, timeouts)
    workers = max((int(h.get("workers", 0)) for h in headers), default=0)
    return CampaignResult(
        runs=runs,
        pairs=pairs,
        workers=workers,
        wall_seconds=0.0,
        timeouts=timeouts,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Aggregated outcome of one campaign execution."""

    runs: List[SpecRunRecord]
    pairs: List[PairRecord]
    workers: int
    wall_seconds: float
    #: ``(index, count)`` when this result covers one shard of a campaign.
    shard: Optional[Tuple[int, int]] = None
    #: Budget-killed jobs (see :class:`~repro.campaign.executor
    #: .TimeoutRecord`); empty for an unbudgeted or on-budget campaign.
    timeouts: List[TimeoutRecord] = field(default_factory=list)

    @property
    def all_pairs_equivalent(self) -> bool:
        return all(pair.equivalent for pair in self.pairs)

    @property
    def complete(self) -> bool:
        """True when no job was killed by a budget (``--resume`` heals an
        incomplete campaign by re-running its timed-out specs)."""
        return not self.timeouts

    def worker_pids(self) -> List[int]:
        """Distinct worker PIDs that executed work (provenance only).

        Pairs contribute the PIDs of both of their halves; records rebuilt
        from JSONL carry PID 0, which is filtered out."""
        pids = {record.worker_pid for record in self.runs}
        for pair in self.pairs:
            pids.update(pair.worker_pids)
        pids.discard(0)
        return sorted(pids)

    def aggregate_rows(self) -> Dict[str, List[Dict[str, object]]]:
        """The deterministic aggregate: identical for any worker count.

        The ``timeouts`` key appears only when a budget killed a job, so
        the fingerprint of every campaign without timeouts is unchanged
        from the pre-budget pipeline byte for byte.
        """
        rows = {
            "runs": [
                record.deterministic_row()
                for record in sorted(self.runs, key=lambda r: (r.name, r.mode))
            ],
            "pairs": [
                pair.deterministic_row()
                for pair in sorted(self.pairs, key=lambda p: p.name)
            ],
        }
        if self.timeouts:
            rows["timeouts"] = [
                record.deterministic_row()
                for record in sorted(
                    self.timeouts, key=lambda t: (t.name, t.mode)
                )
            ]
        return rows

    def canonical_json(self) -> str:
        return json.dumps(
            self.aggregate_rows(), sort_keys=True, separators=(",", ":")
        )

    def fingerprint(self) -> str:
        """SHA-256 over the canonical aggregate (the comparison handle)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # ------------------------------------------------------------------
    def run_rows(self) -> List[Dict[str, object]]:
        """Printable per-run rows (wall times included, for humans)."""
        rows = []
        for record in sorted(self.runs, key=lambda r: (r.name, r.mode)):
            row = record.deterministic_row()
            row["extra"] = json.dumps(row["extra"], sort_keys=True)
            row["trace_digest"] = record.trace_digest[:12]
            row["wall_s"] = round(record.wall_seconds, 4)
            rows.append(row)
        return rows

    def pair_rows(self) -> List[Dict[str, object]]:
        rows = []
        for pair in sorted(self.pairs, key=lambda p: p.name):
            rows.append(
                {
                    "name": pair.name,
                    "equivalent": pair.equivalent,
                    "trace_lines": pair.reference_lines,
                    "reference_digest": pair.reference_digest[:12],
                    "smart_digest": pair.smart_digest[:12],
                    "wall_s": round(pair.wall_seconds, 4),
                }
            )
        return rows

    def table(self) -> str:
        columns = [
            "name", "workload", "mode", "depth", "seed", "context_switches",
            "trace_lines", "trace_digest", "wall_s",
        ]
        return dict_rows_table(self.run_rows(), columns, title="Campaign runs")

    def pairs_table(self) -> str:
        return dict_rows_table(
            self.pair_rows(),
            ["name", "equivalent", "trace_lines", "reference_digest",
             "smart_digest", "wall_s"],
            title="Paired reference/Smart equivalence (Section IV-A)",
        )

    def summary(self) -> str:
        shard = (
            f", shard={self.shard[0]}/{self.shard[1]}" if self.shard else ""
        )
        lines = [
            f"{len(self.runs)} runs, {len(self.pairs)} pairs, "
            f"workers={self.workers}{shard}, wall={self.wall_seconds:.2f}s",
            f"worker processes used: {len(self.worker_pids())}",
            f"all pairs equivalent: {self.all_pairs_equivalent}",
            f"campaign fingerprint: {self.fingerprint()}",
        ]
        if self.timeouts:
            lines.append(f"budget timeouts: {len(self.timeouts)}")
            for record in sorted(self.timeouts, key=lambda t: (t.name, t.mode)):
                lines.append(
                    f"TIMEOUT {record.name} [{record.mode}]: exceeded the "
                    f"{record.scope} limit of {record.limit_s}s "
                    f"(--resume re-runs it)"
                )
        for pair in self.pairs:
            if not pair.equivalent:
                lines.append(f"PAIR MISMATCH {pair.name}:\n{pair.report}")
        return "\n".join(lines)


class CampaignRunner:
    """Shards specs across worker processes and aggregates the records.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) runs inline in
        the calling process; more start ``min(workers, jobs)`` long-lived
        workers once per campaign.  Bit-identical aggregate either way.
    paired:
        When True (default) every pairable spec additionally runs the
        reference/Smart equivalence diff.  The two runs of a pair are
        scheduled as independent jobs and recombined at aggregation, so
        they can execute on two different workers.
    mp_start_method:
        Optional :mod:`multiprocessing` start method ("fork", "spawn", ...);
        ``None`` uses the platform default.
    shard:
        Optional ``(index, count)``: run only the ``index``-th deterministic
        shard of the spec list (see :meth:`shard_specs`).  Merging the JSONL
        of all ``count`` shards with :func:`merge_jsonl` reproduces the
        unsharded fingerprint.
    budget:
        Optional :class:`~repro.campaign.executor.RunBudget`.
        When a limit is set, jobs run on worker processes (even at
        ``workers=1``) that report every job: an overrunning job kills
        only its own worker and is recorded as a deterministic ``timeout``
        row (see :class:`~repro.campaign.executor.TimeoutRecord`);
        ``--resume`` re-runs timed-out specs.  A budgeted campaign in
        which nothing times out aggregates byte-identically to an
        unbudgeted one.
    trace_sink:
        Kind of :class:`~repro.kernel.tracing.TraceSink` every worker
        simulation emits into (one of
        :data:`~repro.kernel.tracing.SINK_KINDS`).  The default
        ``"digest"`` streams the trace into its digest without ever
        materializing records; ``"list"`` restores the historical
        collector; ``"null"`` disables tracing — digests degenerate to the
        empty-trace digest on both sides of a pair, so trace validation is
        off and only the deterministic extras are compared.
    trace_out:
        Optional directory receiving one reordered trace file per run
        (``<spec>.<mode>.trace``); requires a spool-backed sink
        (``trace_sink="spool"``).
    auto_replay:
        When True, specs sharing an anchor (identical spec identity modulo
        name/depth/quantum — see
        :func:`~repro.campaign.evaluators.replay_group_key`) are routed
        through record-and-replay: the group's first spec is simulated
        once with a dependency recorder (its row is byte-identical to a
        plain simulation — recording only observes) and every other member
        is priced by replaying the spool (rows tagged
        ``"evaluator": "replay"``).  A group whose recording is poisoned,
        and any point outside the recording's validity envelope
        (:class:`~repro.replay.ReplayInvalid`), falls back to plain
        simulation — auto-replay never changes *which* rows exist, only
        how the eligible ones were computed.  Specs that would run as
        pairs are never routed (a pair diffs traces; replay produces
        none).  The routing pass runs inline in the parent — replay is an
        order of magnitude cheaper than simulation — and is therefore not
        covered by ``budget``.
    auto_replay_validate:
        With ``auto_replay``: cross-validate this many replayed points per
        group against fresh recorded simulations; any divergence raises
        :class:`~repro.replay.ReplayError`.  The sample is evenly spaced
        over the group's points, each position served by the first
        replayed point at or after it (``1`` checks the first replayed
        point), and each is checked as soon as it has been replayed, so
        at most ``auto_replay_validate + 1`` replay results with their
        per-word dates are alive at a time (see
        :func:`~repro.campaign.evaluators.route_group`).  ``0`` trusts the
        anchor self-check.
    telemetry_dir:
        Optional directory receiving the :mod:`repro.telemetry` sideband:
        the parent writes ``parent.jsonl`` (sink/recombine timing, replay
        routing counters, the overall ``campaign.run`` span), every worker
        process appends ``worker-<pid>.jsonl`` (queue-wait / execute /
        serialize spans plus the kernel and FIFO counters of its runs),
        and at the end everything is concatenated into ``telemetry.jsonl``.
        Telemetry is wall-clock data and stays strictly out of the
        deterministic rows — fingerprints are byte-identical with it on or
        off.  ``None`` (the default) costs one attribute check per run.
    progress:
        When True, render a live single-line progress ticker on stderr
        (specs done/total, rate, ETA).  Display only; never touches
        stdout or the rows.
    """

    def __init__(
        self,
        workers: int = 1,
        paired: bool = True,
        mp_start_method: Optional[str] = None,
        shard: Optional[Tuple[int, int]] = None,
        trace_sink: str = DEFAULT_TRACE_SINK,
        trace_out: Optional[str] = None,
        budget: Optional[RunBudget] = None,
        auto_replay: bool = False,
        auto_replay_validate: int = 1,
        telemetry_dir: Optional[str] = None,
        progress: bool = False,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard is not None:
            index, count = shard
            if count < 1:
                raise ValueError(f"shard count must be >= 1, got {count}")
            if not 0 <= index < count:
                raise ValueError(
                    f"shard index must be in [0, {count}), got {index}"
                )
            shard = (index, count)
        if trace_sink not in SINK_KINDS:
            raise ValueError(
                f"trace_sink must be one of {', '.join(SINK_KINDS)}, "
                f"got {trace_sink!r}"
            )
        if trace_out is not None and trace_sink != "spool":
            raise ValueError(
                f"trace_out requires trace_sink='spool', got {trace_sink!r}"
            )
        if auto_replay_validate < 0:
            raise ValueError(
                f"auto_replay_validate must be >= 0, got {auto_replay_validate}"
            )
        self.workers = workers
        self.paired = paired
        self.mp_start_method = mp_start_method
        self.shard = shard
        self.budget = budget if budget is not None else RunBudget()
        self.trace_sink = trace_sink
        self.trace_out = trace_out
        self.auto_replay = auto_replay
        self.auto_replay_validate = auto_replay_validate
        self.telemetry_dir = telemetry_dir
        self.progress = progress
        self._telemetry = NULL_TELEMETRY
        self._ticker: Optional[ProgressTicker] = None
        self._job_count = 0

    # ------------------------------------------------------------------
    @staticmethod
    def shard_specs(
        specs: Sequence[ScenarioSpec], index: int, count: int
    ) -> List[ScenarioSpec]:
        """Deterministic shard ``index`` of ``count``: every ``count``-th
        spec starting at ``index`` (round-robin over the spec list order,
        so shards are balanced regardless of how the campaign groups
        expensive specs)."""
        return list(specs[index::count])

    # ------------------------------------------------------------------
    def _auto_replay_pass(self, specs: Sequence[ScenarioSpec], sink=None):
        """Route sweep groups through record-and-replay (see ``auto_replay``).

        Returns ``(remaining_specs, rows)``: the specs that must still be
        simulated by the normal job path, and the rows produced here (one
        plain simulated row per recorded anchor, one replay-tagged row per
        successfully replayed point).  Persisted to ``sink`` immediately,
        like worker results.
        """
        # Imported here: evaluators imports execute_spec/_record_from from
        # this module, so a module-level import would be circular.
        from .evaluators import replay_group_key, route_group

        telemetry = self._telemetry
        ticker = self._ticker
        on_row = None if ticker is None else (
            lambda name: ticker.item_done(detail=name)
        )
        groups: Dict[Tuple[object, ...], List[ScenarioSpec]] = {}
        for spec in specs:
            if self.paired and spec_is_pairable(spec):
                continue  # pairs diff traces; replay rows carry none
            groups.setdefault(replay_group_key(spec), []).append(spec)
        routed: Dict[str, SpecRunRecord] = {}
        for members in groups.values():
            if len(members) < 2:
                continue
            anchor, points = members[0], members[1:]
            route = route_group(
                anchor, points, self.auto_replay_validate, telemetry,
                self.trace_sink, on_row,
            )
            if route.unreplayable is not None:
                # Poisoned recording or failed self-check: the whole group
                # stays on the simulation path.
                telemetry.counter("replay.poisoned_groups")
                continue
            telemetry.counter("replay.groups_routed")
            # Refused points (None rows) stay on the simulation path; the
            # router counted them by construct.
            for spec, row in zip(members, route.rows):
                if row is not None:
                    routed[spec.name] = row
        rows = [routed[spec.name] for spec in specs if spec.name in routed]
        if sink is not None:
            for row in rows:
                sink.run_completed(row)
        remaining = [spec for spec in specs if spec.name not in routed]
        return remaining, rows

    # ------------------------------------------------------------------
    def _execute(self, specs: Sequence[ScenarioSpec], executor, sink=None):
        """Run the campaign body with a completion-order job executor.

        Each spec becomes either one ``single`` job, or — when ``paired``
        is on and the spec is pairable — two independent half jobs (one per
        mode) whose results are recombined here; the half matching
        ``spec.mode`` doubles as the spec's single-mode run, so no
        (spec, mode) simulates twice.  ``executor(func, jobs)`` yields
        :func:`~repro.campaign.executor.run_with_budget` events
        in completion order, so the JSONL sink persists each result as it
        arrives.  A budget-killed job becomes a :class:`TimeoutRecord`: it
        is persisted and aggregated but never recombined — a pair with a
        timed-out half simply has no pair row (the timeout row excuses it
        at merge time).
        """
        jobs = []
        for index, spec in enumerate(specs):
            if self.paired and spec_is_pairable(spec):
                jobs.append(self._job(index, MODE_REFERENCE, spec))
                jobs.append(self._job(index, MODE_SMART, spec))
            else:
                jobs.append(self._job(index, _JOB_SINGLE, spec))
        self._job_count = len(jobs)
        telemetry = self._telemetry
        ticker = self._ticker
        runs, pairs, timeouts = [], [], []
        halves: Dict[int, Dict[str, PairHalf]] = {}
        for event in executor(_execute_job, jobs):
            if event[0] == "timeout":
                _, job, scope = event
                half_mode, spec = job[1:3]
                mode = spec.mode if half_mode is _JOB_SINGLE else half_mode
                limit = (
                    self.budget.campaign_budget_s
                    if scope == SCOPE_CAMPAIGN
                    else self.budget.spec_timeout_s
                )
                record = TimeoutRecord.for_spec(spec, mode, scope, limit)
                timeouts.append(record)
                if sink is not None:
                    sink.timeout_completed(record)
                if ticker is not None:
                    ticker.item_done(detail=f"timeout {spec.name}")
                continue
            index, half_mode, outcome = event[1]
            spec = specs[index]
            if half_mode is _JOB_SINGLE:
                runs.append(outcome)
                if sink is not None:
                    sink.run_completed(outcome)
                if ticker is not None:
                    ticker.item_done(detail=spec.name)
                continue
            half = outcome
            if half.mode == spec.mode:
                runs.append(half.record)
                if sink is not None:
                    sink.run_completed(half.record)
            pending = halves.setdefault(index, {})
            pending[half.mode] = half
            if len(pending) == 2:
                recombine_t0 = (
                    time.perf_counter() if telemetry.enabled else 0.0
                )
                pair = combine_pair(
                    pending[MODE_REFERENCE], pending[MODE_SMART]
                )
                if not pair.equivalent and self.trace_sink != "null":
                    # Failure path: the worker halves carry digests only, so
                    # re-run the pair inline over trace spools to upgrade
                    # the report to the full line-level diff
                    # (deterministic, hence identical for any worker
                    # count).  Not with tracing off: a null-sink mismatch
                    # is extras-only and the spool re-run would
                    # reintroduce the disabled trace validation.
                    pair = diff_pair_streaming(spec)
                if telemetry.enabled:
                    telemetry.counter(
                        "campaign.recombine_s",
                        time.perf_counter() - recombine_t0,
                    )
                    telemetry.counter("campaign.pairs_recombined")
                pairs.append(pair)
                if sink is not None:
                    sink.pair_completed(pair)
                if ticker is not None:
                    ticker.item_done(detail=spec.name)
                del halves[index]
        return runs, pairs, timeouts

    def _job(self, index: int, half_mode: Optional[str], spec: ScenarioSpec):
        """Build one job tuple; telemetry extends it with the sideband
        directory and an enqueue stamp (see :func:`_execute_job`)."""
        job = (index, half_mode, spec, self.trace_sink, self.trace_out)
        if self.telemetry_dir is None:
            return job
        return job + (self.telemetry_dir, time.monotonic())

    def _merge_telemetry(self) -> None:
        """Concatenate the parent and per-worker sidebands into
        ``telemetry.jsonl``.  Every event carries its pid, so the merge is
        pure concatenation; the per-process source files are removed."""
        destination = os.path.join(self.telemetry_dir, MERGED_TELEMETRY)
        # Only the files this campaign's processes wrote — the directory
        # may hold unrelated JSONL (e.g. the campaign rows file).
        sources = [
            os.path.join(self.telemetry_dir, name)
            for name in sorted(os.listdir(self.telemetry_dir))
            if name == "parent.jsonl"
            or (name.startswith("worker-") and name.endswith(".jsonl"))
        ]
        if sources:
            merge_telemetry_files(sources, destination, remove_sources=True)
        # An inline (workers=1) run wrote its worker file from this very
        # process; drop the cached handle so a later run starts fresh.
        _WORKER_TELEMETRY.pop((self.telemetry_dir, os.getpid()), None)

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        jsonl: Optional[str] = None,
        resume: bool = False,
    ) -> CampaignResult:
        """Execute the campaign; see the class docstring.

        ``resume=True`` (requires ``jsonl``) re-reads an existing JSONL
        file of the *same* campaign (identical header; anything else is
        rejected), skips every spec whose run row — and pair row, when one
        is due — is already present, rewrites the file with the recovered
        rows and appends only the missing ones.  The aggregated result
        covers the whole campaign either way, so the final
        :meth:`CampaignResult.fingerprint` is byte-identical to an
        uninterrupted run.
        """
        specs = list(specs)
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate spec names in campaign: {duplicates}")
        for spec in specs:
            spec.validate()
        campaign_specs = specs
        if self.shard is not None:
            specs = self.shard_specs(specs, *self.shard)
        if resume and not jsonl:
            raise CampaignResumeError(
                "resume=True requires a jsonl path to resume from"
            )
        header_row = None
        done_runs: List[SpecRunRecord] = []
        done_pairs: List[PairRecord] = []
        resuming_existing = resume and os.path.exists(jsonl)
        if resuming_existing:
            header_row, done_runs, done_pairs = load_resume_state(
                jsonl, campaign_specs, self.paired, self.shard,
                shard_specs=specs if self.shard is not None else None,
            )
        seen_runs = {(record.name, record.mode) for record in done_runs}
        seen_pairs = {pair.name for pair in done_pairs}
        todo = []
        for spec in specs:
            needs_pair = self.paired and spec_is_pairable(spec)
            if (spec.name, spec.mode) in seen_runs and (
                not needs_pair or spec.name in seen_pairs
            ):
                continue
            todo.append(spec)
        telemetry = NULL_TELEMETRY
        if self.telemetry_dir is not None:
            os.makedirs(self.telemetry_dir, exist_ok=True)
            telemetry = Telemetry(
                "campaign",
                path=os.path.join(self.telemetry_dir, "parent.jsonl"),
            )
        self._telemetry = telemetry
        if self.progress:
            self._ticker = ProgressTicker(len(todo), label="campaign")
        start = time.perf_counter()
        start_mono = time.monotonic()
        sink_file = None
        sink = None
        try:
            if jsonl and resuming_existing:
                # Rewrite the recovered prefix (healing a torn final line)
                # into a sibling temp file and atomically replace the
                # original, so the completed work is never the only copy
                # in a truncated file; then append the new rows.  The
                # replayed rows are marked seen so a partially complete
                # spec cannot persist a duplicate row.
                tmp_path = jsonl + ".resume-tmp"
                with open(tmp_path, "w") as tmp_file:
                    sink = JsonlSink(
                        tmp_file, campaign_specs, self.workers, self.paired,
                        self.shard, header_row=header_row,
                    )
                    sink.replay(done_runs, done_pairs)
                os.replace(tmp_path, jsonl)
                sink_file = open(jsonl, "a")
                sink.reattach(sink_file)
            elif jsonl:
                sink_file = open(jsonl, "w")
                sink = JsonlSink(
                    sink_file, campaign_specs, self.workers, self.paired,
                    self.shard,
                )
            specs = todo
            if telemetry.enabled:
                telemetry.gauge("campaign.workers", self.workers)
                telemetry.gauge("campaign.specs_total", len(campaign_specs))
                telemetry.gauge("campaign.specs_todo", len(specs))
                if sink is not None:
                    sink = _TimedSink(sink, telemetry)
            replay_rows: List[SpecRunRecord] = []
            if self.auto_replay and specs:
                specs, replay_rows = self._auto_replay_pass(specs, sink=sink)
            executor = _run_inline
            if self.workers > 1 or self.budget.active:
                # Even at workers=1 a budget needs a worker process: a
                # stuck inline simulation cannot be killed.
                executor = functools.partial(
                    run_with_budget,
                    budget=self.budget,
                    processes=self.workers,
                    mp_context=multiprocessing.get_context(self.mp_start_method),
                )
            runs, pairs, timeouts = self._execute(specs, executor, sink=sink)
        finally:
            if sink_file is not None:
                sink_file.close()
            self._telemetry = NULL_TELEMETRY
            if self._ticker is not None:
                self._ticker.finish()
                self._ticker = None
        wall = time.perf_counter() - start
        if telemetry.enabled:
            telemetry.span_at(
                "campaign.run", start_mono, time.monotonic() - start_mono,
                specs=len(campaign_specs), jobs=self._job_count,
                workers=self.workers,
            )
            telemetry.close()
            self._merge_telemetry()
        # Recovered rows and freshly executed rows are interchangeable
        # (runs are deterministic); keep the recovered copies so the
        # aggregate matches the persisted file exactly, and drop the
        # re-executed duplicates of partially complete specs.
        runs = done_runs + replay_rows + [
            record for record in runs
            if (record.name, record.mode) not in seen_runs
        ]
        pairs = done_pairs + [
            pair for pair in pairs if pair.name not in seen_pairs
        ]
        return CampaignResult(
            runs=runs,
            pairs=pairs,
            workers=self.workers,
            wall_seconds=wall,
            shard=self.shard,
            timeouts=timeouts,
        )
