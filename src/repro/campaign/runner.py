"""The parallel campaign engine.

A campaign is a list of :class:`~repro.campaign.spec.ScenarioSpec`; the
:class:`CampaignRunner` runs it inline or on long-lived worker processes
(:func:`~repro.campaign.executor.run_with_budget`).  Every job is one spec
in one mode: :func:`~repro.campaign.evaluators.execute_spec` builds its
**own** :class:`~repro.kernel.simulator.Simulator` — runs are fully
isolated and deterministic per seed — and the worker sends back the
spec's :class:`~repro.campaign.rows.SpecRunRecord`.  Three guarantees
matter:

* **Worker-count transparency** — the aggregated result (every field of
  :meth:`~repro.campaign.rows.CampaignResult.aggregate_rows` and therefore
  its ``fingerprint()``) is byte-identical for any ``workers`` value,
  because the deterministic rows carry only simulated dates, counters and
  trace digests, never wall-clock values or PIDs, and are sorted by spec
  name.
* **Paired validation** — the Section IV-A methodology is a first-class
  campaign mode: every pairable spec runs in ``reference`` and ``smart``
  modes as two **independent jobs**, and :func:`combine_pair` compares
  the two run records — the digests of their reordered traces and their
  deterministic extras — when both have arrived.  A mostly-pairable
  campaign thus keeps every worker busy instead of serializing both runs
  inside one job, and the job in the spec's own mode doubles as its run
  row.  Jobs travel to the workers in contiguous batches sized from the
  job count (see :func:`~repro.campaign.executor._batch_size`).
* **Shard transparency** — :meth:`CampaignRunner.shard_specs` partitions a
  campaign deterministically into ``N`` shards; running each shard on its
  own machine (``--shard i/N``), streaming the rows to JSONL and merging
  the files with :func:`~repro.campaign.rows.merge_jsonl` reproduces the
  unsharded ``fingerprint()`` byte for byte.

The rows, their JSONL file (``--jsonl out.jsonl``, one row per completed
run, pair or timeout), ``resume=True`` and the merge live in
:mod:`repro.campaign.rows`.

Trace memory model
------------------

The campaign never materializes trace record lists: every worker runs its
simulation on a :class:`~repro.kernel.tracing.DigestSink`, which streams
the reordered trace into the ``trace_digest``/``trace_lines`` row fields
with bounded memory, and a pair is equivalent iff the two digests (and
deterministic extras) match — digest equality is exactly reordered-trace
equality because record formatting is injective.  Only when a pair
*mismatches* is it re-run on :class:`~repro.kernel.tracing.SpoolSink`
spools, which :func:`repro.analysis.trace_diff.compare_spools` merge-diffs
into the full line-level report without an in-memory sort.
``trace_sink`` can override the worker sink kind (``"list"`` materializes
every record in a :class:`~repro.kernel.tracing.ListSink`, ``"null"``
disables tracing — and with it trace validation — entirely).
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernel.tracing import SINK_KINDS
from ..telemetry import (
    NULL_TELEMETRY,
    ProgressTicker,
    Telemetry,
    merge_telemetry_files,
)
from .evaluators import (
    DEFAULT_TRACE_SINK,
    execute_spec,
    replay_group_key,
    route_group,
    simulate,
)
from .executor import RunBudget, run_with_budget
from .rows import (
    SCOPE_CAMPAIGN,
    CampaignResult,
    CampaignResumeError,
    CampaignRows,
    JsonlSink,
    PairRecord,
    SpecRunRecord,
    TimeoutRecord,
    campaign_header_row,
    load_resume_state,
)
from .spec import MODE_REFERENCE, MODE_SMART, ScenarioSpec, spec_is_pairable

#: File name of the merged telemetry sideband inside ``--telemetry DIR``.
MERGED_TELEMETRY = "telemetry.jsonl"

#: Per-process cache of worker telemetry handles, keyed by
#: ``(telemetry_dir, pid)``.  A worker process reuses one appending
#: ``worker-<pid>.jsonl`` sideband for all its jobs; keying by pid keeps a
#: forked child from writing through an entry inherited from its parent.
_WORKER_TELEMETRY: Dict[Tuple[str, int], Telemetry] = {}


def _worker_telemetry(telemetry_dir: Optional[str]) -> Telemetry:
    if telemetry_dir is None:
        return NULL_TELEMETRY
    key = (telemetry_dir, os.getpid())
    telemetry = _WORKER_TELEMETRY.get(key)
    if telemetry is None:
        path = os.path.join(telemetry_dir, f"worker-{os.getpid()}.jsonl")
        telemetry = Telemetry("campaign-worker", path=path)
        _WORKER_TELEMETRY[key] = telemetry
    return telemetry


def _append_extras_report(report: str, extras_match: bool, ref_extras, smart_extras) -> str:
    if extras_match:
        return report
    return (report + "\n" if report else "") + (
        f"extras differ: reference={ref_extras!r} smart={smart_extras!r}"
    )


def combine_pair(ref: SpecRunRecord, smart: SpecRunRecord) -> PairRecord:
    """Compare the reference and Smart run records of one pairable spec.

    The digests of the reordered traces decide trace equivalence: because
    :meth:`~repro.kernel.tracing.TraceRecord.sort_key` and ``format`` are
    both injective on (local date, process, message), digest equality is
    exactly reordered-trace equality, so the trace itself never crosses
    the process boundary.  An equivalent outcome is bit-identical to the
    historical line-level diff; a mismatching one carries a digest-level
    report, which the campaign runner upgrades to the full line diff by
    re-running the pair on trace spools (see :func:`diff_pair_streaming`).
    """
    extras_match = ref.extra == smart.extra
    traces_equal = ref.trace_digest == smart.trace_digest
    report = "" if traces_equal else (
        f"traces differ: {ref.trace_lines} reference lines, "
        f"{smart.trace_lines} candidate lines (sorted-trace digests "
        f"{ref.trace_digest[:12]} != {smart.trace_digest[:12]})"
    )
    report = _append_extras_report(report, extras_match, ref.extra, smart.extra)
    return PairRecord(
        name=ref.name,
        equivalent=traces_equal and extras_match,
        reference_digest=ref.trace_digest,
        smart_digest=smart.trace_digest,
        reference_lines=ref.trace_lines,
        candidate_lines=smart.trace_lines,
        extras_match=extras_match,
        report=report,
        wall_seconds=ref.wall_seconds + smart.wall_seconds,
        worker_pids=(ref.worker_pid, smart.worker_pid),
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
    # Only a mismatching pair reaches the line-level differ.
    from ..analysis.trace_diff import compare_spools

    ref_sim, ref = simulate(spec.with_mode(MODE_REFERENCE), "spool")
    smart_sim, smart = simulate(spec.with_mode(MODE_SMART), "spool")
    comparison = compare_spools(ref_sim.trace, smart_sim.trace)
    extras_match = ref.extra == smart.extra
    report = "" if comparison.equivalent else comparison.report()
    report = _append_extras_report(report, extras_match, ref.extra, smart.extra)
    ref_sim.trace.close()
    smart_sim.trace.close()
    return PairRecord(
        name=spec.name,
        equivalent=comparison.equivalent and extras_match,
        reference_digest=ref.trace_digest,
        smart_digest=smart.trace_digest,
        reference_lines=comparison.reference_count,
        candidate_lines=comparison.candidate_count,
        extras_match=extras_match,
        report=report,
        wall_seconds=ref.wall_seconds + smart.wall_seconds,
        worker_pids=(ref.worker_pid, smart.worker_pid),
    )


# ---------------------------------------------------------------------------
# Worker entry point (a top-level function: it must be picklable)
# ---------------------------------------------------------------------------
def _execute_job(job):
    """Run one campaign job (see ``CampaignRunner._job``).

    ``job`` is ``(spec_index, spec, trace_sink, trace_out, telemetry_dir,
    enqueued_monotonic)``, where ``spec`` already carries the mode to run;
    the index rides along so results arriving in completion order can be
    matched back to their campaign spec without relying on submission
    order.  Returns ``(spec_index, record)``.

    With a telemetry directory the worker opens (once per process) an
    appending ``worker-<pid>.jsonl`` sideband and wraps the job in
    queue-wait / execute / serialize spans, flushing after every job so a
    killed worker loses at most the in-flight one.  The queue-wait span is
    cross-process span math: ``time.monotonic`` is system-wide on Linux,
    so the parent's enqueue stamp and this dequeue stamp share a clock.
    """
    index, spec, trace_sink, trace_out, telemetry_dir, enqueued = job
    telemetry = _worker_telemetry(telemetry_dir)
    now = time.monotonic()
    if telemetry.enabled and now > enqueued:
        telemetry.span_at(
            "campaign.queue_wait", enqueued, now - enqueued,
            spec=spec.name, mode=spec.mode,
        )
    with telemetry.span("campaign.execute", spec=spec.name, mode=spec.mode):
        record = execute_spec(spec, trace_sink, trace_out, telemetry)
    if telemetry.enabled:
        with telemetry.span("campaign.serialize", spec=spec.name, mode=spec.mode):
            # The canonical-row encode is the worker's share of getting the
            # result onto the wire; the pipe's own pickling cannot be timed
            # from inside the job.
            json.dumps(record.deterministic_row(), sort_keys=True)
        telemetry.counter("campaign.jobs_done")
        telemetry.flush()
    return index, record


def _run_inline(func, jobs):
    """The inline executor: every job in order, in the calling process."""
    return (("result", func(job)) for job in jobs)


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
        of all ``count`` shards with
        :func:`~repro.campaign.rows.merge_jsonl` reproduces the
        unsharded fingerprint.
    budget:
        Optional :class:`~repro.campaign.executor.RunBudget`.
        When a limit is set, jobs run on worker processes (even at
        ``workers=1``) that report every job: an overrunning job kills
        only its own worker and is recorded as a deterministic ``timeout``
        row (see :class:`~repro.campaign.rows.TimeoutRecord`);
        ``--resume`` re-runs timed-out specs.  A budgeted campaign in
        which nothing times out aggregates byte-identically to an
        unbudgeted one.
    trace_sink:
        Kind of :class:`~repro.kernel.tracing.TraceSink` every worker
        simulation emits into (one of
        :data:`~repro.kernel.tracing.SINK_KINDS`).  The default
        ``"digest"`` streams the trace into its digest without ever
        materializing records; ``"list"`` materializes them in a
        :class:`~repro.kernel.tracing.ListSink`; ``"null"`` disables
        tracing — digests degenerate to the empty-trace digest on both
        sides of a pair, so trace validation is off and only the
        deterministic extras are compared.
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
        ``"evaluator": "replay"``).  The points of a group whose recording
        is poisoned, and any point outside the recording's validity
        envelope (:class:`~repro.replay.ReplayInvalid`), fall back to
        plain simulation — auto-replay never changes *which* rows exist, only
        how the eligible ones were computed.  Groups span the whole
        campaign, so a shard or a resumed run replays its points from the
        same anchor as the uninterrupted campaign.  Specs that would run
        as pairs are never routed (a pair diffs traces; replay produces
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
    def _auto_replay_pass(
        self, campaign_specs: Sequence[ScenarioSpec],
        todo: Sequence[ScenarioSpec], sink: JsonlSink,
    ) -> List[ScenarioSpec]:
        """Route sweep groups through record-and-replay (see ``auto_replay``).

        Groups are formed over the whole campaign, so a shard or a resumed
        run replays its points from the same anchor as the uninterrupted
        campaign: a group with a point still to run records its
        campaign-level anchor, even when the anchor's own row is done or
        belongs to another shard.  The ``todo`` rows produced here (one
        plain simulated row per recorded anchor, one replay-tagged row per
        successfully replayed point) go to ``sink`` like worker results;
        returns the ``todo`` specs that must still be simulated by the
        normal job path.
        """
        telemetry = self._telemetry
        ticker = self._ticker
        wanted = {spec.name for spec in todo}

        def on_row(name: str) -> None:
            if ticker is not None and name in wanted:
                ticker.item_done(detail=name)

        groups: Dict[Tuple[object, ...], List[ScenarioSpec]] = {}
        for spec in campaign_specs:
            if self.paired and spec_is_pairable(spec):
                continue  # pairs diff traces; replay rows carry none
            groups.setdefault(replay_group_key(spec), []).append(spec)
        routed: Dict[str, SpecRunRecord] = {}
        for anchor, *members in groups.values():
            points = [spec for spec in members if spec.name in wanted]
            if not points:
                continue
            route = route_group(
                anchor, points, self.auto_replay_validate, telemetry,
                self.trace_sink, on_row,
            )
            # A poisoned recording or failed self-check comes back with
            # the anchor's row alone: the points stay on the simulation
            # path.  So do refused points (None rows); the router counted
            # them by construct.
            telemetry.counter(
                "replay.groups_routed" if route.unreplayable is None
                else "replay.poisoned_groups"
            )
            for spec, row in zip([anchor] + points, route.rows):
                if row is not None and spec.name in wanted:
                    routed[spec.name] = row
        for spec in todo:
            if spec.name in routed:
                sink.run_completed(routed[spec.name])
        return [spec for spec in todo if spec.name not in routed]

    # ------------------------------------------------------------------
    def _execute(self, specs: Sequence[ScenarioSpec], executor, sink: JsonlSink):
        """Run the campaign body with a completion-order job executor.

        Each spec becomes one job in its own mode or — when ``paired`` is
        on and the spec is pairable — two jobs, one per mode, whose
        records are recombined here when both have arrived; the job
        matching ``spec.mode`` doubles as the spec's run, so no
        (spec, mode) simulates twice.  ``executor(func, jobs)`` yields
        :func:`~repro.campaign.executor.run_with_budget` events in
        completion order, and ``sink`` persists each result as it arrives.
        A budget-killed job becomes a :class:`TimeoutRecord`: it is
        persisted and aggregated but never recombined — a pair with a
        timed-out half simply has no pair row (the timeout row excuses it
        at merge time).
        """
        jobs = []
        paired = set()
        for index, spec in enumerate(specs):
            if self.paired and spec_is_pairable(spec):
                paired.add(index)
                jobs.append(self._job(index, spec.with_mode(MODE_REFERENCE)))
                jobs.append(self._job(index, spec.with_mode(MODE_SMART)))
            else:
                jobs.append(self._job(index, spec))
        self._job_count = len(jobs)
        telemetry = self._telemetry
        ticker = self._ticker
        halves: Dict[int, SpecRunRecord] = {}
        for event in executor(_execute_job, jobs):
            if event[0] == "timeout":
                _, job, scope = event
                spec = job[1]
                limit = (
                    self.budget.campaign_budget_s
                    if scope == SCOPE_CAMPAIGN
                    else self.budget.spec_timeout_s
                )
                sink.timeout_completed(
                    TimeoutRecord.for_spec(spec, spec.mode, scope, limit)
                )
                if ticker is not None:
                    ticker.item_done(detail=f"timeout {spec.name}")
                continue
            index, record = event[1]
            spec = specs[index]
            if record.mode == spec.mode:
                sink.run_completed(record)
            if index in paired:
                other = halves.pop(index, None)
                if other is None:
                    halves[index] = record
                    continue
                recombine_t0 = time.perf_counter() if telemetry.enabled else 0.0
                if record.mode == MODE_REFERENCE:
                    other, record = record, other
                pair = combine_pair(other, record)
                if not pair.equivalent and self.trace_sink != "null":
                    # Failure path: the records carry digests only, so
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
                sink.pair_completed(pair)
            if ticker is not None:
                ticker.item_done(detail=spec.name)

    def _job(self, index: int, spec: ScenarioSpec):
        """One job tuple, stamped with its enqueue time for the
        queue-wait span (see :func:`_execute_job`)."""
        return (
            index, spec, self.trace_sink, self.trace_out, self.telemetry_dir,
            time.monotonic(),
        )

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
        file of the *same* campaign (see
        :func:`~repro.campaign.rows.load_resume_state`), skips every spec
        whose run row — and pair row, when one is due — is already
        present, rewrites the file with the recovered rows and appends
        only the missing ones.  The aggregated result covers the whole
        campaign either way, so the final
        :meth:`~repro.campaign.rows.CampaignResult.fingerprint` is
        byte-identical to an uninterrupted run.
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
        recovered = CampaignRows(headers=[campaign_header_row(
            campaign_specs, self.workers, self.paired, self.shard
        )])
        resuming_existing = resume and os.path.exists(jsonl)
        if resuming_existing:
            recovered = load_resume_state(
                jsonl, campaign_specs, self.paired, self.shard,
                shard_specs=specs if self.shard is not None else None,
            )
        done_runs = {(record.name, record.mode) for record in recovered.runs}
        done_pairs = {pair.name for pair in recovered.pairs}
        todo = [
            spec for spec in specs
            if (spec.name, spec.mode) not in done_runs
            or (self.paired and spec_is_pairable(spec)
                and spec.name not in done_pairs)
        ]
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
        try:
            if resuming_existing:
                # Rewrite the recovered prefix (healing a torn final line)
                # into a sibling temp file and atomically replace the
                # original, so the completed work is never the only copy
                # in a truncated file; then append the new rows.
                tmp_path = jsonl + ".resume-tmp"
                with open(tmp_path, "w") as tmp_file:
                    recovered.write(tmp_file)
                os.replace(tmp_path, jsonl)
                sink_file = open(jsonl, "a")
            elif jsonl:
                sink_file = open(jsonl, "w")
                recovered.write(sink_file)
            sink = JsonlSink(sink_file, recovered, telemetry)
            if telemetry.enabled:
                telemetry.gauge("campaign.workers", self.workers)
                telemetry.gauge("campaign.specs_total", len(campaign_specs))
                telemetry.gauge("campaign.specs_todo", len(todo))
            if self.auto_replay and todo:
                todo = self._auto_replay_pass(campaign_specs, todo, sink)
            executor = _run_inline
            if self.workers > 1 or self.budget.active:
                # Even at workers=1 a budget needs a worker process: a
                # stuck inline simulation cannot be killed.  Only this
                # path loads multiprocessing.
                import multiprocessing

                executor = functools.partial(
                    run_with_budget,
                    budget=self.budget,
                    processes=self.workers,
                    mp_context=multiprocessing.get_context(self.mp_start_method),
                )
            self._execute(todo, executor, sink)
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
        return CampaignResult(
            runs=sink.runs,
            pairs=sink.pairs,
            workers=self.workers,
            wall_seconds=wall,
            shard=self.shard,
            timeouts=sink.timeouts,
        )
