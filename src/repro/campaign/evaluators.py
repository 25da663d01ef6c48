"""How a campaign evaluates a spec: simulate it, or replay a recording.

:func:`simulate` is the one place that builds, runs and verifies a spec
in a fresh :class:`~repro.kernel.simulator.Simulator`; every campaign job
(:func:`execute_spec`), every recorded anchor (:func:`record_spool`) and
the line-level diff of a mismatching pair go through it.

Replay is the sweep shortcut.  A campaign sweep evaluates the same
workload at many (depth, quantum) points.  Every point could be a full
scheduler run; the paper's observables, however, are completely
determined by the *dependency structure* of the anchor run — each FIFO
access's producer date and the local-time gaps between accesses — which
Smart-FIFO temporal decoupling keeps invariant across depth and quantum.
:func:`route_group` records the anchor point **once** with a
:class:`~repro.kernel.tracing.DependencyRecorder`;
:class:`ReplayEvaluator` self-checks the recording bit-for-bit against
the anchor, then prices every other point by replaying the recorded
programs on :class:`~repro.replay.ReplayEngine` — no scheduler, no
generators, no scenario rebuild.

Replayed points produce :class:`~repro.campaign.rows.SpecRunRecord` rows
in the campaign's JSONL schema, tagged ``"evaluator": "replay"``
(simulated rows omit the key, so pre-replay files are byte-identical).
:func:`route_group` is the one routing loop — anchor simulation, N
replays, fresh-simulation cross-validation of a sampled subset.  Its one
caller is the campaign runner's ``auto_replay`` pass, the route of every
sweep (``campaign --auto-replay``, its ``--replay-sweep SPEC`` shorthand
and ``fig5 --replay``), which simulates the points the router refuses.

The replay engine and its errors load in the functions that use them, so
importing :mod:`repro.campaign` does not compile the engine.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Callable, Deque, List, Optional, Sequence, Tuple,
)

from ..kernel.errors import BlockedRunError, SimulationError
from ..kernel.simulator import Simulator
from ..kernel.tracing import (
    EMPTY_TRACE_DIGEST,
    DependencyRecorder,
    DependencySpool,
    make_sink,
)
from ..telemetry import NULL_TELEMETRY, Telemetry
from .rows import SpecRunRecord
from .scenarios import build_scenario
from .spec import ScenarioSpec

if TYPE_CHECKING:
    from ..replay import ReplayError, ReplayResult

#: Sink kind run by campaign workers unless overridden: digests stream out
#: of the simulation without the trace ever being materialized.
DEFAULT_TRACE_SINK = "digest"

#: Femtoseconds per nanosecond (spec quanta are in ns, spools in fs).
_FS_PER_NS = 1_000_000


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


def simulate(
    spec: ScenarioSpec,
    trace_sink: str = DEFAULT_TRACE_SINK,
    telemetry: Telemetry = NULL_TELEMETRY,
    record_dependencies: bool = False,
) -> Tuple[Simulator, SpecRunRecord]:
    """Build, run and verify ``spec`` in a fresh simulator.

    Returns the finished simulator, whose trace sink the caller closes,
    and the spec's run record.  A run that ends with a thread still
    waiting raises :class:`~repro.kernel.errors.BlockedRunError`, naming
    each such thread and the event it waits on: it lost a wakeup, and its
    row would price a run that never completed.  ``trace_sink`` names the
    :mod:`repro.kernel.tracing` sink kind the simulation emits into
    (``"digest"`` on the campaign happy path, so no trace record list ever
    exists).  ``telemetry`` is handed to the simulator, so an enabled
    sideband gets the kernel phase spans and — after the run — the
    per-FIFO burst routing counters.  ``record_dependencies`` attaches a
    :class:`~repro.kernel.tracing.DependencyRecorder` as
    ``sim.dep_recorder``; recording only observes, so the record is the
    same either way.
    """
    sim = Simulator(f"campaign_{spec.label}", trace_sink=make_sink(trace_sink))
    sim.telemetry = telemetry
    if record_dependencies:
        sim.dep_recorder = DependencyRecorder(sim)
    built = build_scenario(sim, spec)
    start = time.perf_counter()
    built.scenario.run()
    wall = time.perf_counter() - start
    blocked = sim.blocked_threads()
    if blocked:
        raise BlockedRunError(
            f"{spec.label} ended with blocked threads: " + ", ".join(
                name if event is None else f"{name} (waiting on {event})"
                for name, event in blocked
            )
        )
    if built.verify is not None:
        built.verify()
    if telemetry.enabled:
        _collect_fifo_counters(sim, telemetry)
    record = SpecRunRecord(
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
    return sim, record


def execute_spec(
    spec: ScenarioSpec,
    trace_sink: str = DEFAULT_TRACE_SINK,
    trace_out: Optional[str] = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> SpecRunRecord:
    """The body of one campaign job: simulate ``spec`` in its own mode.

    A paired spec runs as two such jobs, one per mode
    (``spec.with_mode(mode)``).  With ``trace_out`` the reordered trace is
    written to ``trace_out/<spec>.<mode>.trace``, which needs a
    spool-backed sink.
    """
    sim, record = simulate(spec, trace_sink, telemetry)
    if trace_out is not None:
        writer = getattr(sim.trace, "write_sorted", None)
        if writer is None:
            raise ValueError(
                f"--trace-out needs a spool-backed sink, got {sim.trace.kind!r}"
            )
        os.makedirs(trace_out, exist_ok=True)
        path = os.path.join(trace_out, f"{spec.name}.{spec.mode}.trace")
        with open(path, "w") as stream:
            writer(stream)
    sim.trace.close()
    return record


def record_spool(
    spec: ScenarioSpec, trace_sink: str = DEFAULT_TRACE_SINK
) -> Tuple[DependencySpool, SpecRunRecord]:
    """Simulate ``spec`` once with a dependency recorder attached.

    Returns ``(spool, record)``: the finalized
    :class:`~repro.kernel.tracing.DependencySpool` and the anchor's run
    record — the same numbers :func:`execute_spec` reports.
    """
    sim, record = simulate(spec, trace_sink, record_dependencies=True)
    spool = sim.dep_recorder.finalize()
    sim.trace.close()
    return spool, record


def replay_record(
    spec: ScenarioSpec, result: ReplayResult, wall: float
) -> SpecRunRecord:
    """Shape one :class:`~repro.replay.ReplayResult` as a campaign row.

    Replay runs neither trace statements nor method processes, so
    ``trace_lines`` is 0, ``trace_digest`` is the empty digest and
    ``method_invocations`` is 0 by construction; workload-specific extras
    (checksums, receive logs) cannot be recomputed without data values, so
    ``extra`` carries the replay-native observables instead.
    """
    return SpecRunRecord(
        name=spec.name,
        workload=spec.workload,
        mode=spec.mode,
        depth=spec.depth,
        quantum_ns=spec.quantum_ns,
        seed=spec.seed,
        timing=spec.timing,
        sim_end_fs=result.sim_end_fs,
        context_switches=result.context_switches,
        method_invocations=0,
        delta_cycles=result.delta_cycles,
        trace_lines=0,
        trace_digest=EMPTY_TRACE_DIGEST,
        extra={
            "blocking_waits": result.blocking_waits,
            "timed_phases": result.timed_phases,
            "all_terminated": result.all_terminated,
        },
        evaluator="replay",
        wall_seconds=wall,
        worker_pid=os.getpid(),
    )


class ReplayEvaluator:
    """Replays one recorded anchor at arbitrary depth/quantum points.

    Construction adopts the anchor's recording (see :func:`record_spool`)
    and runs the engine's self-check, so a recording that cannot
    reproduce its own simulation is rejected up front
    (:class:`~repro.replay.ReplayMismatch`).  Workloads whose behaviour
    depends on what the recorder cannot see (a method process touching a
    FIFO, an explicit event wait) poison their spool and raise
    :class:`~repro.replay.ReplayError` here instead of silently
    producing wrong sweeps.
    """

    def __init__(self, anchor: ScenarioSpec, spool: DependencySpool):
        # The engine loads with the first evaluator, not with the campaign.
        from ..replay import ReplayEngine

        self.anchor = anchor
        self.engine = ReplayEngine(spool)
        self.engine.self_check()

    def _check_point(self, spec: ScenarioSpec) -> None:
        from ..replay import ReplayError  # loaded with the engine already

        anchor = self.anchor
        fixed = ("workload", "mode", "seed", "timing", "burst")
        for key in fixed:
            if getattr(spec, key) != getattr(anchor, key):
                raise ReplayError(
                    f"replay point {spec.label} changes {key!r} "
                    f"({getattr(spec, key)!r} != {getattr(anchor, key)!r}); "
                    "only depth and quantum can vary under one recording"
                )
        if spec.params != anchor.params:
            raise ReplayError(
                f"replay point {spec.label} changes params; "
                "only depth and quantum can vary under one recording"
            )

    def replay_point(self, spec: ScenarioSpec) -> ReplayResult:
        """Raw :class:`~repro.replay.ReplayResult` for one sweep point."""
        self._check_point(spec)
        quantum_fs = (
            None if spec.quantum_ns is None else spec.quantum_ns * _FS_PER_NS
        )
        return self.engine.replay(
            depths=self.engine.retarget_depths(self.anchor.depth, spec.depth),
            quantum_fs=quantum_fs,
        )


def replay_group_key(spec: ScenarioSpec) -> Tuple[object, ...]:
    """Spec identity modulo name/depth/quantum.

    Two specs with equal keys describe the same workload program evaluated
    at different sweep points, so they can share one recorded anchor — the
    grouping rule of the campaign's ``--auto-replay`` routing (and exactly
    the fields :meth:`ReplayEvaluator._check_point` pins).
    """
    return (
        spec.workload,
        spec.mode,
        spec.seed,
        spec.timing,
        spec.burst,
        json.dumps(spec.params, sort_keys=True, default=str),
    )


# ---------------------------------------------------------------------------
# Sweep driver: 1 simulation + N replays (+ sampled cross-validation)
# ---------------------------------------------------------------------------
def sweep_point_specs(
    anchor: ScenarioSpec,
    depths: Sequence[int] = (),
    quanta_ns: Sequence[int] = (),
) -> List[ScenarioSpec]:
    """The non-anchor point specs of a sweep, in deterministic order.

    Depth points are named ``{anchor}_d{depth}``, quantum points
    ``{anchor}_q{ns}ns``; the anchor's own depth/quantum is skipped (its
    row comes from the recording simulation itself).  A repeated depth or
    quantum would name two points alike and raises
    :class:`~repro.replay.ReplayError`.
    """
    from ..replay import ReplayError  # sweep points exist to be replayed

    for kind, values in (("depths", depths), ("quanta", quanta_ns)):
        values = list(values)
        if len(set(values)) != len(values):
            raise ReplayError(f"sweep {kind} repeat a value: {values}")
    points: List[ScenarioSpec] = []
    for depth in depths:
        if depth == anchor.depth:
            continue
        points.append(
            replace(
                anchor,
                name=f"{anchor.name}_d{depth}",
                depth=depth,
                params=dict(anchor.params),
            )
        )
    for quantum_ns in quanta_ns:
        if anchor.timing != "quantum":
            raise ReplayError(
                f"quantum sweep points need a timing='quantum' anchor, "
                f"got {anchor.timing!r}"
            )
        if quantum_ns == anchor.quantum_ns:
            continue
        points.append(
            replace(
                anchor,
                name=f"{anchor.name}_q{quantum_ns}ns",
                quantum_ns=quantum_ns,
                params=dict(anchor.params),
            )
        )
    return points


def unbuildable_points(points: Sequence[ScenarioSpec]) -> List[str]:
    """One ``"{name}: {reason}"`` line per point whose scenario cannot be
    built, in ``points`` order.

    Each point is built in a scratch simulator that is never run, so the
    workload's own config checks (say, a packet larger than the FIFO
    depth) speak before anything is recorded, replayed or simulated.
    """
    refused = []
    for point in points:
        try:
            build_scenario(Simulator(f"check_{point.name}"), point)
        except (ValueError, SimulationError) as exc:
            refused.append(f"{point.name}: {exc}")
    return refused


def compare_replay_to_spool(
    replayed: ReplayResult,
    fresh: DependencySpool,
    fresh_result: Optional[ReplayResult] = None,
) -> List[str]:
    """Differences between a replayed point and a fresh recorded run.

    Compares the end date, every kernel counter, per-FIFO totals and
    blocking waits, the final per-thread local dates (in registration
    order — pids are numbered globally, so keys differ across runs) and,
    when ``fresh_result`` is given, every per-word completion date.  A
    replay re-derives all of them, so it must match on all of them.
    """
    diffs: List[str] = []
    if replayed.sim_end_fs != fresh.sim_end_fs:
        diffs.append(
            f"sim_end_fs: replay {replayed.sim_end_fs} != "
            f"fresh {fresh.sim_end_fs}"
        )
    for key in ("thread_activations", "delta_cycles", "timed_phases"):
        mine, theirs = getattr(replayed, key), fresh.stats[key]
        if mine != theirs:
            diffs.append(f"{key}: replay {mine} != fresh {theirs}")
    for meta, mine in zip(fresh.fifos, replayed.fifo_stats):
        for key in ("total_written", "total_read", "blocking_waits"):
            if meta[key] != mine[key]:
                diffs.append(
                    f"{meta['name']}.{key}: replay {mine[key]} != "
                    f"fresh {meta[key]}"
                )
    if list(replayed.process_local_fs.values()) != list(
        fresh.process_local_fs.values()
    ):
        diffs.append("final process local times differ")
    if fresh_result is not None and replayed.fifo_dates != fresh_result.fifo_dates:
        diffs.append("per-word completion dates differ")
    return diffs


@dataclass
class ReplaySweepResult:
    """What the replay router (:func:`route_group`) made of one anchor
    and its points."""

    #: The anchor's simulated row, then one row per point; a point refused
    #: by the validity envelope has a None row (the caller simulates it).
    #: An unreplayable anchor has its row alone.
    rows: List[Optional[SpecRunRecord]] = field(default_factory=list)
    #: Names of the cross-validated points, in the order they were checked.
    validations: List[str] = field(default_factory=list)
    #: ``(point name, reason)`` for points outside the validity envelope.
    invalid_points: List[Tuple[str, str]] = field(default_factory=list)
    #: Why the anchor cannot be replayed at all (a poisoned recording or
    #: a failed self-check); ``rows`` then holds the anchor's row alone
    #: and every other field is empty.
    unreplayable: Optional[ReplayError] = None


def _validation_sample(count: int, validate: int) -> List[int]:
    """Indices of the points to cross-validate: evenly spaced, ends first.

    Deterministic by construction — sampling randomness would make sweep
    fingerprints irreproducible.
    """
    if validate <= 0 or count == 0:
        return []
    if validate >= count:
        return list(range(count))
    step = count / validate
    picked = sorted({min(count - 1, int(i * step)) for i in range(validate)})
    return picked


def _cross_validate(
    point: ScenarioSpec, result: ReplayResult, trace_sink: str, telemetry,
) -> None:
    """Diff ``result`` against a fresh recorded run of ``point``; raise
    :class:`~repro.replay.ReplayError` on any difference."""
    from ..replay import ReplayEngine, ReplayError  # route_group loaded them

    with telemetry.span("replay.validate", spec=point.name):
        fresh_spool, _ = record_spool(point, trace_sink)
        if fresh_spool.poison is not None:
            raise ReplayError(
                f"validation run for {point.label} is not recordable: "
                f"{fresh_spool.poison}"
            )
        fresh_result = ReplayEngine(fresh_spool).self_check()
        diffs = compare_replay_to_spool(result, fresh_spool, fresh_result)
    if diffs:
        raise ReplayError(
            f"replayed point {point.label} diverges from a fresh "
            f"simulation: " + "; ".join(diffs[:6])
        )


def route_group(
    anchor: ScenarioSpec,
    points: Sequence[ScenarioSpec],
    validate: int,
    telemetry=NULL_TELEMETRY,
    trace_sink: str = DEFAULT_TRACE_SINK,
    on_row: Optional[Callable[[str], None]] = None,
) -> ReplaySweepResult:
    """Record and self-check ``anchor`` once, then replay ``points``.

    An anchor that cannot be replayed at all — its recording is poisoned
    (say, a method process touched a FIFO: replay only re-derives
    threads) or fails its self-check — comes back as ``unreplayable``
    with the anchor's simulated row alone, and the caller simulates the
    rest of the group.  So every replayed row, counters included, is what
    replay re-derived, never a copy of the anchor's.

    A point outside the recording's validity envelope
    (:class:`~repro.replay.ReplayInvalid`) is refused: its row is None
    and its reason lands in ``invalid_points``.  ``min(validate,
    replayed)`` replayed points are cross-validated against fresh
    recorded simulations, each as soon as it has been replayed.  The
    sampled positions are ``_validation_sample(len(points), validate)``;
    each is served by the first replayed point at or after it, and
    positions left unserved by refusals at the tail by the latest
    replayed points not yet validated.  A result is dropped once it can
    no longer be picked, so at most ``validate + 1`` replay results, with
    their per-word dates, are alive at a time.

    ``telemetry`` gets ``replay.record``, ``replay.point`` and
    ``replay.validate`` spans and ``replay.points_replayed``,
    ``replay.ops_skipped`` (recorded ops the periodic fast-forward jumped
    over) and per-construct ``replay.refusals.*`` counters.  ``on_row``
    is called with the anchor's name and each replayed point's as its
    row is ready.
    """
    # The engine loads when a sweep group first routes, not at import.
    from ..replay import ReplayError, ReplayInvalid

    with telemetry.span("replay.record", spec=anchor.name):
        spool, anchor_record = record_spool(anchor, trace_sink)
        try:
            evaluator = ReplayEvaluator(anchor, spool)
        except ReplayError as exc:
            unreplayable = exc
        else:
            unreplayable = None
    if on_row is not None:
        on_row(anchor.name)
    sweep = ReplaySweepResult(rows=[anchor_record], unreplayable=unreplayable)
    if unreplayable is not None:
        return sweep

    def check(point: ScenarioSpec, result: ReplayResult) -> None:
        _cross_validate(point, result, trace_sink, telemetry)
        sweep.validations.append(point.name)

    targets = _validation_sample(len(points), validate)
    served = 0  # targets[:served] have been validated
    # The latest replayed points not yet validated, for the tail.
    held: Deque[Tuple[ScenarioSpec, ReplayResult]] = deque()
    for index, point in enumerate(points):
        start = time.monotonic()
        try:
            result = evaluator.replay_point(point)
        except ReplayInvalid as exc:
            if telemetry.enabled:
                construct = getattr(exc, "construct", None) or "unspecified"
                telemetry.counter(f"replay.refusals.{construct}")
            sweep.invalid_points.append((point.name, str(exc)))
            sweep.rows.append(None)
            continue
        wall = time.monotonic() - start
        if telemetry.enabled:
            telemetry.span_at("replay.point", start, wall, spec=point.name)
            telemetry.counter("replay.points_replayed")
            telemetry.counter("replay.ops_skipped", result.ops_skipped)
        sweep.rows.append(replay_record(point, result, wall))
        if on_row is not None:
            on_row(point.name)
        due = served < len(targets) and targets[served] <= index
        if due:
            served += 1
        else:
            held.append((point, result))
        # Only the still unserved positions can fall back on held points.
        while len(held) > len(targets) - served:
            held.popleft()
        if due:
            check(point, result)
        del result
    while held:
        check(*held.popleft())
    return sweep
