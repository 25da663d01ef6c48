"""Replay recorded dependency spools at arbitrary FIFO depths / quanta.

One reference simulation records, per thread and in program order, every
FIFO access and every timing annotation (a :class:`DependencySpool`, see
``repro.kernel.tracing``) as a flat program of shared ``(op, a, b, pre)``
tuples plus one column of recorded dates.  :class:`ReplayEngine` executes
those programs as they are, with no compile step and no copy, against a
miniature explicit scheduler: completion dates follow the paper's recurrence
``d_i = max(d_{i-1} + gap_i, cell_date_i)``, blocking waits come from
re-deriving when a Smart FIFO's cell ring is internally full/empty at the
*replayed* depth, and the global date advances through the same
delta-cycle / delta-notification / timed-phase machinery as the real
kernel — but with no generators, no coroutines and no trace pipeline.

The engine mirrors the real kernel exactly (same counters, same wake
order, same local-time clamping), which is what makes the anchor
self-check meaningful: replaying at the recorded configuration must
reproduce the recorded per-access dates, kernel counters and final date
bit-exactly, otherwise the run is declared non-replayable.  The date
columns are read only then: a retargeted replay needs the ops, never the
dates they had.

Only thread processes replay.  When a method process runs is decided by
event notifications, which replay does not re-derive, so a recording in
which a method touches a FIFO is refused by the recorder (see
``DependencyRecorder``) and its sweep is simulated instead.  The one
occupancy probe a recording carries is the monitor's ``get_size``
(Section III-C): replay re-derives its level from the emulated FIFO and
refuses the point (:class:`ReplayInvalid`) when it differs from the
recorded one.  Every other probe poisons the recording.

A replay whose schedule turns exactly periodic (a streaming pipeline in
steady state) does not interpret it period after period: once the whole
schedule state repeats, shifted in time, the emulator applies as many
more periods as every thread's program still repeats in one step
(``_Emulator._probe``), with every result field as if each op had run.
The jump covers recordings without ``get_size`` probes, grants or
capacity waits.  Check mode never takes it, so the anchor self-check and each
cross-validation's fresh self-check stay the full interpretation the
fast-forward is held against.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import add, attrgetter, itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernel.tracing import (
    OP_GET_SIZE,
    OP_GRANT,
    OP_INC,
    OP_QUANTUM,
    OP_REG_READ,
    OP_REG_WRITE,
    OP_SMART_READ,
    OP_SMART_WRITE,
    OP_SYNC,
    OP_TIMED,
    OP_WAIT_CAP,
    DependencySpool,
)


class ReplayError(RuntimeError):
    """The spool cannot be replayed (poisoned or corrupt)."""


class ReplayMismatch(ReplayError):
    """The anchor self-check found a divergence from the recorded run."""

    def __init__(self, diffs: Sequence[str]):
        self.diffs = list(diffs)
        preview = "; ".join(self.diffs[:8])
        more = len(self.diffs) - 8
        if more > 0:
            preview += f"; ... {more} more"
        super().__init__(f"replay diverges from recorded run: {preview}")


class ReplayInvalid(ReplayError):
    """The retargeted point falls outside the recording's validity envelope.

    A recorded ``get_size`` level could not be reproduced at the replayed
    depth/quantum: the anchor's control flow, which may branch on it, is
    not valid there, so the replay refuses rather than silently
    diverging.  Callers are expected to fall back to a fresh simulation
    for exactly these points.
    """

    def __init__(self, message: str, process: Optional[str] = None,
                 fifo: Optional[str] = None,
                 construct: Optional[str] = None):
        #: Name of the process whose recorded decision became invalid.
        self.process = process
        #: Name of the FIFO the probe inspected (None for non-FIFO causes).
        self.fifo = fifo
        #: Name of the probing construct (``"get_size"``).
        self.construct = construct
        super().__init__(message)


_OP_NAMES = (
    "smart_write", "smart_read", "sync", "timed", "quantum",
    "reg_write", "reg_read", "inc", "get_size", "wait_cap", "grant",
)

_MAX_MISMATCHES = 25

#: Ops whose effect depends on state the fast-forward does not compare.
_UNSCOPED_OPS = frozenset((OP_GET_SIZE, OP_WAIT_CAP, OP_GRANT))


def _smallest_period(ops: Sequence[tuple], start: int, stop: int) -> int:
    """Smallest p with ``ops[i] is ops[i + p]`` wherever both lie in
    ``ops[start:stop]``.

    The Knuth-Morris-Pratt failure function: ``fail[i]`` is the length of
    the longest proper prefix of the first ``i + 1`` ops that is also
    their suffix, and the whole run's period is its length minus the
    last one.  The table is an ``array`` so that it holds no int objects.
    """
    n = stop - start
    if n <= 0:
        return 1
    fail = array("q", [0]) * n
    k = 0
    for i in range(1, n):
        op = ops[start + i]
        while k and op is not ops[start + k]:
            k = fail[k - 1]
        if op is ops[start + k]:
            k += 1
        fail[i] = k
    return n - fail[-1]


def _ahead(dates: List[int], now: int) -> List[int]:
    """``dates`` relative to ``now``, with every date not after it as 0."""
    return [date - now if date > now else 0 for date in dates]


def _waiting(event: "_Event") -> List[Tuple["_Proc", int]]:
    """An event's waiters, each wait id relative to its thread's current."""
    return [(proc, proc.wait_id - wid) for proc, wid in event.waiters]


class _Proc:
    """Replay image of one thread process."""

    __slots__ = (
        "pid", "name", "program", "dates", "length", "pc", "phase",
        "stored", "wait_id", "runnable", "terminated", "period",
    )

    def __init__(self, pid: int, name: str, program: List[tuple], dates):
        self.pid = pid
        self.name = name
        self.program = program
        #: Recorded date of each op (read only to check dates).
        self.dates = dates
        self.length = len(program)
        self.pc = 0
        #: Sub-state of a multi-suspension op (the blocking-loop machine).
        self.phase = 0
        #: Raw local date, mirroring ``Process.local_fs`` (-1 = never set).
        self.stored = -1
        self.wait_id = 0
        self.runnable = False
        self.terminated = False
        #: Smallest period of the program's body (fast-forward only).
        self.period = 1


class _Event:
    """Replay image of a kernel event (delta notifications only)."""

    __slots__ = ("pending", "waiters")

    def __init__(self):
        self.pending = False
        self.waiters: List[Tuple[_Proc, int]] = []


class _SmartState:
    """Replay image of a Smart FIFO's cell ring at the replayed depth."""

    __slots__ = (
        "name", "depth", "sync_on_access", "wdates", "rdates", "nw", "nr",
        "blocked_readers", "blocked_writers", "blocking_waits",
        "cell_filled", "cell_freed",
    )

    kind = "smart"

    def __init__(self, name: str, depth: int, sync_on_access: bool):
        self.name = name
        self.depth = depth
        self.sync_on_access = sync_on_access
        #: Insertion date of write i / freeing date of read i (fs).
        self.wdates: List[int] = []
        self.rdates: List[int] = []
        #: len(wdates) / len(rdates) as plain ints — the occupancy check
        #: is the hottest expression of the interpreter.
        self.nw = 0
        self.nr = 0
        self.blocked_readers = 0
        self.blocked_writers = 0
        self.blocking_waits = 0
        self.cell_filled = _Event()
        self.cell_freed = _Event()

    @property
    def total_written(self) -> int:
        return len(self.wdates)

    @property
    def total_read(self) -> int:
        return len(self.rdates)


class _RegState:
    """Replay image of a regular FIFO (occupancy only, no dates)."""

    __slots__ = (
        "name", "depth", "occupancy", "total_written", "total_read",
        "data_written", "data_read",
    )

    kind = "regular"
    sync_on_access = False
    blocking_waits = 0

    def __init__(self, name: str, depth: int):
        self.name = name
        self.depth = depth
        self.occupancy = 0
        self.total_written = 0
        self.total_read = 0
        self.data_written = _Event()
        self.data_read = _Event()


@dataclass
class ReplayResult:
    """Everything one replayed evaluation point produces."""

    sim_end_fs: int
    quantum_fs: int
    depths: List[int]
    thread_activations: int
    delta_cycles: int
    timed_phases: int
    fifo_stats: List[dict]
    process_local_fs: Dict[int, int]
    all_terminated: bool
    #: ``(process, pc, op, expected, got)`` date-check divergences
    #: (only populated when the replay ran with ``check_dates=True``).
    mismatches: List[tuple] = field(default_factory=list)
    #: Per-FIFO ``(insertion_dates, read_dates)`` in fs for Smart FIFOs
    #: (None for regular FIFOs, which carry no dates) — the paper's
    #: completion dates, used by sweep cross-validation.
    fifo_dates: List[Optional[Tuple[List[int], List[int]]]] = field(
        default_factory=list
    )
    #: Recorded ops the periodic fast-forward jumped over instead of
    #: interpreting.  A plain attribute, not a field: it says how the
    #: result was computed, not what it is, so it takes no part in
    #: equality and never reaches a campaign row.
    ops_skipped = 0

    @property
    def context_switches(self) -> int:
        return self.thread_activations

    @property
    def blocking_waits(self) -> int:
        return sum(f["blocking_waits"] for f in self.fifo_stats)


class ReplayEngine:
    """Replay the programs of one :class:`DependencySpool` at will.

    The engine is immutable after construction (apart from the program
    periods, computed once on first use); every
    :meth:`replay` call creates fresh emulator state, so one recorded
    anchor can be replayed at hundreds of depth/quantum points.
    """

    def __init__(self, spool: DependencySpool):
        if spool.poison is not None:
            raise ReplayError(f"recording is not replayable: {spool.poison}")
        self.spool = spool
        self.fifos: List[dict] = list(spool.fifos)
        self.arbiters: List[dict] = list(getattr(spool, "arbiters", ()))
        #: ``(name, pid, program, dates)`` per thread: the recorded
        #: program itself, not a copy.
        self.programs: List[Tuple[str, int, List[tuple], object]] = [
            (name, pid, spool.programs[pid], spool.dates[pid])
            for name, pid in spool.threads
        ]

    @cached_property
    def body_periods(self) -> Optional[List[int]]:
        """Per thread, the smallest period of its program's body.

        The body is ``program[1:-1]``: a thread's first and last ops often
        differ from the loop between them (a first access with no gap, a
        trailing ``inc``).  Ops compare by identity, which the recorder's
        interning makes equality.  None when the recording is outside the
        periodic fast-forward's scope: a thread asks ``get_size``, waits
        for capacity or asks an arbiter for a grant, all of which read
        state the fast-forward does not compare.
        """
        periods = []
        for _name, _pid, program, _dates in self.programs:
            if _UNSCOPED_OPS.intersection(map(itemgetter(0), program)):
                return None
            periods.append(_smallest_period(program, 1, len(program) - 1))
        return periods

    # ------------------------------------------------------------------
    def retarget_depths(self, anchor_depth: int, depth: int) -> List[int]:
        """Per-FIFO depths for replaying a sweep point at ``depth``.

        Only FIFOs whose recorded depth equals the sweep's anchor depth are
        retargeted; auxiliary FIFOs with their own fixed depth (for example
        the mixed workload's back-pressure channel) keep it.
        """
        return [
            depth if meta["depth"] == anchor_depth else meta["depth"]
            for meta in self.fifos
        ]

    def replay(
        self,
        depths: Optional[Sequence[int]] = None,
        quantum_fs: Optional[int] = None,
        check_dates: bool = False,
    ) -> ReplayResult:
        """Re-execute the recorded programs at the given configuration.

        ``depths`` is one depth per recorded FIFO (registration order;
        None = the recorded depths).  ``quantum_fs`` overrides the global
        quantum (None = recorded).  With ``check_dates`` every completed
        access is compared against its recorded date (anchor self-check).
        """
        if depths is None:
            depths = [meta["depth"] for meta in self.fifos]
        elif len(depths) != len(self.fifos):
            raise ReplayError(
                f"expected {len(self.fifos)} depths, got {len(depths)}"
            )
        if any(d <= 0 for d in depths):
            raise ReplayError(f"replay depths must be positive: {depths}")
        if quantum_fs is None:
            quantum_fs = self.spool.quantum_fs
        return _Emulator(self, list(depths), quantum_fs, check_dates).run()

    # ------------------------------------------------------------------
    def self_check(self) -> ReplayResult:
        """Replay at the recorded configuration and compare everything.

        Raises :class:`ReplayMismatch` on any divergence; this is the gate
        every recording passes before being trusted for a sweep.
        """
        result = self.replay(check_dates=True)
        spool = self.spool
        diffs: List[str] = []
        for proc_name, pc, op, expected, got in result.mismatches:
            diffs.append(
                f"{proc_name} op#{pc} {_OP_NAMES[op]}: "
                f"recorded {expected}, replayed {got}"
            )
        if not result.all_terminated:
            diffs.append("replay deadlocked (recorded run completed)")
        if result.sim_end_fs != spool.sim_end_fs:
            diffs.append(
                f"sim_end_fs: recorded {spool.sim_end_fs}, "
                f"replayed {result.sim_end_fs}"
            )
        for key, got in (
            ("thread_activations", result.thread_activations),
            ("delta_cycles", result.delta_cycles),
            ("timed_phases", result.timed_phases),
            # Replay runs no method process: a recorded run that invoked
            # one is not the run replay re-derives.
            ("method_invocations", 0),
        ):
            expected = spool.stats.get(key, 0)
            if expected != got:
                diffs.append(f"{key}: recorded {expected}, replayed {got}")
        for meta, got in zip(spool.fifos, result.fifo_stats):
            for key in ("total_written", "total_read", "blocking_waits"):
                if meta[key] != got[key]:
                    diffs.append(
                        f"{meta['name']}.{key}: recorded {meta[key]}, "
                        f"replayed {got[key]}"
                    )
        for pid, expected in spool.process_local_fs.items():
            got = result.process_local_fs.get(pid)
            if expected != got:
                diffs.append(
                    f"pid {pid} local_fs: recorded {expected}, replayed {got}"
                )
        if diffs:
            raise ReplayMismatch(diffs)
        return result


class _Emulator:
    """One replay run: miniature scheduler + flat-program interpreter.

    Mirrors ``kernel.scheduler.Scheduler`` exactly — delta cycles drain a
    FIFO queue of runnable processes, delta notifications collapse via the
    per-event pending flag, stale wakes are filtered by wait id, timed
    phases pop every record of the next date — and the Smart FIFO
    blocking loops as a per-op phase machine.

    Outside check mode, a recording in the fast-forward's scope (see
    :attr:`ReplayEngine.body_periods`) is also probed for a periodic
    schedule: :meth:`_probe` finds a repeated state, :meth:`_jump` skips
    whole periods of it.  Check mode interprets every op: it is what the
    jump must agree with, so it must not take the jump itself.
    """

    def __init__(self, engine: ReplayEngine, depths: List[int],
                 quantum_fs: int, check_dates: bool):
        self.engine = engine
        self.quantum_fs = quantum_fs
        self.check = check_dates
        self.mismatches: List[tuple] = []
        self.fifos: List[object] = [
            _SmartState(meta["name"], depth, meta["sync_on_access"])
            if meta["kind"] == "smart"
            else _RegState(meta["name"], depth)
            for meta, depth in zip(engine.fifos, depths)
        ]
        self.depths = depths
        self.procs = [
            _Proc(pid, name, program, dates)
            for name, pid, program, dates in engine.programs
        ]
        #: Port-free date per recorded arbiter (NEVER before any grant).
        self.port_free = [-1] * len(engine.arbiters)
        self.runnable: deque = deque()
        self.delta_events: List[_Event] = []
        self.delta_wakes: List[Tuple[_Proc, int]] = []
        self.heap: List[tuple] = []
        self.ops_skipped = 0
        # Check mode never fast-forwards: it is the full interpretation
        # that every other replay is held against.
        periods = None if self.check else engine.body_periods
        self.fast_forward = bool(periods)
        if self.fast_forward:
            for proc, period in zip(self.procs, periods):
                proc.period = period
            #: The thread whose body periods pace the probes (see
            #: :meth:`_probe`).
            self.gate = max(self.procs, key=attrgetter("period"))
            #: Hash of each probe's cheap key -> the last timed phase it
            #: was seen at.
            self.seen: Dict[int, int] = {}
            #: ``(key, due, state)``: the full state of the last probe
            #: whose key repeated, and the timed phase its key should
            #: repeat at if the schedule is periodic.
            self.candidate: Optional[tuple] = None

    # -- scheduling primitives -----------------------------------------
    # The suspend / notify / wake primitives are inlined at their call
    # sites inside ``run``: a replay of a blocking-heavy point performs
    # hundreds of thousands of them, and the Python call overhead used
    # to dominate the replay wall.  ``delta_events`` and ``delta_wakes``
    # keep a stable list identity for the same reason (the delta phase
    # iterates in place and clears instead of rebinding), so ``run``
    # can hold them in locals across suspensions.

    def _mismatch(self, proc: _Proc, pc: int, op: int,
                  expected: int, got: int) -> None:
        if len(self.mismatches) < _MAX_MISMATCHES:
            self.mismatches.append((proc.name, pc, op, expected, got))

    # -- main loop + interpreter ---------------------------------------
    def run(self) -> ReplayResult:
        """Run the whole replay to completion.

        The delta-phase bookkeeping and the per-process interpreter are
        inlined into this one loop on purpose: a blocking-heavy point
        performs hundreds of activations per simulated date, and the
        Python call + local-rebinding overhead of a per-activation
        helper used to dominate the replay wall.  ``proc.phase`` carries the
        position inside a multi-suspension op (the Smart FIFO blocking
        loop mirrors the real generator's suspension points).
        """
        runnable = self.runnable
        delta_events = self.delta_events
        delta_wakes = self.delta_wakes
        heap = self.heap
        fifos = self.fifos
        check = self.check
        quantum_fs = self.quantum_fs
        port_free = self.port_free
        fast_forward = self.fast_forward
        if fast_forward:
            gate = self.gate
            gate_wrap = 1  # where the gate's next body period starts
        heappush = heapq.heappush
        heappop = heapq.heappop
        now = 0
        seq = 0
        activations = 0
        delta_cycles = 0
        timed_phases = 0
        for proc in self.procs:
            proc.runnable = True
            runnable.append(proc)
        while True:
            if runnable:
                delta_cycles += 1
            while runnable:
                proc = runnable.popleft()
                proc.runnable = False
                activations += 1
                # -- run ``proc`` until it suspends or terminates --------
                program = proc.program
                dates = proc.dates
                length = proc.length
                pc = proc.pc
                phase = proc.phase
                stored = proc.stored
                while True:
                    if pc >= length:
                        proc.terminated = True
                        break
                    op, a, b, pre = program[pc]
                    if pre and phase == 0:
                        # Fused local-time advance of the INCs before this
                        # op (applies exactly once: every suspension point
                        # below leaves a non-zero resume phase).
                        stored = (stored if stored > now else now) + pre
                    if op == OP_SMART_WRITE:
                        f = fifos[a]
                        # Fast path: non-synchronizing write into a non-full ring
                        # (phases 0 -> 2 -> 6 of the machine below, no suspension).
                        if phase == 0 and not f.sync_on_access \
                                and f.nw - f.nr != f.depth:
                            local = stored if stored > now else now
                            index = f.nw
                            if index >= f.depth:
                                freeing = f.rdates[index - f.depth]
                                if freeing > local:
                                    local = freeing
                                    stored = freeing
                            f.wdates.append(local)
                            f.nw = index + 1
                            if f.blocked_readers:
                                ev = f.cell_filled
                                if not ev.pending:
                                    ev.pending = True
                                    delta_events.append(ev)
                            if check and local != dates[pc]:
                                self._mismatch(proc, pc, op, dates[pc], local)
                            pc += 1
                            continue
                        suspended = False
                        while True:
                            if phase == 0:
                                if f.sync_on_access:
                                    if stored > now:
                                        phase = 1
                                        proc.wait_id = wid = proc.wait_id + 1
                                        seq += 1
                                        heappush(heap, (stored, seq, proc, wid))
                                        suspended = True
                                        break
                                    stored = now
                                phase = 2
                            elif phase == 1:
                                stored = now
                                phase = 2
                            elif phase == 2:
                                if f.nw - f.nr == f.depth:
                                    f.blocking_waits += 1
                                    f.blocked_writers += 1
                                    if stored > now:
                                        phase = 3
                                        proc.wait_id = wid = proc.wait_id + 1
                                        seq += 1
                                        heappush(heap, (stored, seq, proc, wid))
                                        suspended = True
                                        break
                                    stored = now
                                    phase = 4
                                else:
                                    phase = 6
                            elif phase == 3:
                                stored = now
                                phase = 4
                            elif phase == 4:
                                if f.nw - f.nr == f.depth:
                                    phase = 5
                                    proc.wait_id = wid = proc.wait_id + 1
                                    f.cell_freed.waiters.append((proc, wid))
                                    suspended = True
                                    break
                                f.blocked_writers -= 1
                                phase = 2
                            elif phase == 5:
                                f.blocked_writers -= 1
                                phase = 2
                            else:  # phase 6: the write itself
                                local = stored if stored > now else now
                                index = f.nw
                                if index >= f.depth:
                                    freeing = f.rdates[index - f.depth]
                                    if freeing > local:
                                        local = freeing
                                        stored = freeing
                                f.wdates.append(local)
                                f.nw = index + 1
                                if f.blocked_readers:
                                    ev = f.cell_filled
                                    if not ev.pending:
                                        ev.pending = True
                                        delta_events.append(ev)
                                if check and local != dates[pc]:
                                    self._mismatch(
                                        proc, pc, op, dates[pc], local
                                    )
                                pc += 1
                                phase = 0
                                break
                        if suspended:
                            break
                        continue
                    if op == OP_SMART_READ:
                        f = fifos[a]
                        # Fast path: non-synchronizing read of a non-empty ring.
                        if phase == 0 and not f.sync_on_access and f.nw != f.nr:
                            local = stored if stored > now else now
                            insertion = f.wdates[f.nr]
                            if insertion > local:
                                local = insertion
                                stored = insertion
                            f.rdates.append(local)
                            f.nr += 1
                            if f.blocked_writers:
                                ev = f.cell_freed
                                if not ev.pending:
                                    ev.pending = True
                                    delta_events.append(ev)
                            if check and local != dates[pc]:
                                self._mismatch(proc, pc, op, dates[pc], local)
                            pc += 1
                            continue
                        suspended = False
                        while True:
                            if phase == 0:
                                if f.sync_on_access:
                                    if stored > now:
                                        phase = 1
                                        proc.wait_id = wid = proc.wait_id + 1
                                        seq += 1
                                        heappush(heap, (stored, seq, proc, wid))
                                        suspended = True
                                        break
                                    stored = now
                                phase = 2
                            elif phase == 1:
                                stored = now
                                phase = 2
                            elif phase == 2:
                                if f.nw == f.nr:
                                    f.blocking_waits += 1
                                    f.blocked_readers += 1
                                    if stored > now:
                                        phase = 3
                                        proc.wait_id = wid = proc.wait_id + 1
                                        seq += 1
                                        heappush(heap, (stored, seq, proc, wid))
                                        suspended = True
                                        break
                                    stored = now
                                    phase = 4
                                else:
                                    phase = 6
                            elif phase == 3:
                                stored = now
                                phase = 4
                            elif phase == 4:
                                if f.nw == f.nr:
                                    phase = 5
                                    proc.wait_id = wid = proc.wait_id + 1
                                    f.cell_filled.waiters.append((proc, wid))
                                    suspended = True
                                    break
                                f.blocked_readers -= 1
                                phase = 2
                            elif phase == 5:
                                f.blocked_readers -= 1
                                phase = 2
                            else:  # phase 6: the read itself
                                local = stored if stored > now else now
                                insertion = f.wdates[f.nr]
                                if insertion > local:
                                    local = insertion
                                    stored = insertion
                                f.rdates.append(local)
                                f.nr += 1
                                if f.blocked_writers:
                                    ev = f.cell_freed
                                    if not ev.pending:
                                        ev.pending = True
                                        delta_events.append(ev)
                                if check and local != dates[pc]:
                                    self._mismatch(
                                        proc, pc, op, dates[pc], local
                                    )
                                pc += 1
                                phase = 0
                                break
                        if suspended:
                            break
                        continue
                    if op == OP_INC:
                        stored = (stored if stored > now else now) + a
                        pc += 1
                        continue
                    if op == OP_SYNC:
                        if phase == 0:
                            if check:
                                local = stored if stored > now else now
                                if local != dates[pc]:
                                    self._mismatch(
                                        proc, pc, op, dates[pc], local
                                    )
                            if stored > now:
                                phase = 1
                                proc.wait_id = wid = proc.wait_id + 1
                                seq += 1
                                heappush(heap, (stored, seq, proc, wid))
                                break
                        stored = now
                        pc += 1
                        phase = 0
                        continue
                    if op == OP_TIMED:
                        if phase == 0:
                            phase = 1
                            proc.wait_id = wid = proc.wait_id + 1
                            if a <= 0:
                                # Zero-duration timeouts wake in the next delta phase.
                                delta_wakes.append((proc, wid))
                            else:
                                seq += 1
                                heappush(heap, (now + a, seq, proc, wid))
                            break
                        pc += 1
                        phase = 0
                        continue
                    if op == OP_QUANTUM:
                        if phase == 0:
                            stored = (stored if stored > now else now) + a
                            offset = stored - now
                            if (offset > 0) if quantum_fs == 0 else (offset >= quantum_fs):
                                phase = 1
                                proc.wait_id = wid = proc.wait_id + 1
                                seq += 1
                                heappush(heap, (stored, seq, proc, wid))
                                break
                            pc += 1
                            continue
                        stored = now
                        pc += 1
                        phase = 0
                        continue
                    if op == OP_REG_WRITE:
                        f = fifos[a]
                        if f.occupancy >= f.depth:
                            # phase 1 marks a resume so the fused pre-inc
                            # above is not applied twice.
                            phase = 1
                            proc.wait_id = wid = proc.wait_id + 1
                            f.data_read.waiters.append((proc, wid))
                            break
                        f.occupancy += 1
                        f.total_written += 1
                        ev = f.data_written
                        if not ev.pending:
                            ev.pending = True
                            delta_events.append(ev)
                        if check and now != dates[pc]:
                            self._mismatch(proc, pc, op, dates[pc], now)
                        pc += 1
                        phase = 0
                        continue
                    if op == OP_REG_READ:
                        f = fifos[a]
                        if f.occupancy == 0:
                            phase = 1
                            proc.wait_id = wid = proc.wait_id + 1
                            f.data_written.waiters.append((proc, wid))
                            break
                        f.occupancy -= 1
                        f.total_read += 1
                        ev = f.data_read
                        if not ev.pending:
                            ev.pending = True
                            delta_events.append(ev)
                        if check and now != dates[pc]:
                            self._mismatch(proc, pc, op, dates[pc], now)
                        pc += 1
                        phase = 0
                        continue
                    if op == OP_GET_SIZE:
                        # The monitor's level at the (synchronized) kernel
                        # date: the cells really busy then, or the
                        # occupancy of a regular FIFO.
                        f = fifos[a]
                        if f.kind == "smart":
                            level = (bisect_right(f.wdates, now)
                                     - bisect_right(f.rdates, now))
                        else:
                            level = f.occupancy
                        if level != b:
                            self._invalid(proc.name, f, b, level)
                        if check and now != dates[pc]:
                            self._mismatch(proc, pc, op, dates[pc], now)
                        pc += 1
                        continue
                    if op == OP_WAIT_CAP:
                        # Inlined wait_writable (b == 0) / wait_readable
                        # (b == 1): the capacity half of the blocking
                        # machines above, with no access after it (the
                        # arbiter grants and transfers separately).
                        f = fifos[a]
                        suspended = False
                        while True:
                            if phase == 0:
                                phase = 2
                            elif phase == 2:
                                blocked = (
                                    f.nw - f.nr == f.depth if b == 0
                                    else f.nw == f.nr
                                )
                                if blocked:
                                    f.blocking_waits += 1
                                    if b == 0:
                                        f.blocked_writers += 1
                                    else:
                                        f.blocked_readers += 1
                                    if stored > now:
                                        phase = 3
                                        proc.wait_id = wid = proc.wait_id + 1
                                        seq += 1
                                        heappush(heap, (stored, seq, proc, wid))
                                        suspended = True
                                        break
                                    stored = now
                                    phase = 4
                                else:
                                    pc += 1
                                    phase = 0
                                    break
                            elif phase == 3:
                                stored = now
                                phase = 4
                            elif phase == 4:
                                blocked = (
                                    f.nw - f.nr == f.depth if b == 0
                                    else f.nw == f.nr
                                )
                                if blocked:
                                    phase = 5
                                    proc.wait_id = wid = proc.wait_id + 1
                                    event = (
                                        f.cell_freed if b == 0
                                        else f.cell_filled
                                    )
                                    event.waiters.append((proc, wid))
                                    suspended = True
                                    break
                                if b == 0:
                                    f.blocked_writers -= 1
                                else:
                                    f.blocked_readers -= 1
                                phase = 2
                            else:  # phase 5: woken by the capacity event
                                if b == 0:
                                    f.blocked_writers -= 1
                                else:
                                    f.blocked_readers -= 1
                                phase = 2
                        if suspended:
                            break
                        continue
                    if op == OP_GRANT:
                        # Arbiter port grant: raise the caller to the
                        # port-free date (advance_to writes the raw local
                        # date only when the caller was actually delayed).
                        local = stored if stored > now else now
                        pf = port_free[a]
                        if local < pf:
                            local = pf
                            stored = pf
                        port_free[a] = local + b
                        if check and local != dates[pc]:
                            self._mismatch(proc, pc, op, dates[pc], local)
                        pc += 1
                        continue
                    raise ReplayError(f"unknown op code {op}")
                proc.pc = pc
                proc.phase = phase
                proc.stored = stored
            # -- delta phase: deliver notifications, wake waiters --------
            # (nothing appends to either list while the steps above are
            # idle, so iterate in place and clear afterwards — the lists
            # keep a stable identity for the locals bound above)
            if delta_events:
                for event in delta_events:
                    event.pending = False
                    waiters = event.waiters
                    if waiters:
                        event.waiters = []
                        for proc, wait_id in waiters:
                            if not (proc.terminated or proc.runnable
                                    or wait_id != proc.wait_id):
                                proc.runnable = True
                                runnable.append(proc)
                delta_events.clear()
            if delta_wakes:
                for proc, wait_id in delta_wakes:
                    if not (proc.terminated or proc.runnable
                            or wait_id != proc.wait_id):
                        proc.runnable = True
                        runnable.append(proc)
                delta_wakes.clear()
            if runnable:
                continue
            # -- timed phase: advance to the next pending date -----------
            if fast_forward and gate.pc >= gate_wrap and heap:
                now, activations, delta_cycles, timed_phases = self._probe(
                    now, activations, delta_cycles, timed_phases
                )
                gate = self.gate
                gate_wrap = min(
                    gate.pc - (gate.pc - 1) % gate.period + gate.period,
                    gate.length - 1,
                )
            if not heap:
                break
            now = heap[0][0]
            timed_phases += 1
            while heap and heap[0][0] == now:
                _, _, proc, wait_id = heappop(heap)
                if not (proc.terminated or proc.runnable
                        or wait_id != proc.wait_id):
                    proc.runnable = True
                    runnable.append(proc)
        result = ReplayResult(
            sim_end_fs=now,
            quantum_fs=quantum_fs,
            depths=self.depths,
            thread_activations=activations,
            delta_cycles=delta_cycles,
            timed_phases=timed_phases,
            fifo_stats=[
                {
                    "name": state.name,
                    "kind": state.kind,
                    "depth": state.depth,
                    "total_written": state.total_written,
                    "total_read": state.total_read,
                    "blocking_waits": state.blocking_waits,
                }
                for state in fifos
            ],
            process_local_fs={
                proc.pid: proc.stored for proc in self.procs
            },
            all_terminated=all(proc.terminated for proc in self.procs),
            mismatches=self.mismatches,
            fifo_dates=[
                (state.wdates, state.rdates)
                if state.kind == "smart" else None
                for state in fifos
            ],
        )
        result.ops_skipped = self.ops_skipped
        return result

    @staticmethod
    def _invalid(process: str, fifo, recorded: int, replayed: int) -> None:
        raise ReplayInvalid(
            f"replay outside validity envelope: get_size on {fifo.name} "
            f"in {process}: recorded level {recorded}, replayed "
            f"{replayed} at depth {fifo.depth}",
            process=process, fifo=fifo.name, construct="get_size",
        )

    # -- periodic fast-forward ------------------------------------------
    def _probe(self, now: int, activations: int, delta_cycles: int,
               timed_phases: int) -> Tuple[int, int, int, int]:
        """Jump over whole periods once the schedule state repeats.

        ``run`` calls it before a timed phase, while nothing is runnable,
        at the first timed phase after the gate thread entered another of
        its body periods; it returns ``(now, activations, delta_cycles,
        timed_phases)``, advanced past the skipped periods when it jumped.
        The gate is the thread with the longest body period that is still
        inside its body.  Every moving thread of a periodic schedule
        advances whole body periods per schedule period, so the states
        the probes see repeat with the schedule; and a thread with no
        repetition has a period as long as its body, so an aperiodic
        recording is hardly probed at all.

        A cheap key filters the probes: each thread's position within its
        body period, its phase and local date, the heap size and each
        FIFO's occupancy and blocked counts.  When a key repeats, the full
        state is kept as the candidate, due again after as many timed
        phases as the key took to repeat; at the key's next appearance the
        two full states are compared (:meth:`_periods_to_skip`) and, when
        they match, :meth:`_jump` applies whole periods at once.
        """
        gate = self.gate
        if gate.terminated or gate.pc > gate.length - 2:
            inside = [
                proc for proc in self.procs
                if not proc.terminated and proc.pc <= proc.length - 2
            ]
            if inside:
                self.gate = max(inside, key=attrgetter("period"))
        key = (len(self.heap),)
        for proc in self.procs:
            if proc.terminated:
                key += (-1,)
            else:
                stored = proc.stored
                key += ((proc.pc - 1) % proc.period, proc.phase,
                        stored - now if stored > now else -1)
        for f in self.fifos:
            if f.kind == "smart":
                key += (f.nw - f.nr, f.blocked_readers, f.blocked_writers)
            else:
                key += (f.occupancy,)
        key = hash(key)
        counters = (now, activations, delta_cycles, timed_phases)
        seen = self.seen
        previous = seen.get(key)
        seen[key] = timed_phases
        candidate = self.candidate
        if candidate is not None:
            if key == candidate[0]:
                state = self._state(counters)
                periods = self._periods_to_skip(candidate[2], state)
                if periods:
                    return self._jump(periods, candidate[2], state)
                self.candidate = (key, 2 * timed_phases - previous, state)
                return counters
            if timed_phases < candidate[1]:
                return counters
        # No candidate, or its key missed the phase it was due at.
        self.candidate = None if previous is None else (
            key, 2 * timed_phases - previous, self._state(counters)
        )
        return counters

    def _state(self, counters: Tuple[int, int, int, int]) -> tuple:
        """``(relative, absolute)``: the schedule state at a probe.

        ``relative`` is everything the rest of the run depends on, with
        dates taken relative to ``now`` and wait ids relative to their
        thread's current one (so a stale wake stays stale): the heap in
        pop order, each live thread's phase and local date, each FIFO's
        occupancy, blocked counts and event waiters.  A Smart FIFO adds
        the freeing dates the next writes wait for and the insertion
        dates the next reads wait for; a date not ahead of ``now`` can no
        longer delay anything, so it reads 0, like the cells a ring that
        has not wrapped yet has never freed.  Pending flags need no entry:
        the delta phase has just cleared them all.  ``absolute`` holds the
        counters, program counters, wait ids and FIFO totals that a jump
        advances.
        """
        now = counters[0]
        relative = [[
            (date - now, proc, proc.wait_id - wid)
            for date, _seq, proc, wid in sorted(self.heap)
        ]]
        for proc in self.procs:
            stored = proc.stored
            relative.append(None if proc.terminated else (
                proc.phase, stored - now if stored > now else -1
            ))
        totals = []
        for f in self.fifos:
            if f.kind == "smart":
                start = f.nw - f.depth
                relative.append((
                    f.nw - f.nr, f.blocked_readers, f.blocked_writers,
                    [0] * -start + _ahead(
                        f.rdates[start if start > 0 else 0:f.nr], now
                    ),
                    _ahead(f.wdates[f.nr:f.nw], now),
                    _waiting(f.cell_filled), _waiting(f.cell_freed),
                ))
                totals.append((f.nw, f.nr, f.blocking_waits))
            else:
                relative.append((
                    f.occupancy, _waiting(f.data_written),
                    _waiting(f.data_read),
                ))
                totals.append((f.total_written, f.total_read))
        absolute = (
            counters,
            [(proc.pc, proc.wait_id, proc.stored) for proc in self.procs],
            totals,
        )
        return relative, absolute

    def _periods_to_skip(self, before: tuple, after: tuple) -> int:
        """How many more periods like ``before`` -> ``after`` to skip.

        Zero unless the two relative states are equal and every thread
        that moved advanced a whole number of body periods inside its
        body.  Then the run from ``after`` repeats the run from ``before``
        shifted for as long as each program repeats by op identity, which
        the body period guarantees up to the body's last op: the largest
        count keeps every thread, including the op it is suspended in,
        inside its body.
        """
        if before[0] != after[0]:
            return 0
        span = after[1][0][0] - before[1][0][0]
        periods = 0
        for proc, (start, _wait_id, stored) in zip(self.procs, before[1][1]):
            if proc.terminated:
                continue
            # A local date not ahead of now reads -1 in both: it either
            # stayed put (nothing writes it in a period, so it stays put)
            # or moved with the schedule (something does).
            if proc.stored != stored and proc.stored - stored != span:
                return 0
            step = proc.pc - start
            if step == 0:
                continue
            last = proc.length - 2
            if step < 0 or start < 1 or proc.pc > last or step % proc.period:
                return 0
            room = (last - proc.pc) // step
            if not periods or room < periods:
                periods = room
                if not room:
                    return 0
        return periods

    def _jump(self, periods: int, before: tuple,
              after: tuple) -> Tuple[int, int, int, int]:
        """Apply ``periods`` more repetitions of ``before`` -> ``after``.

        Every date moves by ``periods`` times the period's span, every
        program counter, wait id and counter by as many times its change
        over the period, and each Smart FIFO's date lists grow by shifted
        copies of the dates the last period appended.
        """
        counters_before, threads, totals = before[1]
        counters = after[1][0]
        span = counters[0] - counters_before[0]
        shift = periods * span
        wait_shift = {}
        for proc, (pc, wait_id, stored) in zip(self.procs, threads):
            wait_shift[proc] = periods * (proc.wait_id - wait_id)
            if not proc.terminated:
                skipped = periods * (proc.pc - pc)
                self.ops_skipped += skipped
                proc.pc += skipped
                if proc.stored != stored:
                    proc.stored += shift
                proc.wait_id += wait_shift[proc]
        # A uniform shift keeps the heap ordered (seq breaks date ties).
        self.heap[:] = [
            (date + shift, seq, proc, wid + wait_shift[proc])
            for date, seq, proc, wid in self.heap
        ]
        # The dates the last period appended, each list's as indices into
        # their distinct values: every repetition shifts each value once,
        # so equal dates stay one int object, as the interpreter shares
        # them between a write's and the matching read's list.
        values: Dict[int, int] = {}
        appended = []
        for f, counts in zip(self.fifos, totals):
            if f.kind == "smart":
                for dates, start in ((f.wdates, counts[0]),
                                     (f.rdates, counts[1])):
                    appended.append((dates, [
                        values.setdefault(date, len(values))
                        for date in dates[start:]
                    ]))
        distinct = list(values)
        for repetition in range(1, periods + 1):
            shifted = list(map(add, distinct, repeat(repetition * span)))
            for dates, indices in appended:
                dates.extend(map(shifted.__getitem__, indices))
        for f, counts in zip(self.fifos, totals):
            if f.kind == "smart":
                f.nw = len(f.wdates)
                f.nr = len(f.rdates)
                f.blocking_waits += periods * (f.blocking_waits - counts[2])
                events = (f.cell_filled, f.cell_freed)
            else:
                written, read = counts
                f.total_written += periods * (f.total_written - written)
                f.total_read += periods * (f.total_read - read)
                events = (f.data_written, f.data_read)
            for event in events:
                event.waiters = [
                    (proc, wid + wait_shift[proc])
                    for proc, wid in event.waiters
                ]
        self.seen.clear()
        self.candidate = None
        return tuple(
            value + periods * (value - old)
            for value, old in zip(counters, counters_before)
        )
