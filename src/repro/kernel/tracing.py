"""Trace recording: the pluggable streaming sink pipeline.

The validation methodology of the paper (Section IV-A) relies on traces:
each test prints timestamped messages, once with regular FIFOs and no
temporal decoupling, once with Smart FIFOs and temporal decoupling.  The two
trace files are then compared *after reordering*, because temporal
decoupling changes the process schedule (dates may decrease between
consecutive lines) but must not change the set of (date, process, message)
records.

Every simulation emits its records into a :class:`TraceSink`; the sink
decides what happens to them, which is what lets trace-based validation
scale from unit tests to campaign-sized sweeps without materializing every
record in memory:

* :class:`NullSink` — tracing off; the kernel emit path collapses to one
  attribute check (``sink.enabled``) and nothing else runs.
* :class:`ListSink` — accumulates :class:`TraceRecord` objects in a Python
  list.  Used by tests and interactive debugging, where random access to
  records matters more than memory.
* :class:`DigestSink` — streams records into an order-insensitive SHA-256
  digest plus a record count, never holding more than a bounded buffer of
  encoded entries in memory (overflow spills sorted runs to temporary
  files).  ``DigestSink.digest()`` is byte-identical to hashing the
  reordered, formatted lines of a :class:`ListSink` holding the same
  records, so campaign rows keep their historical ``trace_digest`` values.
  :mod:`hashlib` (OpenSSL) loads with the first digest and
  :mod:`tempfile` with the first spill, so a run that digests nothing
  loads neither.
* :class:`SpoolSink` — the same bounded-memory external spool, kept around
  after the run so consumers can stream the *reordered* lines back out:
  :func:`repro.analysis.trace_diff.compare_spools` merge-diffs two spools
  without a full in-memory sort, and :meth:`SpoolSink.write_sorted` exports
  the reordered trace file.

Ordering is defined by :meth:`TraceRecord.sort_key` — the tuple
``(local_fs, process, message)``.  The streaming sinks encode each record
as one text line whose lexicographic order equals the tuple order (fixed
width zero-padded date, ``\\x1f``-separated fields), so spilled runs can be
merged with :func:`heapq.merge` and formatted lines are only rebuilt while
streaming the final merge.  The encoding requires ``process`` and
``message`` to stay free of ``\\n`` and ``\\x1f`` — which single-line trace
messages already are — and dates to fit 20 decimal digits of femtoseconds
(about three simulated years).
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Dict, IO, Iterable, Iterator, List, Optional, TextIO, Tuple

from .simtime import SimTime


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace line.

    ``local_fs`` is the local date of the emitting process (equal to the
    global date when the process is not decoupled); ``global_fs`` is the
    kernel date at emission.  Only ``local_fs`` takes part in equivalence
    comparisons, exactly like the paper compares local-date-stamped lines.
    """

    local_fs: int
    global_fs: int
    process: str
    message: str

    @property
    def local_time(self) -> SimTime:
        return SimTime.from_femtoseconds(self.local_fs)

    def sort_key(self):
        """Key used by the reorder-and-compare validation."""
        return (self.local_fs, self.process, self.message)

    def format(self) -> str:
        return f"[{self.local_time}] {self.process}: {self.message}"


def trace_lines_digest(lines: Iterable[str]) -> str:
    """SHA-256 of reordered trace ``lines`` (the Section IV-A comparison key).

    Defined as the hash of ``"\\n".join(lines)``; :meth:`DigestSink.digest`
    computes the same value incrementally.
    """
    import hashlib  # loads OpenSSL: only runs that digest a trace pay for it

    digest = hashlib.sha256()
    first = True
    for line in lines:
        if not first:
            digest.update(b"\n")
        digest.update(line.encode())
        first = False
    return digest.hexdigest()


#: Digest of a run that emitted no trace lines at all: ``sha256(b"")``,
#: spelled out so that importing the kernel hashes nothing.
EMPTY_TRACE_DIGEST = (
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


# ---------------------------------------------------------------------------
# Sort-key encoding shared by the streaming sinks
# ---------------------------------------------------------------------------
#: Fixed decimal width of the encoded local date: lexicographic order of the
#: zero-padded text equals numeric order for dates in [0, 10**20) fs.
_FS_WIDTH = 20
_FS_LIMIT = 10 ** _FS_WIDTH
#: Field separator, below every character allowed in names/messages so the
#: concatenation sorts exactly like the (local_fs, process, message) tuple.
_SEP = "\x1f"


def encode_entry(process: str, local_fs: int, message: str) -> str:
    """Encode a record as one line whose string order equals its sort key."""
    if not 0 <= local_fs < _FS_LIMIT:
        raise ValueError(
            f"trace date {local_fs} fs outside the streamable range "
            f"[0, {_FS_LIMIT})"
        )
    if _SEP in process or "\n" in process:
        raise ValueError(f"process name {process!r} contains reserved characters")
    if _SEP in message or "\n" in message:
        raise ValueError(
            f"trace message {message!r} contains reserved characters "
            r"(\x1f or newline); trace lines must be single-line"
        )
    return f"{local_fs:0{_FS_WIDTH}d}{_SEP}{process}{_SEP}{message}"


def decode_entry(entry: str) -> Tuple[int, str, str]:
    """Inverse of :func:`encode_entry`: ``(local_fs, process, message)``."""
    date_text, process, message = entry.split(_SEP, 2)
    return int(date_text), process, message


def format_entry(entry: str) -> str:
    """The formatted trace line of an encoded entry."""
    local_fs, process, message = decode_entry(entry)
    return f"[{SimTime.from_femtoseconds(local_fs)}] {process}: {message}"


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------
class TraceSink:
    """Protocol of a trace consumer.

    The kernel emit path (:meth:`repro.kernel.simulator.Simulator.log`)
    checks :attr:`enabled` once and, when true, calls :meth:`emit` — that is
    the whole contract of the hot path.
    """

    #: Checked (once) by every emit call site; ``False`` short-circuits the
    #: whole trace path.
    enabled: bool = True
    #: Registry key of the sink kind (see :func:`make_sink`).
    kind: str = "base"

    def emit(self, process: str, local_fs: int, global_fs: int, message: str) -> None:
        raise NotImplementedError

    def emit_many(
        self, process: str, global_fs: int,
        entries: Iterable[Tuple[int, str]],
    ) -> None:
        """Batch emit of one burst span: ``entries`` yields per-word
        ``(local_fs, message)`` pairs from a single process at one kernel
        date.  Equivalent to emitting each pair with :meth:`emit` — the
        sort key is order-insensitive, so span-level emission is
        digest/fingerprint-safe; subclasses override to amortize the
        per-record costs."""
        for local_fs, message in entries:
            self.emit(process, local_fs, global_fs, message)

    def __len__(self) -> int:
        raise NotImplementedError

    def digest(self) -> str:
        """SHA-256 of the reordered formatted lines (see module docstring)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any external resources (spool files); idempotent."""


class NullSink(TraceSink):
    """Tracing off: emits are dropped before any formatting happens."""

    enabled = False
    kind = "null"

    def emit(self, process: str, local_fs: int, global_fs: int, message: str) -> None:
        pass

    def emit_many(
        self, process: str, global_fs: int,
        entries: Iterable[Tuple[int, str]],
    ) -> None:
        """Guarded fast-out: a whole span's records drop in one call,
        without even iterating ``entries``."""

    def __len__(self) -> int:
        return 0

    def digest(self) -> str:
        return EMPTY_TRACE_DIGEST

    def sorted_lines(self) -> List[str]:
        return []


class ListSink(TraceSink):
    """Accumulates :class:`TraceRecord` objects.

    Keeps every record addressable, which tests and interactive debugging
    want; campaign-scale runs use :class:`DigestSink`/:class:`SpoolSink`
    instead, which never materialize the record list.
    """

    kind = "list"

    def __init__(self):
        self.records: List[TraceRecord] = []
        self.enabled = True

    def emit(self, process: str, local_fs: int, global_fs: int, message: str) -> None:
        if not self.enabled:
            return
        self.records.append(TraceRecord(local_fs, global_fs, process, message))

    def emit_many(
        self, process: str, global_fs: int,
        entries: Iterable[Tuple[int, str]],
    ) -> None:
        if not self.enabled:
            return
        self.records.extend(
            TraceRecord(local_fs, global_fs, process, message)
            for local_fs, message in entries
        )

    def clear(self) -> None:
        self.records = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def formatted_lines(self) -> List[str]:
        """Trace lines in emission order (the raw 'printed' trace file)."""
        return [record.format() for record in self.records]

    def sorted_lines(self) -> List[str]:
        """Trace lines after the reordering step of the paper's validation."""
        return [r.format() for r in sorted(self.records, key=TraceRecord.sort_key)]

    def digest(self) -> str:
        return trace_lines_digest(self.sorted_lines())

    def write(self, stream: TextIO) -> None:
        for line in self.formatted_lines():
            stream.write(line + "\n")


#: Encoded entries buffered in memory before a streaming sink spills a
#: sorted run to disk; bounds the trace memory of any run at roughly
#: ``DEFAULT_MAX_BUFFERED * average-entry-length`` bytes.
DEFAULT_MAX_BUFFERED = 16384


class _StreamingSortSink(TraceSink):
    """Shared external-merge-sort machinery of the streaming sinks.

    Records are kept as encoded entry lines (see :func:`encode_entry`) in a
    bounded buffer; when the buffer fills up, it is sorted and appended to a
    temporary spill file as one run.  Iterating the sink merges the spilled
    runs with the sorted remainder of the buffer (``heapq.merge``), so the
    reordered trace streams out in sorted order while memory stays bounded
    by the buffer size — emission order never matters, only the multiset of
    records.
    """

    def __init__(self, max_buffered: int = DEFAULT_MAX_BUFFERED):
        if max_buffered < 1:
            raise ValueError(f"max_buffered must be >= 1, got {max_buffered}")
        self.enabled = True
        self._max_buffered = max_buffered
        self._buffer: List[str] = []
        self._runs: List[IO[str]] = []
        self._count = 0

    # -- emit path ------------------------------------------------------
    def emit(self, process: str, local_fs: int, global_fs: int, message: str) -> None:
        if not self.enabled:
            return
        buffer = self._buffer
        buffer.append(encode_entry(process, local_fs, message))
        self._count += 1
        if len(buffer) >= self._max_buffered:
            self._spill()

    def emit_many(
        self, process: str, global_fs: int,
        entries: Iterable[Tuple[int, str]],
    ) -> None:
        """Batch emit: encode and append the whole span, then run the spill
        check once.  The buffer may transiently exceed ``max_buffered`` by
        one span; the eventual merge (and therefore the digest) only sees
        the multiset of entries, so this is byte-identical to repeated
        :meth:`emit`."""
        if not self.enabled:
            return
        buffer = self._buffer
        before = len(buffer)
        buffer.extend(
            encode_entry(process, local_fs, message)
            for local_fs, message in entries
        )
        self._count += len(buffer) - before
        if len(buffer) >= self._max_buffered:
            self._spill()

    def _spill(self) -> None:
        """Write the buffer out as one sorted run and empty it."""
        import tempfile  # only a trace that outgrows the buffer spills

        self._buffer.sort()
        run = tempfile.TemporaryFile(mode="w+", prefix="trace_spool_")
        run.writelines(line + "\n" for line in self._buffer)
        run.flush()
        self._runs.append(run)
        self._buffer = []

    # -- streaming consumers -------------------------------------------
    @staticmethod
    def _iter_run(run: IO[str]) -> Iterator[str]:
        run.seek(0)
        for line in run:
            yield line[:-1] if line.endswith("\n") else line

    def iter_encoded(self) -> Iterator[str]:
        """All encoded entries in sort-key order (one pass at a time)."""
        pending = sorted(self._buffer)
        if not self._runs:
            return iter(pending)
        streams = [self._iter_run(run) for run in self._runs]
        if pending:
            streams.append(iter(pending))
        return heapq.merge(*streams)

    def iter_sorted_lines(self) -> Iterator[str]:
        """The reordered formatted lines, streamed in sorted order."""
        return map(format_entry, self.iter_encoded())

    def sorted_lines(self) -> List[str]:
        """Convenience materialization (tests, small traces)."""
        return list(self.iter_sorted_lines())

    def digest(self) -> str:
        """Digest of the reordered trace, computed from the streamed merge.

        Byte-identical to ``trace_lines_digest(ListSink.sorted_lines())``
        for the same records.
        """
        return trace_lines_digest(self.iter_sorted_lines())

    def write_sorted(self, stream: TextIO) -> None:
        """Export the reordered trace file (one formatted line per row)."""
        for line in self.iter_sorted_lines():
            stream.write(line + "\n")

    def __len__(self) -> int:
        return self._count

    @property
    def spilled_runs(self) -> int:
        """How many sorted runs went to disk (observability/testing)."""
        return len(self._runs)

    def close(self) -> None:
        runs, self._runs = self._runs, []
        for run in runs:
            run.close()
        self._buffer = []


class DigestSink(_StreamingSortSink):
    """Streams records into the order-insensitive trace digest + count.

    The campaign happy path runs entirely on this sink: ``digest()`` and
    ``len()`` provide the ``trace_digest``/``trace_lines`` row fields with
    bounded memory, and the values are byte-identical to what the
    list-materializing pipeline produced.
    """

    kind = "digest"


class SpoolSink(_StreamingSortSink):
    """Bounded-memory spool kept around for streaming consumers.

    Same machinery as :class:`DigestSink`; the distinct type documents the
    intent: the spool outlives the run so
    :func:`repro.analysis.trace_diff.compare_spools` can merge-diff two
    runs line by line, and ``write_sorted`` can export the reordered trace.
    """

    kind = "spool"


_SINK_FACTORIES = {
    "null": NullSink,
    "list": ListSink,
    "digest": DigestSink,
    "spool": SpoolSink,
}

#: Sink kinds selectable by name (CLI ``--trace-sink``, campaign runner).
SINK_KINDS = tuple(sorted(_SINK_FACTORIES))


def make_sink(kind: str) -> TraceSink:
    """Build a fresh sink of the named kind (see :data:`SINK_KINDS`)."""
    try:
        factory = _SINK_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown trace sink kind {kind!r}; known: {', '.join(SINK_KINDS)}"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# Dependency recording (record-and-replay evaluation)
# ---------------------------------------------------------------------------
#: Op codes of the recorded programs.  The recorder writes each process's
#: accesses and timing annotations, in program order, as the flat
#: ``(op, a, b, pre)`` tuples the replay engine executes, so one reference
#: simulation can be re-evaluated at any FIFO depth / quantum without
#: processes or coroutines.  ``pre`` is the local-time advance of the
#: ``inc()`` calls since the previous op, fused into this one.  The date an
#: op carries is not in the tuple but in the process's date column (0 for
#: ops that carry none), so equal tuples are one shared object.
OP_SMART_WRITE = 0  # a = fifo index; date = insertion date
OP_SMART_READ = 1   # a = fifo index; date = read date
OP_SYNC = 2         # date = local date at the sync
OP_TIMED = 3        # a = duration of a plain wait() (fs)
OP_QUANTUM = 4      # a = quantum-keeper annotation (fs)
OP_REG_WRITE = 5    # a = fifo index; date = kernel date
OP_REG_READ = 6     # a = fifo index; date = kernel date
OP_INC = 7          # a = trailing local-time advance with no op after it
OP_GET_SIZE = 8     # a = fifo index, b = level seen; date = kernel date
OP_WAIT_CAP = 9     # a = fifo index, b = side (0 = writable, 1 = readable)
OP_GRANT = 10       # a = arbiter index, b = access duration; date = grant

DEP_SPOOL_VERSION = 5


class DependencySpool:
    """One reference run's structured dependency record.

    Everything the replay engine needs: one program per thread process in
    the engine's own form (``OP_*`` tuples, shared between equal ops) with
    its date column, the FIFO roster with final counters, the kernel
    counters of the recorded run (the replay self-check oracle) and the
    recorded global quantum.  The engine executes the programs as they
    are, so a recording exists once in memory.
    """

    __slots__ = (
        "version", "threads", "programs", "dates", "fifos", "stats",
        "sim_end_fs", "quantum_fs", "process_local_fs", "poison", "arbiters",
    )

    def __init__(self, threads, programs, dates, fifos, stats, sim_end_fs,
                 quantum_fs, process_local_fs, poison, arbiters=()):
        self.version = DEP_SPOOL_VERSION
        #: ``(name, pid)`` in thread-registration order (= the order the
        #: scheduler seeds its runnable queue with at initialization).
        self.threads = threads
        #: pid -> list of ``(op, a, b, pre)`` tuples (see the ``OP_*`` codes).
        self.programs = programs
        #: pid -> ``array('q')``: the date of each op of the program (0 for
        #: ops that carry none); the replay reads it only to check dates.
        self.dates = dates
        #: One dict per registered FIFO, in registration order: name, kind
        #: ("smart"/"regular"), depth, sync_on_access, final counters.
        self.fifos = fifos
        #: Scalar kernel counters of the recorded run.
        self.stats = stats
        self.sim_end_fs = sim_end_fs
        #: Global quantum (fs) in force at the end of the recorded run.
        self.quantum_fs = quantum_fs
        #: Thread pid -> raw ``process.local_fs`` at the end of the
        #: recorded run.
        self.process_local_fs = process_local_fs
        #: None when the run is replayable, else the first reason it is not.
        self.poison = poison
        #: One dict per registered arbiter port, in registration order.
        self.arbiters = list(arbiters)


class _Stream:
    """The program one process has recorded so far."""

    __slots__ = ("program", "dates", "pre")

    def __init__(self):
        self.program: List[tuple] = []
        self.dates = array("q")
        #: Local-time advance of the ``inc()`` calls since the last op.
        self.pre = 0


def _ignore(*args) -> None:
    """What a poisoned recorder does with every op."""


class DependencyRecorder:
    """Collects the dependency record of one simulation.

    Attach before building the scenario (``sim.dep_recorder = recorder``):
    FIFOs and workload modules pick the recorder up at construction time, so
    the non-recording hot paths stay one ``is None`` check.  Each process's
    accesses go straight into its replay program: equal op tuples are
    interned (a word loop records one tuple per distinct gap), an ``inc()``
    is fused into the next op's ``pre``, a burst span is recorded as the
    word ops it is bit-exact with, and each op's date is appended to the
    process's ``array('q')`` date column.  Accesses that replay cannot
    reproduce (occupancy probes other than ``get_size``, anything a method
    process records, process-less callers) poison the recording instead
    of raising, and :meth:`finalize` reports the reason.  No replay reads
    a poisoned recording, so from its first poison on nothing more is
    recorded (see :meth:`poison`).
    """

    #: The methods that stop at the first poison (see :meth:`poison`).
    _RECORDING = ("word", "span", "sync_point", "timed", "quantum", "inc",
                  "get_size", "probe", "wait_cap", "grant")

    def __init__(self, sim):
        self.sim = sim
        self._scheduler = sim.scheduler
        self._streams: Dict[int, _Stream] = {}
        #: One object per distinct op tuple, dropped by :meth:`finalize`.
        self._intern: Dict[tuple, tuple] = {}
        self._fifos: List[dict] = []
        self._fifo_objs: List[object] = []
        self._arbiters: List[dict] = []
        self.poison_reason: Optional[str] = None
        # One-entry cache: consecutive ops of the same process skip the dict.
        self._last_pid = -1
        self._last: Optional[_Stream] = None

    # -- hot-path append helpers ---------------------------------------
    def _stream(self) -> Optional[_Stream]:
        process = self._scheduler.current_process
        if process is None:
            self.poison("FIFO/timing access outside of any process")
            return None
        pid = process.pid
        if pid == self._last_pid:
            return self._last
        stream = self._streams.get(pid)
        if stream is None:
            if not process.is_thread:
                # Replay re-derives when threads run, never when an event
                # notification invokes a method.
                self.poison("FIFO/timing access from a method process")
            stream = self._streams[pid] = _Stream()
        self._last_pid = pid
        self._last = stream
        return stream

    def _append(self, op: int, a, b, date_fs: int) -> None:
        stream = self._stream()
        if stream is not None:
            key = (op, a, b, stream.pre)
            stream.program.append(self._intern.setdefault(key, key))
            stream.dates.append(date_fs)
            stream.pre = 0

    def word(self, op: int, fifo_index: int, date_fs: int) -> None:
        """Record one FIFO word access (``OP_SMART_*``/``OP_REG_*``)."""
        self._append(op, fifo_index, 0, date_fs)

    def span(self, op: int, fifo_index: int, count: int, gap_const_fs: int,
             gaps, dates) -> None:
        """Record one burst span as its word loop: ``count`` word ops
        dated ``dates``, each word followed by its local-time advance
        (``gap_const_fs``, or ``gaps[i]`` when per-word)."""
        stream = self._stream()
        if stream is None:
            return
        intern = self._intern.setdefault
        append = stream.program.append
        pre = stream.pre
        for index in range(count):
            key = (op, fifo_index, 0, pre)
            append(intern(key, key))
            pre = gap_const_fs if gaps is None else gaps[index]
        stream.dates.extend(dates)
        stream.pre = pre

    def sync_point(self, local_fs: int) -> None:
        self._append(OP_SYNC, 0, 0, local_fs)

    def timed(self, duration_fs: int) -> None:
        self._append(OP_TIMED, duration_fs, 0, 0)

    def quantum(self, duration_fs: int) -> None:
        self._append(OP_QUANTUM, duration_fs, 0, 0)

    def inc(self, delta_fs: int) -> None:
        # An inc never suspends, so it runs in the same activation, at the
        # same kernel date, as the next op: it becomes that op's ``pre``.
        stream = self._stream()
        if stream is not None:
            stream.pre += delta_fs

    def get_size(self, fifo_index: int, level: int, date_fs: int) -> None:
        """Record one monitor ``get_size``: the level seen at the kernel
        date ``date_fs``, which replay re-derives and compares."""
        self._append(OP_GET_SIZE, fifo_index, level, date_fs)

    def probe(self, name: str, fifo_index: int) -> None:
        """Poison the recording at any other occupancy probe.

        A non-blocking access or a boolean probe (``nb_write``,
        ``is_full``, ``packet_available`` ...) lets its caller branch on
        the FIFO's state at a date replay does not re-derive; a method
        process runs when a notification invokes it, which replay does
        not re-derive either.  Replay re-derives blocking accesses and
        ``get_size`` only, so such a recording is simulated instead.
        """
        process = self._scheduler.current_process
        reason = f"{name} probe of {self._fifos[fifo_index]['name']}"
        if process is not None and not process.is_thread:
            reason += " from a method process"
        self.poison(reason)

    def wait_cap(self, fifo_index: int, side: int) -> None:
        """Record one arbiter capacity wait (wait_writable/wait_readable)."""
        self._append(OP_WAIT_CAP, fifo_index, side, 0)

    def grant(self, arbiter_index: int, grant_fs: int, access_fs: int) -> None:
        """Record one arbiter port grant (the port-free arithmetic)."""
        self._append(OP_GRANT, arbiter_index, access_fs, grant_fs)

    def poison(self, reason: str) -> None:
        """Mark the recording as non-replayable (first reason wins) and
        stop recording.

        The name of the process executing the poisoning construct is
        appended, so the :class:`~repro.replay.ReplayError` that refuses
        the recording (and sends its sweep group back to plain
        simulation) names both the construct and its source process.
        """
        if self.poison_reason is None:
            process = self._scheduler.current_process
            if process is not None:
                reason = f"{reason} [in process {process.name}]"
            self.poison_reason = reason
            # The FIFOs drop the recorder and instance attributes shadow
            # its recording methods, so the rest of the run is a plain
            # simulation, and an unpoisoned recording checks nothing per op.
            for fifo in self._fifo_objs:
                fifo._dep = None
            for name in self._RECORDING:
                setattr(self, name, _ignore)

    # -- registration ---------------------------------------------------
    def register_fifo(self, fifo, kind: str, depth: int,
                      sync_on_access: bool = False) -> int:
        index = len(self._fifos)
        self._fifos.append({
            "name": fifo.full_name,
            "kind": kind,
            "depth": depth,
            "sync_on_access": sync_on_access,
        })
        self._fifo_objs.append(fifo)
        return index

    def register_arbiter(self, arbiter, fifo_index: int, side: int) -> int:
        index = len(self._arbiters)
        self._arbiters.append({
            "name": arbiter.full_name,
            "fifo_index": fifo_index,
            "side": side,
        })
        return index

    # -- finalization ---------------------------------------------------
    def finalize(self) -> DependencySpool:
        """Snapshot the finished run into a :class:`DependencySpool`."""
        scheduler = self._scheduler
        sim = self.sim
        threads = [(p.name, p.pid) for p in scheduler._threads]
        streams = self._streams
        for process in scheduler._threads:
            if process.pid not in streams:
                streams[process.pid] = _Stream()
        for stream in streams.values():
            if stream.pre:
                # A trailing inc with no op after it stays a standalone op.
                key = (OP_INC, stream.pre, 0, 0)
                stream.program.append(self._intern.setdefault(key, key))
                stream.dates.append(0)
        self._intern = {}
        fifos = []
        for info, fifo in zip(self._fifos, self._fifo_objs):
            info = dict(info)
            info["total_written"] = fifo.total_written
            info["total_read"] = fifo.total_read
            info["blocking_waits"] = getattr(fifo, "blocking_waits", 0)
            fifos.append(info)
        stats = sim.stats.snapshot()
        from ..td.quantum import GlobalQuantum

        quantum_fs = GlobalQuantum.instance(sim).quantum.femtoseconds
        process_local_fs = {p.pid: p.local_fs for p in scheduler._threads}
        return DependencySpool(
            threads=threads,
            programs={pid: s.program for pid, s in streams.items()},
            dates={pid: s.dates for pid, s in streams.items()},
            fifos=fifos,
            stats=stats,
            sim_end_fs=sim.now_fs,
            quantum_fs=quantum_fs,
            process_local_fs=process_local_fs,
            poison=self.poison_reason,
            arbiters=self._arbiters,
        )
