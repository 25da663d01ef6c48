"""Shared machinery for the benchmark workloads.

Every workload module (sources, sinks, transmitters, accelerator-like
stages, random producers/consumers) exists in the three flavours compared
throughout the paper's evaluation:

* ``UNTIMED``   — no timing annotation at all (fastest, no timing info);
* ``TIMED_WAIT`` — timing annotations executed as plain ``wait`` calls, one
  context switch per annotation (the paper's *TDless* reference);
* ``DECOUPLED`` — timing annotations executed as ``inc`` on the process
  local time (the paper's *TDfull* model, to be combined with Smart FIFOs).

To keep the comparison fair, all flavours run exactly the same module code;
only :meth:`WorkloadModule.advance` changes behaviour.  The helper is a
generator in every mode so the per-word overhead of driving it is identical
across flavours.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional, Sequence, Union

from ..fifo.smart_fifo import SmartFifo
from ..kernel.module import Module
from ..kernel.process import Timeout
from ..kernel.simtime import SimTime, TimeUnit, as_femtoseconds
from ..kernel.simulator import Simulator
from ..td.decoupling import DecoupledMixin

#: Optional per-word checkpoint factory of the burst helpers:
#: ``message_fn(index, word) -> message or None`` (None entries are skipped).
MessageFn = Callable[[int, Any], Optional[str]]


def _to_fs(gap_ns) -> int:
    """Integer femtoseconds for one nanosecond gap (mirrors ``advance``:
    non-integer products are rounded, exactly like the word path does)."""
    gap_fs = gap_ns * TimeUnit.NS
    if type(gap_fs) is not int:
        gap_fs = round(gap_fs)
    return gap_fs


class TimingMode(enum.Enum):
    """How timing annotations are executed by a workload module."""

    UNTIMED = "untimed"
    TIMED_WAIT = "timed_wait"
    DECOUPLED = "decoupled"
    #: Classic TLM-2.0 style: accumulate annotations on the local time and
    #: synchronize when the global quantum is reached.  Fast, but accuracy
    #: depends on the quantum (Section II-A discussion); used by the
    #: EXP-QUANTUM ablation.
    QUANTUM = "quantum"

    @property
    def is_decoupled(self) -> bool:
        return self in (TimingMode.DECOUPLED, TimingMode.QUANTUM)


class WorkloadModule(DecoupledMixin, Module):
    """Base class of all workload modules.

    Subclasses implement their behaviour once and call
    ``yield from self.advance(duration)`` wherever the real hardware would
    spend time.  The constructor-selected :class:`TimingMode` decides
    whether that advances nothing, the kernel time (``wait``) or the local
    time (``inc``).
    """

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        timing: TimingMode = TimingMode.TIMED_WAIT,
    ):
        super().__init__(parent, name)
        self.timing = timing
        #: Local date at which the module finished its job (None until done).
        self.finish_time: Optional[SimTime] = None
        #: Number of payload items this module processed.
        self.items_processed = 0
        self._quantum_keeper = None
        # Hot-path caches for the decoupled annotation path.
        self._scheduler = self.sim.scheduler
        from ..td.local_time import get_local_time_manager

        self._ltm = get_local_time_manager(self.sim)
        # Dependency recording (record-and-replay): None on the hot path.
        self._dep_rec = self.sim.dep_recorder
        # advance() caches, keyed by (duration, unit): the femtosecond int
        # of a DECOUPLED annotation and the one-Timeout tuple a TIMED_WAIT
        # annotation yields (a Timeout is never mutated once built).  A
        # module uses a handful of distinct durations, so both stay small.
        self._advance_fs = {}
        self._advance_waits = {}

    @property
    def quantum_keeper(self):
        """Quantum keeper used in :attr:`TimingMode.QUANTUM` (lazily built)."""
        if self._quantum_keeper is None:
            from ..td.quantum import QuantumKeeper

            self._quantum_keeper = QuantumKeeper(self)
        return self._quantum_keeper

    # ------------------------------------------------------------------
    def advance(self, duration, unit: TimeUnit = TimeUnit.NS):
        """Spend ``duration`` of simulated time according to the timing mode.

        Returns an iterable for the caller to ``yield from``.  The
        ``DECOUPLED`` branch is the hot path of every finely-annotated model
        (one call per word in the Fig. 5 benchmark): it looks the
        femtosecond delta up in a per-module cache, raises the local date
        in place (the body of ``LocalTimeManager.advance_fs``) and returns
        an empty tuple, so no generator is allocated for a non-waiting
        annotation.  ``TIMED_WAIT`` returns a cached ``(Timeout,)``.
        """
        timing = self.timing
        if timing is TimingMode.DECOUPLED:
            key = (duration, unit)
            delta_fs = self._advance_fs.get(key)
            if delta_fs is None:
                delta_fs = duration * unit
                if type(delta_fs) is not int:
                    delta_fs = round(delta_fs)
                self._advance_fs[key] = delta_fs
            scheduler = self._scheduler
            process = scheduler.current_process
            now_fs = scheduler.now_fs
            local_fs = process.local_fs
            if local_fs < now_fs:
                local_fs = now_fs
            process.local_fs = local_fs + delta_fs
            if not process.lt_tracked:
                self._ltm.track(process)
            if self._dep_rec is not None:
                self._dep_rec.inc(delta_fs)
            return ()
        if timing is TimingMode.UNTIMED:
            return ()
        if timing is TimingMode.TIMED_WAIT:
            key = (duration, unit)
            waits = self._advance_waits.get(key)
            if waits is None:
                waits = (Timeout.from_femtoseconds(as_femtoseconds(duration, unit)),)
                self._advance_waits[key] = waits
            if self._dep_rec is not None:
                self._dep_rec.timed(waits[0].duration_fs)
            return waits
        return self._advance_quantum(duration, unit)

    def _advance_quantum(self, duration, unit: TimeUnit):
        """Quantum-keeper branch of :meth:`advance` (may actually wait)."""
        if self._dep_rec is not None:
            self._dep_rec.quantum(as_femtoseconds(duration, unit))
        self.quantum_keeper.inc(duration, unit)
        return self.quantum_keeper.sync_if_needed()

    # ------------------------------------------------------------------
    # Burst (span) helpers
    # ------------------------------------------------------------------
    def burst_write(self, fifo, words: Sequence[Any], gap_ns,
                    message_fn: Optional[MessageFn] = None):
        """Move ``words`` into ``fifo`` with ``gap_ns`` of time after each
        word (one int, or one int per word); generator.

        In ``DECOUPLED`` mode on a Smart FIFO this uses the native span API
        plus one batched trace emission per burst; every other timing mode
        (and FIFO kind) runs the exact word loop, so the reference half of
        a pair is untouched and word-vs-burst runs stay bit-exact.  Each
        non-None ``message_fn(index, word)`` result becomes a checkpoint
        stamped at that word's insertion date in both paths.
        """
        n = len(words)
        if n == 0:
            return
        per_word = isinstance(gap_ns, (list, tuple))
        if self.timing is TimingMode.DECOUPLED and isinstance(fifo, SmartFifo):
            sim = self.sim
            trace = sim.trace
            want_messages = message_fn is not None and trace.enabled
            dates: Optional[List[int]] = [] if want_messages else None
            if per_word:
                gap_fs = [_to_fs(gap) for gap in gap_ns]
            else:
                gap_fs = _to_fs(gap_ns)
            yield from fifo.write_burst(words, gap_fs, dates)
            self.items_processed += n
            if want_messages:
                pairs = []
                for index in range(n):
                    message = message_fn(index, words[index])
                    if message is not None:
                        pairs.append((dates[index], message))
                if pairs:
                    trace.emit_many(sim.current_process_name(), sim.now_fs,
                                    pairs)
            return
        gaps = gap_ns if per_word else None
        for index in range(n):
            word = words[index]
            yield from fifo.write(word)
            self.items_processed += 1
            if message_fn is not None:
                message = message_fn(index, word)
                if message is not None:
                    self.checkpoint(message)
            yield from self.advance(gap_ns if gaps is None else gaps[index])

    def burst_read(self, fifo, count: int, gap_ns,
                   message_fn: Optional[MessageFn] = None,
                   dates_out: Optional[List[int]] = None):
        """Drain ``count`` words from ``fifo`` with ``gap_ns`` of time after
        each word; generator returning the list of words.

        Span/word dispatch and checkpoint semantics as in
        :meth:`burst_write`.  ``dates_out`` (a list) receives the per-word
        read dates in fs — the word's local read date in decoupled mode,
        the kernel date otherwise, exactly what the word loop observes.
        """
        if count <= 0:
            return []
        per_word = isinstance(gap_ns, (list, tuple))
        if self.timing is TimingMode.DECOUPLED and isinstance(fifo, SmartFifo):
            sim = self.sim
            trace = sim.trace
            want_messages = message_fn is not None and trace.enabled
            dates: Optional[List[int]] = (
                [] if want_messages or dates_out is not None else None
            )
            if per_word:
                gap_fs = [_to_fs(gap) for gap in gap_ns]
            else:
                gap_fs = _to_fs(gap_ns)
            words = yield from fifo.read_burst(count, gap_fs, dates)
            self.items_processed += count
            if want_messages:
                pairs = []
                for index in range(count):
                    message = message_fn(index, words[index])
                    if message is not None:
                        pairs.append((dates[index], message))
                if pairs:
                    trace.emit_many(sim.current_process_name(), sim.now_fs,
                                    pairs)
            if dates_out is not None:
                dates_out.extend(dates)
            return words
        gaps = gap_ns if per_word else None
        words = []
        for index in range(count):
            word = yield from fifo.read()
            words.append(word)
            self.items_processed += 1
            if dates_out is not None:
                if self.timing.is_decoupled:
                    dates_out.append(self.local_time_stamp().femtoseconds)
                else:
                    dates_out.append(self.sim.now_fs)
            if message_fn is not None:
                message = message_fn(index, word)
                if message is not None:
                    self.checkpoint(message)
            yield from self.advance(gap_ns if gaps is None else gaps[index])
        return words

    def mark_finished(self) -> None:
        """Record the completion date (local date for decoupled modules)."""
        if self.timing.is_decoupled:
            self.finish_time = self.local_time_stamp()
        else:
            self.finish_time = self.now

    def checkpoint(self, message: str) -> None:
        """Trace helper stamping the local date in decoupled mode.

        Emits through whatever :class:`~repro.kernel.tracing.TraceSink`
        the simulator carries; with tracing off, the date bookkeeping is
        skipped entirely.
        """
        if not self.sim.trace.enabled:
            return
        if self.timing.is_decoupled:
            self.log(message)
        else:
            self.log(message, local_time=self.now)
