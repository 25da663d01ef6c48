"""The :class:`Simulator` facade.

A :class:`Simulator` owns the scheduler, the kernel statistics, the trace
collector and the top of the module hierarchy.  It is the object user code
interacts with:

.. code-block:: python

    from repro.kernel import Simulator, ns

    sim = Simulator()
    top = MyTopModule(sim, "top")
    sim.run()                    # run until no activity remains
    print(sim.now, sim.stats.context_switches)
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from . import context
from .errors import ElaborationError
from .event import Event, EventList
from .process import (
    MethodProcess,
    ThreadProcess,
    Timeout,
    WaitEvent,
    WaitEventList,
    WaitEventOrTimeout,
)
from .scheduler import Scheduler
from .simtime import SimTime, TimeUnit, as_femtoseconds, as_time
from .stats import KernelStats
from .tracing import ListSink, TraceSink
from ..telemetry import NULL_TELEMETRY


class Simulator:
    """A self-contained simulation context.

    ``trace_sink`` selects where trace records go (see
    :mod:`repro.kernel.tracing`): the default :class:`ListSink` keeps the
    historical materialize-every-record behaviour for tests and debugging;
    campaign-scale runs pass a streaming sink (``DigestSink``/``SpoolSink``)
    or :class:`~repro.kernel.tracing.NullSink` to turn tracing off, in
    which case the emit path collapses to one attribute check.
    """

    def __init__(self, name: str = "sim", trace_sink: Optional[TraceSink] = None):
        self.name = name
        self.stats = KernelStats()
        self.scheduler = Scheduler(self.stats)
        self.trace: TraceSink = ListSink() if trace_sink is None else trace_sink
        #: Optional :class:`~repro.kernel.tracing.DependencyRecorder`; set it
        #: *before* building the model — FIFOs and workload modules cache it
        #: at construction, so the non-recording hot path costs one None check.
        self.dep_recorder = None
        #: Telemetry sideband (:mod:`repro.telemetry`): phase spans and
        #: counter deltas of :meth:`run` when enabled.  Defaults to the
        #: shared :data:`~repro.telemetry.NULL_TELEMETRY`, gated by one
        #: ``enabled`` attribute check — same discipline as ``trace``.
        self.telemetry = NULL_TELEMETRY
        self._names = set()
        self._children = []
        self._elaborated = False
        context.set_current_simulator(self)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """The global simulated date (``sc_time_stamp``)."""
        return self.scheduler.now

    @property
    def now_fs(self) -> int:
        return self.scheduler.now_fs

    # ------------------------------------------------------------------
    # Hierarchy bookkeeping
    # ------------------------------------------------------------------
    def register_name(self, full_name: str) -> None:
        if full_name in self._names:
            raise ElaborationError(f"duplicate module or process name: {full_name}")
        self._names.add(full_name)

    def add_child(self, module) -> None:
        self._children.append(module)

    @property
    def children(self):
        return tuple(self._children)

    def walk_modules(self):
        """Yield every module of the hierarchy, depth-first."""
        stack = list(self._children)
        while stack:
            module = stack.pop()
            yield module
            stack.extend(module.children)

    def blocked_threads(self) -> List[Tuple[str, Optional[str]]]:
        """``(thread, event)`` per thread process that has not terminated.

        ``event`` names the module event the thread waits on, or is None
        when the thread waits on anything else.  After a :meth:`run`
        without ``until`` nothing is left to wake such a thread: it is
        blocked for good.
        """
        blocked = [p for p in self.scheduler._threads if not p.terminated]
        waits = {}
        for module in self.walk_modules() if blocked else ():
            for value in vars(module).values():
                if isinstance(value, Event):
                    for process, wait_id in value._waiting_threads:
                        if wait_id == process.wait_id:
                            waits.setdefault(process, value.name)
        return [(process.name, waits.get(process)) for process in blocked]

    # ------------------------------------------------------------------
    # Process creation (for code not living inside a Module)
    # ------------------------------------------------------------------
    def create_thread(self, func: Callable, name: Optional[str] = None) -> ThreadProcess:
        """Register ``func`` (a generator function) as a thread process."""
        proc_name = name or getattr(func, "__name__", "thread")
        self.register_name(proc_name)
        process = ThreadProcess(proc_name, func, self)
        self.scheduler.register_thread(process)
        return process

    def create_method(
        self,
        func: Callable,
        name: Optional[str] = None,
        sensitivity: Optional[Iterable[Event]] = None,
        dont_initialize: bool = False,
    ) -> MethodProcess:
        """Register ``func`` as a run-to-completion method process."""
        proc_name = name or getattr(func, "__name__", "method")
        self.register_name(proc_name)
        process = MethodProcess(
            proc_name, func, self, sensitivity=sensitivity, dont_initialize=dont_initialize
        )
        self.scheduler.register_method(process)
        return process

    def create_event(self, name: str = "event") -> Event:
        return Event(name, sim=self)

    # ------------------------------------------------------------------
    # Wait descriptor helpers (usable from any thread code)
    # ------------------------------------------------------------------
    def wait(self, duration_or_event, unit: TimeUnit = TimeUnit.NS, timeout=None):
        """Build a wait descriptor to be yielded by a thread process.

        Usage from a thread body::

            yield sim.wait(20, NS)          # wait 20 ns
            yield sim.wait(some_event)      # wait for an event
            yield sim.wait(ev, timeout=ns(5))   # event with timeout
        """
        if isinstance(duration_or_event, Event):
            if self.dep_recorder is not None:
                self.dep_recorder.poison(
                    "explicit event wait (untracked suspension)"
                )
            if timeout is not None:
                return WaitEventOrTimeout(duration_or_event, as_time(timeout))
            return WaitEvent(duration_or_event)
        if isinstance(duration_or_event, EventList):
            if self.dep_recorder is not None:
                self.dep_recorder.poison(
                    "explicit event-list wait (untracked suspension)"
                )
            return WaitEventList(duration_or_event)
        duration_fs = as_femtoseconds(duration_or_event, unit)
        if self.dep_recorder is not None:
            self.dep_recorder.timed(duration_fs)
        return Timeout.from_femtoseconds(duration_fs)

    def next_trigger(self, trigger=None, unit: TimeUnit = TimeUnit.NS) -> None:
        """Record a dynamic trigger for the currently running method process."""
        if trigger is None or isinstance(trigger, (Event, EventList)):
            self.scheduler.record_next_trigger(trigger)
            return
        self.scheduler.record_next_trigger(as_time(trigger, unit))

    def current_process(self):
        return self.scheduler.current_process

    def current_process_name(self) -> str:
        process = self.scheduler.current_process
        return process.name if process is not None else "<elaboration>"

    # ------------------------------------------------------------------
    # Elaboration and execution
    # ------------------------------------------------------------------
    def elaborate(self) -> None:
        """Run end-of-elaboration checks (port binding, module hooks)."""
        if self._elaborated:
            return
        for module in list(self.walk_modules()):
            module.check_bindings()
        for module in list(self.walk_modules()):
            module.end_of_elaboration()
        self._elaborated = True

    def run(self, until=None, unit: TimeUnit = TimeUnit.NS) -> SimTime:
        """Run the simulation (optionally until a given date) and return
        the final simulated date."""
        if self.telemetry.enabled:
            return self._run_instrumented(until, unit)
        self.elaborate()
        context.set_current_simulator(self)
        limit = None if until is None else as_time(until, unit)
        self.scheduler.run(limit)
        return self.now

    def _run_instrumented(self, until, unit: TimeUnit) -> SimTime:
        """The telemetry-on twin of :meth:`run`: phase spans around
        elaboration and scheduling, kernel counter *deltas* for this run
        (stats are cumulative across ``run`` calls; the sideband reports
        per-run activity)."""
        telemetry = self.telemetry
        before = self.stats.snapshot()
        with telemetry.span("kernel.run", sim=self.name):
            with telemetry.span("kernel.elaborate"):
                self.elaborate()
            context.set_current_simulator(self)
            limit = None if until is None else as_time(until, unit)
            # Hand the scheduler the telemetry so its loop variant can
            # split wall time between delta and timed phases.
            self.scheduler.telemetry = telemetry
            with telemetry.span("kernel.schedule"):
                self.scheduler.run(limit)
        after = self.stats.snapshot()
        for key in (
            "context_switches",
            "method_invocations",
            "delta_cycles",
            "timed_phases",
            "event_notifications",
        ):
            delta = after[key] - before[key]
            if delta:
                telemetry.counter(f"kernel.{key}", delta)
        return self.now

    def stop(self) -> None:
        """Stop the simulation at the end of the current delta cycle."""
        self.scheduler.stop()

    @property
    def pending_activity(self) -> bool:
        return self.scheduler.pending_activity

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def log(self, message: str, local_time: Optional[SimTime] = None) -> None:
        """Record a timestamped trace line for the current process.

        The hot emit path: one ``enabled`` check gates everything, so a
        :class:`~repro.kernel.tracing.NullSink` run pays (almost) nothing
        for the trace statements sprinkled through the workloads.
        """
        trace = self.trace
        if not trace.enabled:
            return
        now_fs = self.now_fs
        local = now_fs if local_time is None else local_time.femtoseconds
        trace.emit(self.current_process_name(), local, now_fs, message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Simulator({self.name!r}, now={self.now})"


def simulate(setup: Callable[["Simulator"], None], until=None) -> Simulator:
    """Convenience helper: build a simulator, apply ``setup``, run it.

    Returns the simulator so callers can inspect time, stats and traces.
    """
    sim = Simulator()
    setup(sim)
    sim.run(until)
    return sim
