"""The discrete-event scheduler.

The scheduler implements the SystemC evaluation model:

1. **evaluation phase** — every runnable process runs (threads are resumed,
   methods are called); immediate notifications may add more processes to
   the same evaluation phase;
2. **update phase** — primitive channels that called ``request_update``
   get their ``update`` method called;
3. **delta-notification phase** — delta notifications trigger their events,
   possibly making processes runnable for a new delta cycle;
4. **timed-notification phase** — when nothing is runnable, simulated time
   advances to the earliest pending timed notification.

Threads suspend by yielding a :class:`~repro.kernel.process.WaitDescriptor`;
the scheduler arms the corresponding wake-up and resumes the generator when
it fires.  Every resumption is counted as a *context switch* in
:class:`~repro.kernel.stats.KernelStats` — the quantity the Smart FIFO is
designed to minimise.

Hot-path design notes (this loop dominates every benchmark; host time is
context switches times the cost of one):

* :meth:`Scheduler.run` is the only simulation loop, telemetry on or off.
  Every phase runs inline in it: per context switch the loop itself
  calls only the resumed generator, the record of a timed wait and the
  trigger of each event released.  Telemetry adds two clock reads per
  delta or timed step and nothing else;
* the evaluation phase resumes threads inline — activation counting,
  ``send``, termination, the wait-id bump and the arming of the two
  descriptors every FIFO yields (:class:`~repro.kernel.process.Timeout`
  and :class:`~repro.kernel.process.WaitEvent`); any other descriptor
  goes through its own ``arm`` method;
* event triggers, delta wakes and timed wakes mark threads runnable
  inline, reading and resetting the event's waiter lists directly;
  :meth:`Event.notify_fs <repro.kernel.event.Event.notify_fs>` appends a
  delta notification to the scheduler's list itself;
* timed-queue entries are ``(time_fs, seq, record)`` tuples, so ``heapq``
  orders them with C int comparisons; ``seq`` keeps equal dates in push
  order;
* wake values and the runnable flag live on the process objects themselves
  (no ``_resume_values`` / ``_runnable_pids`` dict and set churn);
* the update and delta-notification phases are skipped when their queues
  are empty, which is the common case for the single-runnable-process
  deltas that temporally decoupled models spend their life in;
* ``KernelStats`` counters are bumped in place as the loop goes, so a
  process reading them mid-run sees live values.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from typing import List, Optional

from .errors import ProcessError, SchedulingError
from .event import Event, EventList, _TimedRecord
from .process import MethodProcess, Process, ThreadProcess, Timeout, WaitEvent
from .simtime import SimTime
from .stats import KernelStats
from ..telemetry import NULL_TELEMETRY

#: Sentinel meaning "the method body did not call next_trigger".
_NO_TRIGGER_REQUEST = object()


class _TimedWake(_TimedRecord):
    """Timed-queue record waking a process.

    Covers both a thread timeout (``token`` is the wait id) and a method
    ``next_trigger`` with a duration (``token`` is the trigger id).
    """

    __slots__ = ("process", "token")

    def __init__(self, process, token: int):
        self.process = process
        self.token = token


class Scheduler:
    """Event queues, process bookkeeping and the simulation loop."""

    def __init__(self, stats: Optional[KernelStats] = None):
        self.stats = stats or KernelStats()
        self.now_fs = 0
        self.current_process: Optional[Process] = None

        self._runnable = deque()

        self._delta_events: List[Event] = []
        self._delta_process_wakes: List[tuple] = []

        self._timed_queue: List[tuple] = []
        self._seq = itertools.count()

        self._update_requests: List[object] = []
        self._update_pids = set()

        self._threads: List[ThreadProcess] = []
        self._methods: List[MethodProcess] = []

        self._started = False
        self._stop_requested = False
        self._end_of_simulation = False

        #: Telemetry sideband; :meth:`run` checks ``enabled`` once per
        #: call and, when on, times its delta and timed steps.
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        return SimTime.from_femtoseconds(self.now_fs)

    def register_thread(self, process: ThreadProcess) -> None:
        self._threads.append(process)
        self.stats.processes_created += 1
        if self._started:
            # Dynamically spawned thread: runs in the current/next evaluation
            # phase, like sc_spawn.
            self._make_runnable(process)

    def register_method(self, process: MethodProcess) -> None:
        self._methods.append(process)
        self.stats.processes_created += 1
        process.register_static_sensitivity()
        if self._started and not process.dont_initialize:
            self._make_runnable(process)

    def request_update(self, channel) -> None:
        """Queue ``channel.update()`` for the next update phase."""
        if id(channel) not in self._update_pids:
            self._update_pids.add(id(channel))
            self._update_requests.append(channel)

    # ------------------------------------------------------------------
    # Notification plumbing (called by Event)
    # ------------------------------------------------------------------
    def schedule_timed_notification(self, record: _TimedRecord) -> None:
        heapq.heappush(self._timed_queue, (record.time_fs, next(self._seq), record))

    # ------------------------------------------------------------------
    # Runnable management
    # ------------------------------------------------------------------
    def _make_runnable(self, process: Process, value=None) -> None:
        if process.terminated or process.runnable:
            return
        process.runnable = True
        process.resume_value = value
        self._runnable.append(process)

    def _wake_dynamic_method(self, process: MethodProcess, token: int) -> None:
        """Fire a method's ``next_trigger`` if ``token`` is still current."""
        if process.terminated or not process.dynamic_trigger_active:
            return
        if token != process.trigger_id:
            return
        process.dynamic_trigger_active = False
        self._make_runnable(process)

    def _trigger_event(self, event: Event) -> None:
        """Wake every process ``event`` releases (the waiter lists are
        detached and reset here, so each dynamic wait fires once)."""
        threads = event._waiting_threads
        dynamic_methods = event._dynamic_methods
        if threads:
            event._waiting_threads = []
        if dynamic_methods:
            event._dynamic_methods = []
        event.listener_count = len(event._static_methods)
        runnable = self._runnable
        for process, wait_id in threads:
            pending = process.pending_all_events
            if pending:
                if wait_id != process.wait_id:
                    continue
                if event in pending:
                    pending.remove(event)
                if pending:
                    continue
            if process.runnable or process.terminated or wait_id != process.wait_id:
                continue  # stale wake-up (e.g. the event half of a timed-out wait)
            process.runnable = True
            process.resume_value = event
            runnable.append(process)
        for method in event._static_snapshot:
            if method.runnable or method.terminated or method.dynamic_trigger_active:
                continue  # static sensitivity masked by a pending next_trigger
            method.runnable = True
            method.resume_value = None
            runnable.append(method)
        for method, trigger_id in dynamic_methods:
            self._wake_dynamic_method(method, trigger_id)

    #: Immediate notification: wake waiters during the current phase.
    trigger_event_now = _trigger_event

    # ------------------------------------------------------------------
    # Wait arming
    # ------------------------------------------------------------------
    def arm_timeout(
        self, process: ThreadProcess, wait_id: int, duration_fs: int
    ) -> None:
        """Arm a thread wake-up ``duration_fs`` from now (descriptor callback)."""
        if duration_fs == 0:
            self._delta_process_wakes.append((process, wait_id))
            return
        self._push_wake(self.now_fs + duration_fs, process, wait_id)

    def _push_wake(self, time_fs: int, process, token: int) -> None:
        heapq.heappush(
            self._timed_queue,
            (time_fs, next(self._seq), _TimedWake(process, token)),
        )

    # ------------------------------------------------------------------
    # Process execution
    # ------------------------------------------------------------------
    def _execute_method(self, process: MethodProcess) -> None:
        stats = self.stats
        stats.method_invocations += 1
        activations = stats.per_process_activations
        name = process.name
        activations[name] = activations.get(name, 0) + 1
        process.requested_trigger = _NO_TRIGGER_REQUEST
        process.func()
        request = process.requested_trigger
        process.requested_trigger = _NO_TRIGGER_REQUEST
        if request is _NO_TRIGGER_REQUEST:
            return
        if request is None:
            # next_trigger() with no argument: restore static sensitivity.
            process.dynamic_trigger_active = False
            return
        token = process.new_trigger_id()
        process.dynamic_trigger_active = True
        if isinstance(request, Event):
            request.add_dynamic_method(process, token)
        elif isinstance(request, SimTime):
            self._push_wake(self.now_fs + request.femtoseconds, process, token)
        elif isinstance(request, EventList):
            for event in request.events:
                event.add_dynamic_method(process, token)
        else:
            raise ProcessError(
                f"next_trigger expects an Event, an EventList or a SimTime, "
                f"got {request!r}"
            )

    def record_next_trigger(self, request) -> None:
        """Store a ``next_trigger`` request made by the running method."""
        process = self.current_process
        if not isinstance(process, MethodProcess):
            raise ProcessError("next_trigger called outside of a method process")
        process.requested_trigger = request

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        self._started = True
        for process in self._threads:
            self._make_runnable(process)
        for process in self._methods:
            if not process.dont_initialize:
                self._make_runnable(process)

    def stop(self) -> None:
        """Request the simulation loop to stop at the end of the current
        delta cycle (like ``sc_stop``)."""
        self._stop_requested = True

    @property
    def pending_activity(self) -> bool:
        return bool(
            self._runnable
            or self._delta_events
            or self._delta_process_wakes
            or self._timed_queue
        )

    def run(self, until: Optional[SimTime] = None) -> None:
        """Run the simulation until ``until`` (inclusive) or until no
        activity remains.

        The one simulation loop, telemetry on or off.  Each iteration is
        either a delta step (an evaluation phase, the update phase and the
        delta-notification phase; or the delta-notification phase alone
        when notifications are pending with nothing runnable) or a timed
        step (advance to the earliest timed notification and wake what it
        releases).  With telemetry on the same loop reads the clock around
        each step and reports the totals as ``kernel.delta_loop_s`` and
        ``kernel.timed_loop_s``.  An ``until`` earlier than the current
        date raises :class:`SchedulingError` before anything runs: the
        clock never moves back.
        """
        until_fs = None if until is None else until.femtoseconds
        if until_fs is not None and until_fs < self.now_fs:
            raise SchedulingError(
                f"cannot run until {until}: the simulation is already at "
                f"{SimTime.from_femtoseconds(self.now_fs)}"
            )
        if not self._started:
            self._initialize()
        telemetry = self.telemetry
        clocked = telemetry.enabled
        perf = time.perf_counter
        delta_s = 0.0
        timed_s = 0.0
        start = 0.0
        stats = self.stats
        activations = stats.per_process_activations
        runnable = self._runnable
        queue = self._timed_queue
        seq = self._seq
        heappush = heapq.heappush
        heappop = heapq.heappop
        while True:
            if self._stop_requested:
                self._stop_requested = False
                break
            if runnable or self._delta_events or self._delta_process_wakes:
                if clocked:
                    start = perf()
                if runnable:
                    stats.delta_cycles += 1
                    # Evaluation phase: the innermost hot path.  Resume
                    # state lives on the process object and a thread is
                    # resumed and re-armed inline.
                    try:
                        while runnable:
                            process = runnable.popleft()
                            process.runnable = False
                            value = process.resume_value
                            process.resume_value = None
                            self.current_process = process
                            if not process.is_thread:
                                self._execute_method(process)
                                continue
                            stats.thread_activations += 1
                            name = process.name
                            activations[name] = activations.get(name, 0) + 1
                            if not process.started:
                                if process.start() is None:
                                    continue
                                value = None
                            elif process.terminated:
                                raise ProcessError(
                                    f"thread {name} resumed after termination"
                                )
                            try:
                                descriptor = process.generator.send(value)
                            except StopIteration:
                                process.mark_terminated()
                                continue
                            if descriptor is None:
                                continue
                            process.pending_all_events = None
                            process.wait_id = wait_id = process.wait_id + 1
                            kind = type(descriptor)
                            if kind is WaitEvent:
                                event = descriptor.event
                                event._waiting_threads.append((process, wait_id))
                                event.listener_count += 1
                            elif kind is Timeout:
                                # arm_timeout, inline: calling it costs the
                                # Fig. 5 TDLESS pipeline 6.3 Python calls
                                # per switch instead of 5.1 (the budget in
                                # test_switch_budget.py is 5.25).
                                duration_fs = descriptor.duration_fs
                                if duration_fs:
                                    heappush(queue, (
                                        self.now_fs + duration_fs, next(seq),
                                        _TimedWake(process, wait_id),
                                    ))
                                else:
                                    self._delta_process_wakes.append(
                                        (process, wait_id)
                                    )
                            else:
                                try:
                                    arm = descriptor.arm
                                except AttributeError:
                                    raise ProcessError(
                                        f"thread {name} yielded {descriptor!r}, "
                                        f"which is not a wait descriptor"
                                    ) from None
                                arm(self, process, wait_id)
                    finally:
                        self.current_process = None
                    # Update phase (skipped when no channel requested one).
                    if self._update_requests:
                        requests = self._update_requests
                        self._update_requests = []
                        self._update_pids.clear()
                        for channel in requests:
                            channel.update()
                # Delta-notification phase; with nothing pending (the
                # single-runnable case) no phase list is swapped.
                if self._delta_events or self._delta_process_wakes:
                    events = self._delta_events
                    self._delta_events = []
                    wakes = self._delta_process_wakes
                    self._delta_process_wakes = []
                    for event in events:
                        if event._pending_delta:
                            event._pending_delta = False
                            self._trigger_event(event)
                    for process, wait_id in wakes:
                        if (process.runnable or process.terminated
                                or wait_id != process.wait_id):
                            continue
                        process.runnable = True
                        process.resume_value = None
                        runnable.append(process)
                if clocked:
                    delta_s += perf() - start
                continue
            # Timed-notification phase.
            if clocked:
                start = perf()
            # Drop cancelled event notifications at the head of the queue.
            # Every popped event record goes back to its event as the spare
            # of its next timed notify, unless it is still the pending one.
            while queue:
                record = queue[0][2]
                if not (record.is_event and record.cancelled):
                    break
                heappop(queue)
                event = record.event
                if record is not event._pending_timed:
                    event._spare_timed = record
            if not queue or (until_fs is not None and queue[0][0] > until_fs):
                # Out of work, or the next date lies past ``until``: stop
                # there (``until`` is never behind the clock, see above).
                if until_fs is not None:
                    self.now_fs = until_fs
                if clocked:
                    timed_s += perf() - start
                break
            next_time = queue[0][0]
            if next_time < self.now_fs:  # pragma: no cover - defensive
                raise SchedulingError("timed queue went backwards")
            self.now_fs = next_time
            stats.timed_phases += 1
            while queue and queue[0][0] == next_time:
                record = heappop(queue)[2]
                if record.is_event:
                    event = record.event
                    if record.cancelled:
                        if record is not event._pending_timed:
                            event._spare_timed = record
                        continue
                    if event._pending_timed is record:
                        event._pending_timed = None
                    event._spare_timed = record
                    self._trigger_event(event)
                    continue
                process = record.process
                if not process.is_thread:
                    self._wake_dynamic_method(process, record.token)
                    continue
                if (process.runnable or process.terminated
                        or record.token != process.wait_id):
                    continue
                process.runnable = True
                process.resume_value = None
                runnable.append(process)
            if clocked:
                timed_s += perf() - start
        if clocked:
            telemetry.counter("kernel.delta_loop_s", delta_s)
            telemetry.counter("kernel.timed_loop_s", timed_s)
