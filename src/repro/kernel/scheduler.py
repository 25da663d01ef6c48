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

* one fused evaluation loop resumes threads inline — activation counting,
  ``send``, termination, the wait-id bump and the arming of the two
  descriptors every FIFO yields (:class:`~repro.kernel.process.Timeout`
  and :class:`~repro.kernel.process.WaitEvent`); any other descriptor
  goes through its own ``arm`` method;
* event triggers, delta wakes and timed wakes mark threads runnable
  inline, reading and resetting the event's waiter lists directly;
* timed-queue entries are ``(time_fs, seq, record)`` tuples, so ``heapq``
  orders them with C int comparisons; ``seq`` keeps equal dates in push
  order, and popped process-wake records are pooled and reused;
* wake values and the runnable flag live on the process objects themselves
  (no ``_resume_values`` / ``_runnable_pids`` dict and set churn);
* update and delta-notification phases are skipped entirely when their
  queues are empty, which is the common case for the single-runnable-process
  deltas that temporally decoupled models spend their life in.
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

#: Upper bound of the recycled process-wake record pool.
_WAKE_POOL_LIMIT = 256


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
        self._wake_pool: List[_TimedWake] = []

        self._update_requests: List[object] = []
        self._update_pids = set()

        self._threads: List[ThreadProcess] = []
        self._methods: List[MethodProcess] = []

        self._started = False
        self._stop_requested = False
        self._end_of_simulation = False

        #: Telemetry sideband; :meth:`run` checks ``enabled`` once and
        #: dispatches to the instrumented loop variant, so the disabled
        #: hot loop is byte-identical to the pre-telemetry one.
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
    def schedule_delta_notification(self, event: Event) -> None:
        self._delta_events.append(event)

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
        pool = self._wake_pool
        if pool:
            record = pool.pop()
            record.process = process
            record.token = token
        else:
            record = _TimedWake(process, token)
        heapq.heappush(self._timed_queue, (time_fs, next(self._seq), record))

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
        activity remains."""
        until_fs = None if until is None else until.femtoseconds
        if not self._started:
            self._initialize()
        if self.telemetry.enabled:
            # One check per run(), not per iteration: the telemetry-off
            # loop below stays exactly the pre-telemetry hot path.
            self._run_instrumented(until_fs)
            return
        runnable = self._runnable
        while True:
            if self._stop_requested:
                self._stop_requested = False
                break
            if runnable:
                self._run_delta_cycle()
                continue
            # Nothing runnable: process pending delta notifications (they may
            # exist without runnable processes, e.g. a notify(ZERO) from
            # outside the simulation).
            if self._delta_events or self._delta_process_wakes:
                self._delta_notification_phase()
                continue
            if not self._advance_time(until_fs):
                break

    def _run_instrumented(self, until_fs: Optional[int]) -> None:
        """The telemetry-on loop: same phase order as :meth:`run`, with
        wall time split between the delta work (evaluation/update/delta
        notification) and the timed-advance work — the two counters
        (``kernel.delta_loop_s`` / ``kernel.timed_loop_s``) the sideband
        reports per simulation."""
        perf = time.perf_counter
        delta_s = 0.0
        timed_s = 0.0
        runnable = self._runnable
        while True:
            if self._stop_requested:
                self._stop_requested = False
                break
            if runnable:
                t0 = perf()
                self._run_delta_cycle()
                delta_s += perf() - t0
                continue
            if self._delta_events or self._delta_process_wakes:
                t0 = perf()
                self._delta_notification_phase()
                delta_s += perf() - t0
                continue
            t0 = perf()
            advanced = self._advance_time(until_fs)
            timed_s += perf() - t0
            if not advanced:
                break
        telemetry = self.telemetry
        telemetry.counter("kernel.delta_loop_s", delta_s)
        telemetry.counter("kernel.timed_loop_s", timed_s)

    def _run_delta_cycle(self) -> None:
        stats = self.stats
        stats.delta_cycles += 1
        runnable = self._runnable
        activations = stats.per_process_activations
        # Evaluation phase: the scheduler's innermost hot path.  Resume
        # state lives on the process object, the thread/method dispatch is
        # a class attribute, and a thread is resumed and re-armed inline.
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
                    raise ProcessError(f"thread {name} resumed after termination")
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
                    duration_fs = descriptor.duration_fs
                    if duration_fs:
                        self._push_wake(self.now_fs + duration_fs, process, wait_id)
                    else:
                        self._delta_process_wakes.append((process, wait_id))
                else:
                    try:
                        arm = descriptor.arm
                    except AttributeError:
                        raise ProcessError(
                            f"thread {name} yielded {descriptor!r}, which is "
                            f"not a wait descriptor"
                        ) from None
                    arm(self, process, wait_id)
        finally:
            self.current_process = None
        # Update phase (skipped outright when no channel requested one).
        if self._update_requests:
            requests = self._update_requests
            self._update_requests = []
            self._update_pids.clear()
            for channel in requests:
                channel.update()
        # Delta-notification phase: the single-runnable fast path — nothing
        # pending — returns without swapping (allocating) the phase lists.
        if self._delta_events or self._delta_process_wakes:
            self._delta_notification_phase()

    def _delta_notification_phase(self) -> None:
        events = self._delta_events
        self._delta_events = []
        wakes = self._delta_process_wakes
        self._delta_process_wakes = []
        for event in events:
            if event._pending_delta:
                event._pending_delta = False
                self._trigger_event(event)
        runnable = self._runnable
        for process, wait_id in wakes:
            if process.runnable or process.terminated or wait_id != process.wait_id:
                continue
            process.runnable = True
            process.resume_value = None
            runnable.append(process)

    def _advance_time(self, until_fs: Optional[int]) -> bool:
        """Advance to the next timed notification; return False to stop."""
        queue = self._timed_queue
        # Drop cancelled event notifications sitting at the head of the queue.
        while queue:
            record = queue[0][2]
            if record.is_event and record.cancelled:
                heapq.heappop(queue)
                record.event.recycle_timed(record)
                continue
            break
        if not queue:
            if until_fs is not None and until_fs > self.now_fs:
                self.now_fs = until_fs
            return False
        next_time = queue[0][0]
        if until_fs is not None and next_time > until_fs:
            self.now_fs = until_fs
            return False
        if next_time < self.now_fs:  # pragma: no cover - defensive
            raise SchedulingError("timed queue went backwards")
        self.now_fs = next_time
        stats = self.stats
        stats.timed_phases += 1
        pool = self._wake_pool
        runnable = self._runnable
        while queue and queue[0][0] == next_time:
            record = heapq.heappop(queue)[2]
            if record.is_event:
                if record.cancelled:
                    record.event.recycle_timed(record)
                    continue
                event = record.event
                event.clear_pending_timed(record)
                event.recycle_timed(record)
                self._trigger_event(event)
                continue
            process = record.process
            token = record.token
            record.process = None
            if len(pool) < _WAKE_POOL_LIMIT:
                pool.append(record)
            if not process.is_thread:
                self._wake_dynamic_method(process, token)
                continue
            if process.runnable or process.terminated or token != process.wait_id:
                continue
            process.runnable = True
            process.resume_value = None
            runnable.append(process)
        return True
