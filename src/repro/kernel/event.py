"""Events and event notification.

:class:`Event` reproduces the semantics of ``sc_event``:

* **immediate notification** — ``notify()`` with no argument triggers the
  event during the current evaluation phase;
* **delta notification** — ``notify(ZERO_TIME)`` triggers the event in the
  delta-notification phase of the current time step;
* **timed notification** — ``notify(delay)`` triggers the event ``delay``
  later in simulated time.

An event carries at most one *pending* notification.  The SystemC override
rules apply: a delta notification overrides a pending timed notification,
an earlier timed notification overrides a later one, and a pending delta
notification cannot be overridden (the extra request is simply dropped).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import context
from .errors import SchedulingError
from .simtime import SimTime, ZERO_TIME


class _TimedRecord:
    """Base class of the records the scheduler's timed queue carries.

    The heap itself holds ``(time_fs, seq, record)`` tuples: ``heapq``
    compares the int date, then the scheduler-assigned monotonic ``seq``
    (which keeps equal dates in push order, and is unique, so the record
    is never compared).  ``is_event`` discriminates the two concrete
    record kinds without a string comparison or an ``isinstance`` check on
    the pop path.
    """

    __slots__ = ()

    is_event = False


class _TimedNotification(_TimedRecord):
    """Book-keeping record for a pending timed event notification.

    The scheduler keeps these in its timed queue; cancelling a notification
    simply marks the record, the scheduler skips cancelled records when it
    pops them.  Popped records are handed back to their event for reuse by
    the next timed ``notify``, so a channel that keeps re-arming a delayed
    notification (the Smart FIFO external events) allocates only once.
    The scheduler does that hand-back itself when it pops a record: it
    clears the event's ``_pending_timed`` if the record is the pending one
    and fired, and stores the record as ``_spare_timed`` unless it is
    still pending.
    """

    __slots__ = ("event", "time_fs", "cancelled")

    is_event = True

    def __init__(self, event: "Event", time_fs: int):
        self.event = event
        self.time_fs = time_fs
        self.cancelled = False


class Event:
    """A notification channel processes can wait on.

    Parameters
    ----------
    name:
        Debug name, shown in traces and error messages.
    sim:
        The owning simulator.  When omitted the event binds lazily to the
        process-wide current simulator the first time it is notified.
    """

    def __init__(self, name: str = "event", sim=None):
        # The waiter lists, the static snapshot and the pending-delta flag
        # are read and reset by the scheduler itself when the event
        # triggers (no per-trigger call into the event).
        self.name = name
        self._sim = sim
        # Scheduler of the owning simulator, resolved on first notification
        # (one attribute read afterwards instead of a property round trip).
        self._scheduler = None
        # Threads dynamically waiting on this event: (process, wait_id).
        self._waiting_threads: List[Tuple[object, int]] = []
        # Methods statically sensitive to this event (permanent).
        self._static_methods: List[object] = []
        # Immutable snapshot of _static_methods handed to the scheduler on
        # every trigger (rebuilt on the rare registration changes).
        self._static_snapshot = ()
        # Methods dynamically waiting via next_trigger: (process, trigger_id).
        self._dynamic_methods: List[Tuple[object, int]] = []
        # Pending notification state.
        self._pending_delta = False
        self._pending_timed: Optional[_TimedNotification] = None
        # Recycled timed-notification record (see _TimedNotification).
        self._spare_timed: Optional[_TimedNotification] = None
        #: Number of processes currently observing the event (threads +
        #: static methods + dynamic methods), maintained incrementally so
        #: hot paths can test it with one attribute read.
        self.listener_count = 0

    # -- wiring ----------------------------------------------------------
    @property
    def sim(self):
        if self._sim is None:
            self._sim = context.current_simulator()
        return self._sim

    # -- registration (used by the scheduler and by method processes) ----
    def add_waiting_thread(self, process, wait_id: int) -> None:
        self._waiting_threads.append((process, wait_id))
        self.listener_count += 1

    def add_static_method(self, process) -> None:
        if process not in self._static_methods:
            self._static_methods.append(process)
            self._static_snapshot = tuple(self._static_methods)
            self.listener_count += 1

    def add_dynamic_method(self, process, trigger_id: int) -> None:
        self._dynamic_methods.append((process, trigger_id))
        self.listener_count += 1

    # -- notification ----------------------------------------------------
    def notify(self, delay: Optional[SimTime] = None) -> None:
        """Notify the event.

        ``notify()`` is an immediate notification, ``notify(ZERO_TIME)`` a
        delta notification and ``notify(t)`` with ``t > 0`` a timed
        notification ``t`` after the current simulated date.
        """
        if delay is None:
            # Immediate: trigger right now, do not touch pending notifications.
            scheduler = self._scheduler
            if scheduler is None:
                scheduler = self._scheduler = self.sim.scheduler
            scheduler.stats.event_notifications += 1
            scheduler.trigger_event_now(self)
            return
        if delay is not ZERO_TIME and not isinstance(delay, SimTime):
            raise SchedulingError(
                f"Event.notify expects a SimTime delay, got {delay!r}"
            )
        self.notify_fs(delay._fs)

    def notify_fs(self, delay_fs: int) -> None:
        """Delta (``delay_fs == 0``) or timed notification, femtosecond API.

        Fast-path variant of :meth:`notify` for channels that already hold
        the delay as an integer (the FIFO word accesses, the Smart FIFO
        delayed external notifications); skips the :class:`SimTime` round
        trip.  A delta notification goes straight onto the scheduler's
        delta list.
        """
        scheduler = self._scheduler
        if scheduler is None:
            scheduler = self._scheduler = self.sim.scheduler
        scheduler.stats.event_notifications += 1
        if delay_fs == 0:
            if self._pending_delta:
                return
            pending = self._pending_timed
            if pending is not None:
                pending.cancelled = True
                self._pending_timed = None
            self._pending_delta = True
            # The scheduler swaps this list out in its delta-notification
            # phase, so it is looked up on every notification.
            scheduler._delta_events.append(self)
            return
        # Timed notification.
        if self._pending_delta:
            return
        target_fs = scheduler.now_fs + delay_fs
        pending = self._pending_timed
        if pending is not None and not pending.cancelled:
            if pending.time_fs <= target_fs:
                return
            pending.cancelled = True
        record = self._spare_timed
        if record is None:
            record = _TimedNotification(self, target_fs)
        else:
            self._spare_timed = None
            record.time_fs = target_fs
            record.cancelled = False
        self._pending_timed = record
        scheduler.schedule_timed_notification(record)

    def cancel(self) -> None:
        """Cancel any pending (delta or timed) notification."""
        self._pending_delta = False
        self._cancel_timed()

    def _cancel_timed(self) -> None:
        if self._pending_timed is not None:
            self._pending_timed.cancelled = True
            self._pending_timed = None

    def arm(self, scheduler, process, wait_id: int) -> None:
        """Wait-descriptor protocol: a bare event can be yielded directly."""
        self.add_waiting_thread(process, wait_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event({self.name!r})"


class EventList:
    """Helper combining several events for *and*/*or* waits."""

    def __init__(self, events, wait_for_all: bool):
        self.events = list(events)
        self.wait_for_all = wait_for_all
        if not self.events:
            raise SchedulingError("cannot wait on an empty event list")

    def arm(self, scheduler, process, wait_id: int) -> None:
        """Wait-descriptor protocol: an event list can be yielded directly."""
        if self.wait_for_all:
            process.pending_all_events = list(self.events)
        for event in self.events:
            event.add_waiting_thread(process, wait_id)


def any_of(*events: Event) -> EventList:
    """Wait descriptor helper: resume when *any* of ``events`` triggers."""
    return EventList(events, wait_for_all=False)


def all_of(*events: Event) -> EventList:
    """Wait descriptor helper: resume when *all* of ``events`` triggered."""
    return EventList(events, wait_for_all=True)
