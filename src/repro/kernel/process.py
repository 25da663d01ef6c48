"""Simulation processes.

Two process kinds are provided, mirroring SystemC:

* :class:`ThreadProcess` (``SC_THREAD``) — a Python generator that suspends
  by *yielding* a wait descriptor (``yield self.wait(20, NS)``,
  ``yield WaitEvent(ev)``) and is resumed by the scheduler.  Each
  suspension/resumption is a *context switch* and is counted as such;
  these are the expensive operations the paper's Smart FIFO removes.

* :class:`MethodProcess` (``SC_METHOD``) — a plain callable executed from
  beginning to end, with static sensitivity and ``next_trigger``.  Method
  processes cannot wait, which is why the Smart FIFO exposes the
  non-blocking interface of Section III-B.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, List, Optional

from .errors import ProcessError
from .event import Event, EventList
from .simtime import SimTime


# ---------------------------------------------------------------------------
# Wait descriptors
# ---------------------------------------------------------------------------
class WaitDescriptor:
    """Base class of every object a thread process may yield.

    Each concrete descriptor knows how to *arm* the corresponding wake-up
    on the scheduler (``arm(scheduler, process, wait_id)``); the scheduler
    dispatches on that method instead of walking an ``isinstance`` ladder.
    :class:`~repro.kernel.event.Event` and
    :class:`~repro.kernel.event.EventList` implement the same protocol so
    they can be yielded directly.
    """

    __slots__ = ()

    def arm(self, scheduler, process: "ThreadProcess", wait_id: int) -> None:
        raise NotImplementedError  # pragma: no cover - abstract


class Timeout(WaitDescriptor):
    """Suspend the calling thread for a fixed simulated duration.

    The duration is held in femtoseconds: the scheduler arms it without a
    :class:`SimTime` round trip, and the kernel's own hot paths build it
    from an int with :meth:`from_femtoseconds`.
    """

    __slots__ = ("duration_fs",)

    def __init__(self, duration: SimTime):
        if not isinstance(duration, SimTime):
            raise ProcessError(f"Timeout expects a SimTime, got {duration!r}")
        self.duration_fs = duration.femtoseconds

    @classmethod
    def from_femtoseconds(cls, duration_fs: int) -> "Timeout":
        """Build a timeout from a non-negative femtosecond count (no
        :class:`SimTime` allocated)."""
        if duration_fs < 0:
            raise ProcessError(
                f"Timeout expects a non-negative duration, got {duration_fs} fs"
            )
        timeout = cls.__new__(cls)
        timeout.duration_fs = duration_fs
        return timeout

    @property
    def duration(self) -> SimTime:
        return SimTime.from_femtoseconds(self.duration_fs)

    def arm(self, scheduler, process, wait_id: int) -> None:
        scheduler.arm_timeout(process, wait_id, self.duration_fs)

    def __repr__(self) -> str:
        return f"Timeout({self.duration})"


class WaitEvent(WaitDescriptor):
    """Suspend the calling thread until ``event`` is notified."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        if not isinstance(event, Event):
            raise ProcessError(f"WaitEvent expects an Event, got {event!r}")
        self.event = event

    def arm(self, scheduler, process, wait_id: int) -> None:
        self.event.add_waiting_thread(process, wait_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WaitEvent({self.event.name})"


class WaitEventList(WaitDescriptor):
    """Suspend until any/all events of an :class:`EventList` trigger."""

    __slots__ = ("events", "wait_for_all")

    def __init__(self, event_list: EventList):
        self.events = list(event_list.events)
        self.wait_for_all = event_list.wait_for_all

    # Same arming logic as a bare EventList (shared implementation; both
    # classes expose .events and .wait_for_all).
    arm = EventList.arm


class WaitEventOrTimeout(WaitDescriptor):
    """Suspend until ``event`` triggers or ``timeout`` elapses."""

    __slots__ = ("event", "timeout")

    def __init__(self, event: Event, timeout: SimTime):
        if not isinstance(event, Event):
            raise ProcessError(f"expected an Event, got {event!r}")
        if not isinstance(timeout, SimTime):
            raise ProcessError(f"expected a SimTime timeout, got {timeout!r}")
        self.event = event
        self.timeout = timeout

    def arm(self, scheduler, process, wait_id: int) -> None:
        self.event.add_waiting_thread(process, wait_id)
        scheduler.arm_timeout(process, wait_id, self.timeout.femtoseconds)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
_PROCESS_IDS = itertools.count(1)


class Process:
    """Common state of thread and method processes."""

    kind = "process"
    #: Class-level discriminator, avoids ``isinstance`` on the execute path.
    is_thread = False

    def __init__(self, name: str, func: Callable, sim):
        self.name = name
        self.func = func
        self.sim = sim
        self.pid = next(_PROCESS_IDS)
        self.terminated = False
        #: True while the process sits in the scheduler's runnable queue.
        self.runnable = False
        #: Value delivered by the wake-up that made the process runnable
        #: (e.g. the event that triggered); consumed on resumption.
        self.resume_value = None
        #: Absolute local date in femtoseconds of this (temporally
        #: decoupled) process; -1 when the process never decoupled.  Owned
        #: by :class:`~repro.td.local_time.LocalTimeManager` but stored here
        #: so the Smart FIFO access path needs no per-access map lookup.
        self.local_fs = -1
        #: True once the local-time manager tracks this process.
        self.lt_tracked = False
        #: Event notified when the process terminates (like sc_process_handle
        #: ``terminated_event``); created lazily.
        self._terminated_event: Optional[Event] = None

    @property
    def terminated_event(self) -> Event:
        if self._terminated_event is None:
            self._terminated_event = Event(f"{self.name}.terminated", sim=self.sim)
        return self._terminated_event

    def mark_terminated(self) -> None:
        self.terminated = True
        if self._terminated_event is not None:
            self._terminated_event.notify(SimTime(0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class ThreadProcess(Process):
    """A generator-based cooperative thread (``SC_THREAD``)."""

    kind = "thread"
    is_thread = True

    def __init__(self, name: str, func: Callable, sim):
        super().__init__(name, func, sim)
        #: The running generator; None until the first activation (and for
        #: a body without ``yield``).  The scheduler resumes it directly.
        self.generator = None
        #: Monotonic counter identifying the current wait; wake-ups carrying a
        #: stale identifier (e.g. the timeout half of an event-or-timeout wait
        #: that already completed) are ignored by the scheduler.
        self.wait_id = 0
        #: For wait-for-all waits: events still missing (None outside such
        #: a wait, so the common case costs no list allocation).
        self.pending_all_events: Optional[List[Event]] = None
        self.started = False

    def start(self):
        """Instantiate the generator (first activation)."""
        if self.started:
            raise ProcessError(f"thread {self.name} started twice")
        self.started = True
        gen = self.func()
        if gen is None:
            # The function body contained no yield: it ran to completion
            # synchronously (legal, like a SystemC thread that returns
            # immediately).
            self.mark_terminated()
            return None
        if not hasattr(gen, "send"):
            raise ProcessError(
                f"thread {self.name}: process function must be a generator "
                f"function (did you forget a 'yield'?)"
            )
        self.generator = gen
        return gen


class MethodProcess(Process):
    """A run-to-completion callback (``SC_METHOD``)."""

    kind = "method"

    def __init__(
        self,
        name: str,
        func: Callable,
        sim,
        sensitivity: Optional[Iterable[Event]] = None,
        dont_initialize: bool = False,
    ):
        super().__init__(name, func, sim)
        self.static_sensitivity: List[Event] = list(sensitivity or [])
        self.dont_initialize = dont_initialize
        #: When True the method ignores its static sensitivity until the
        #: dynamic trigger installed by ``next_trigger`` fires.
        self.dynamic_trigger_active = False
        self.trigger_id = 0
        #: Set by the scheduler while the method body runs so that
        #: ``next_trigger`` calls can be recorded.
        self.requested_trigger = None

    def register_static_sensitivity(self) -> None:
        for event in self.static_sensitivity:
            event.add_static_method(self)

    def new_trigger_id(self) -> int:
        self.trigger_id += 1
        return self.trigger_id
