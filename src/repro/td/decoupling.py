"""The temporal decoupling core API.

The paper (Section II-A) defines temporal decoupling through two basic
primitives plus an accessor:

* ``inc(duration)`` — a *low-cost* operation that advances the local date of
  the calling process without involving the kernel;
* ``sync()`` — a *costly* operation that suspends the calling process until
  the global date has caught up with its local date (one context switch);
* ``local_time_stamp()`` — the local date of the calling process, the
  decoupled counterpart of ``sc_time_stamp()``.

They are offered both as free functions operating on the current process
(the style used in the paper's pseudo-code) and as methods of
:class:`DecoupledMixin` / :class:`DecoupledModule` for module-oriented code.
``sync()`` is a plain function that returns the waits to perform — an
empty tuple when the caller is already synchronized, one
:class:`~repro.kernel.process.Timeout` up to its local date otherwise —
and is invoked as ``yield from sync()`` from a thread body.  Calling it
from a method process is an error, since method processes cannot wait
(that is precisely why the Smart FIFO has a non-blocking interface).
"""

from __future__ import annotations

from typing import Optional

from ..kernel import context
from ..kernel.errors import ProcessError
from ..kernel.module import Module
from ..kernel.process import Timeout
from ..kernel.simtime import SimTime, TimeUnit, as_femtoseconds, as_time
from ..kernel.simulator import Simulator
from .local_time import get_local_time_manager


def inc(duration, unit: TimeUnit = TimeUnit.NS, sim: Optional[Simulator] = None) -> SimTime:
    """Advance the local date of the calling process by ``duration``.

    Returns the new local date.  This is the cheap timing-annotation
    primitive: no context switch, no kernel interaction — and the most
    frequently called function of any finely-annotated model, so the common
    integer-duration case avoids the :class:`SimTime` round trip entirely.
    """
    sim = sim or context.current_simulator()
    process = sim.scheduler.current_process
    if process is None:
        raise ProcessError("temporal decoupling API used outside of a process")
    kind = type(duration)
    if kind is int and duration >= 0:
        delta_fs = duration * unit
    elif kind is float and duration >= 0:
        delta_fs = round(duration * unit)
    else:
        delta_fs = as_time(duration, unit).femtoseconds
    new_fs = get_local_time_manager(sim).advance_fs(process, delta_fs)
    return SimTime.from_femtoseconds(new_fs)


def local_time_stamp(sim: Optional[Simulator] = None) -> SimTime:
    """Return the local date of the calling process (≥ global date)."""
    sim = sim or context.current_simulator()
    manager = get_local_time_manager(sim)
    return manager.local_time(sim.scheduler.current_process)


def local_offset(sim: Optional[Simulator] = None) -> SimTime:
    """Return how far the calling process is ahead of the global date."""
    sim = sim or context.current_simulator()
    manager = get_local_time_manager(sim)
    return SimTime.from_femtoseconds(
        manager.offset_fs(sim.scheduler.current_process)
    )


def sync(sim: Optional[Simulator] = None):
    """Synchronize the calling thread: wait until global time reaches its
    local date.  Must be used as ``yield from sync()``.

    Returns the waits to perform: ``()`` when the process is already
    synchronized (it is marked so on the spot: no wait, no context switch),
    otherwise a single :class:`Timeout` of the local offset.  Waking at the
    end of that timeout leaves the local date equal to the global date, so
    nothing has to run after the wait.
    """
    sim = sim or context.current_simulator()
    scheduler = sim.scheduler
    process = scheduler.current_process
    if process is None:
        raise ProcessError("temporal decoupling API used outside of a process")
    if not process.is_thread:
        raise ProcessError(
            f"sync() called from method process {process.name}: method "
            f"processes cannot wait; use the Smart FIFO non-blocking interface"
        )
    now_fs = scheduler.now_fs
    offset_fs = process.local_fs - now_fs
    if offset_fs > 0:
        # Ahead of the kernel: the local date was set by the local-time
        # manager, so the process is tracked already.
        return (Timeout.from_femtoseconds(offset_fs),)
    if process.lt_tracked:
        process.local_fs = now_fs
    else:
        get_local_time_manager(sim).set_synchronized(process)
    return ()


def is_synchronized(sim: Optional[Simulator] = None) -> bool:
    """True when the calling process' local date equals the global date."""
    sim = sim or context.current_simulator()
    manager = get_local_time_manager(sim)
    return manager.is_synchronized(sim.scheduler.current_process)


class DecoupledMixin:
    """Mixin adding the temporal-decoupling API to a :class:`Module`.

    The mixin also overrides :meth:`log` so that trace lines carry the
    *local* date of the emitting process, which is what the paper's
    trace-equivalence validation compares.
    """

    def inc(self, duration, unit: TimeUnit = TimeUnit.NS) -> SimTime:
        """Advance the local date of the current process (cheap)."""
        sim = self.sim
        recorder = sim.dep_recorder
        if recorder is not None:
            recorder.inc(as_femtoseconds(duration, unit))
        return inc(duration, unit, sim=sim)

    def sync(self):
        """Synchronize the current thread; use as ``yield from self.sync()``
        (see :func:`sync` for what it returns)."""
        sim = self.sim
        recorder = sim.dep_recorder
        if recorder is not None:
            recorder.sync_point(
                get_local_time_manager(sim).local_fs(
                    sim.scheduler.current_process
                )
            )
        return sync(sim=sim)

    def local_time_stamp(self) -> SimTime:
        """Local date of the current process."""
        return local_time_stamp(sim=self.sim)

    def local_offset(self) -> SimTime:
        return local_offset(sim=self.sim)

    def is_synchronized(self) -> bool:
        return is_synchronized(sim=self.sim)

    def log(self, message: str, local_time: Optional[SimTime] = None) -> None:
        sim = self.sim
        if not sim.trace.enabled:
            return
        if local_time is None:
            local_time = self.local_time_stamp()
        sim.log(message, local_time=local_time)

    def timed_wait(self, duration, unit: TimeUnit = TimeUnit.NS):
        """``inc`` followed by ``sync``: equivalent to a plain ``wait``.
        Use as ``yield from self.timed_wait(d)``; like :meth:`sync`, it
        returns the waits to perform.

        The paper notes that ``inc(d); sync()`` is equivalent to ``wait(d)``;
        this helper makes the non-decoupled reference implementations easy to
        express with the same code as the decoupled ones.
        """
        self.inc(duration, unit)
        return self.sync()


class DecoupledModule(DecoupledMixin, Module):
    """A :class:`Module` whose processes use temporal decoupling."""
