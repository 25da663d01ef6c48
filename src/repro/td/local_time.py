"""Per-process local dates.

In a temporally decoupled model each process has a *local date* that is
greater than or equal to the global date managed by the simulation kernel
(Section II-A of the paper).  Following the paper, the association between a
process and its local date is kept in a map keyed by the process handle, so
that channels such as the Smart FIFO can retrieve the caller's local date
without it being passed explicitly.

Since PR 1 the absolute local date (in femtoseconds) is cached directly on
the :class:`~repro.kernel.process.Process` object (``process.local_fs``),
so the per-access "map lookup" of the paper costs a single attribute read;
this manager owns that attribute and keeps the conceptual map interface
(plus a registry of the processes it ever touched, for introspection).  A
process that never called :func:`~repro.td.decoupling.inc` is synchronized
by definition: its local date is the global date.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..kernel.errors import TimingError
from ..kernel.process import Process
from ..kernel.simtime import SimTime
from ..kernel.simulator import Simulator


class LocalTimeManager:
    """Holds the local date of every decoupled process of one simulator."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._scheduler = sim.scheduler
        # pid -> process, for introspection over every process that ever
        # carried a local date (the dates themselves live on the processes).
        self._tracked: Dict[int, Process] = {}

    def track(self, process: Process) -> None:
        """Register ``process`` as carrying a local date (idempotent)."""
        if not process.lt_tracked:
            process.lt_tracked = True
            self._tracked[process.pid] = process

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def local_fs(self, process: Optional[Process]) -> int:
        """Local date (fs) of ``process``; the global date if undecoupled.

        The local date can never be behind the global date: if the kernel
        advanced past the stored value (the process was synchronized and
        time moved on), the global date is returned.
        """
        now_fs = self._scheduler.now_fs
        if process is None:
            return now_fs
        stored = process.local_fs
        return stored if stored > now_fs else now_fs

    def local_time(self, process: Optional[Process]) -> SimTime:
        return SimTime.from_femtoseconds(self.local_fs(process))

    def offset_fs(self, process: Optional[Process]) -> int:
        """How far ahead of the global date ``process`` currently is."""
        return self.local_fs(process) - self.sim.now_fs

    def is_synchronized(self, process: Optional[Process]) -> bool:
        return self.offset_fs(process) == 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def advance(self, process: Process, duration: SimTime) -> int:
        """Add ``duration`` to the local date of ``process``; return it."""
        return self.advance_fs(process, duration.femtoseconds)

    def advance_fs(self, process: Process, delta_fs: int) -> int:
        """Fast path of :meth:`advance`: the delta is already in femtoseconds.

        This is the hot function of every finely-annotated decoupled model
        (one call per timing annotation), so it avoids building
        :class:`SimTime` objects and touches only process attributes.
        """
        now_fs = self._scheduler.now_fs
        stored = process.local_fs
        if stored < now_fs:
            stored = now_fs
        new_fs = stored + delta_fs
        process.local_fs = new_fs
        if not process.lt_tracked:
            self.track(process)
        return new_fs

    def advance_to(self, process: Process, target_fs: int) -> int:
        """Raise the local date of ``process`` up to ``target_fs``.

        Used by the Smart FIFO when a cell timestamp is ahead of the caller.
        Lowering the local date is forbidden (time must go forward on each
        FIFO side, Section III).
        """
        now_fs = self._scheduler.now_fs
        current = process.local_fs
        if current < now_fs:
            current = now_fs
        if target_fs < current:
            raise TimingError(
                f"cannot move local time of {process.name} backwards "
                f"({SimTime.from_femtoseconds(current)} -> "
                f"{SimTime.from_femtoseconds(target_fs)})"
            )
        process.local_fs = target_fs
        if not process.lt_tracked:
            self.track(process)
        return target_fs

    def set_synchronized(self, process: Process) -> None:
        """Record that ``process`` is now synchronized (after a sync wait)."""
        process.local_fs = self.sim.now_fs
        self.track(process)

    def forget(self, process: Process) -> None:
        process.local_fs = -1
        process.lt_tracked = False
        self._tracked.pop(process.pid, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def max_local_fs(self) -> int:
        """The furthest local date of any process (≥ global date)."""
        now_fs = self.sim.now_fs
        if not self._tracked:
            return now_fs
        return max(
            now_fs, max(process.local_fs for process in self._tracked.values())
        )


def get_local_time_manager(sim: Simulator) -> LocalTimeManager:
    """Return the (lazily created) local-time manager of ``sim``."""
    manager = getattr(sim, "_local_time_manager", None)
    if manager is None:
        manager = LocalTimeManager(sim)
        sim._local_time_manager = manager
    return manager
