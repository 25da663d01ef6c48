"""Exception hierarchy for the simulation kernel.

The kernel raises specific exception types so that user code (and the test
suite) can distinguish configuration mistakes (binding, elaboration) from
runtime scheduling problems.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class of every error raised by the :mod:`repro` kernel."""


class ElaborationError(SimulationError):
    """Raised when the module hierarchy is malformed (duplicate names,
    processes registered after the simulation started, ...)."""


class BindingError(SimulationError):
    """Raised when a port is left unbound or bound more than once."""


class ProcessError(SimulationError):
    """Raised when a process misuses the kernel API.

    Typical causes: calling ``wait`` from a method process, yielding an
    object that is not a wait descriptor, or re-entering a terminated
    process.
    """


class SchedulingError(SimulationError):
    """Raised for inconsistent scheduler requests (negative delays,
    notifications on a dead simulator, ...)."""


class TimingError(SimulationError):
    """Raised when temporal decoupling invariants are violated.

    The most common cause is a process whose local time would have to move
    backwards, e.g. two different processes accessing the same side of a
    :class:`~repro.fifo.smart_fifo.SmartFifo` without an arbiter.
    """


class BlockedRunError(SimulationError):
    """Raised when a run ends with thread processes still waiting.

    Nothing is left to wake them, so the run lost a wakeup (or deadlocked)
    and its counters describe a run that never completed.
    """


class FifoError(SimulationError):
    """Raised on invalid FIFO usage (zero depth, non-blocking read on an
    empty FIFO, ...)."""


class TlmError(SimulationError):
    """Raised on malformed memory-mapped transactions (address errors,
    unbound sockets, overlapping target ranges)."""
