"""Global simulation context.

SystemC keeps a single global simulation context per OS process
(``sc_get_curr_simcontext``).  We follow the same pragmatic approach: the
most recently created :class:`~repro.kernel.simulator.Simulator` becomes the
*current* simulator, so that free functions such as
``Event()`` (without an explicit simulator), ``current_process()`` or the
temporal-decoupling helpers ``inc()`` / ``sync()`` can find the kernel
without threading a simulator handle through every call site.

Tests create one simulator per test; creating a new simulator simply
replaces the current one.
"""

from __future__ import annotations

from .errors import SimulationError

_CURRENT_SIMULATOR = None


def set_current_simulator(sim) -> None:
    """Install ``sim`` as the process-wide current simulator."""
    global _CURRENT_SIMULATOR
    _CURRENT_SIMULATOR = sim


def current_simulator_or_none():
    """Return the current simulator, or ``None`` when there is none."""
    return _CURRENT_SIMULATOR


def current_simulator():
    """Return the current simulator; raise if no simulator exists yet."""
    if _CURRENT_SIMULATOR is None:
        raise SimulationError(
            "no current simulator: create a Simulator before using this API"
        )
    return _CURRENT_SIMULATOR


def current_process():
    """Return the process currently being executed, or ``None``.

    This mirrors ``sc_get_current_process_handle``; the Smart FIFO and the
    temporal-decoupling core use it to associate local dates with processes
    without passing the date explicitly (Section III of the paper).
    """
    sim = current_simulator_or_none()
    if sim is None:
        return None
    return sim.scheduler.current_process
