"""Primitive channels and the update phase.

SystemC primitive channels (``sc_signal``, ``sc_fifo``...) defer visible
state changes to the *update phase* that follows every evaluation phase:
a write calls ``request_update()`` and the new value becomes observable in
the next delta cycle.  :class:`PrimitiveChannel` provides that protocol.

The regular FIFO of :mod:`repro.fifo.regular_fifo` uses it so that its
behaviour matches ``sc_fifo`` (readers see values written in the previous
delta cycle), which in turn makes the reference executions of the paper's
validation methodology faithful to SystemC.
"""

from __future__ import annotations

from typing import Union

from .module import Module
from .simulator import Simulator


class PrimitiveChannel(Module):
    """A module with access to the scheduler's update phase."""

    def __init__(self, parent: Union[Simulator, Module], name: str):
        super().__init__(parent, name)
        self._update_requested = False

    def request_update(self) -> None:
        """Ask the kernel to call :meth:`update` in the next update phase."""
        if not self._update_requested:
            self._update_requested = True
            self.sim.scheduler.request_update(self)

    def update(self) -> None:  # pragma: no cover - overridden by subclasses
        """Apply the pending state change (called by the scheduler)."""
        self._update_requested = False

    def _clear_update_request(self) -> None:
        self._update_requested = False
