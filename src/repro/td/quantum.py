"""Global quantum and quantum keeper.

Section II-A of the paper recalls the TLM-2.0 approach to temporal
decoupling: a *global quantum* bounds how far a process may run ahead of
the global date before it must synchronize.  A large quantum is good for
speed but bad for accuracy (a cancellation message may be seen up to one
quantum late); setting the quantum to zero disables decoupling.

The Smart FIFO does **not** need a quantum — it synchronizes exactly when
the modelled hardware FIFO would block — but the quantum keeper is still
required for the memory-mapped (TLM) part of the case-study SoC and for the
EXP-QUANTUM ablation benchmark that contrasts the two approaches.
"""

from __future__ import annotations

from typing import Optional

from ..kernel import context
from ..kernel.simtime import SimTime, TimeUnit, ZERO_TIME, as_time
from ..kernel.simulator import Simulator
from .decoupling import inc, local_offset, sync


class GlobalQuantum:
    """The per-simulator global quantum (TLM ``tlm_global_quantum``)."""

    def __init__(self, quantum: SimTime = ZERO_TIME):
        self._quantum = quantum

    @property
    def quantum(self) -> SimTime:
        return self._quantum

    def set(self, quantum, unit: TimeUnit = TimeUnit.NS) -> None:
        self._quantum = as_time(quantum, unit)

    @property
    def enabled(self) -> bool:
        """Temporal decoupling via quantum is disabled when the quantum is 0."""
        return not self._quantum.is_zero

    @classmethod
    def instance(cls, sim: Optional[Simulator] = None) -> "GlobalQuantum":
        """Return the (lazily created) global quantum of ``sim``."""
        sim = sim or context.current_simulator()
        existing = getattr(sim, "_global_quantum", None)
        if existing is None:
            existing = cls()
            sim._global_quantum = existing
        return existing


class QuantumKeeper:
    """Per-process quantum bookkeeping (TLM ``tlm_quantumkeeper``).

    Typical loosely-timed initiator loop::

        qk = QuantumKeeper(self)
        ...
        qk.inc(ns(10))
        if qk.need_sync():
            yield from qk.sync()
    """

    def __init__(self, module, quantum: Optional[SimTime] = None):
        self.module = module
        self.sim = module.sim
        self._local_quantum = quantum  # None -> follow the global quantum

    # ------------------------------------------------------------------
    @property
    def quantum(self) -> SimTime:
        if self._local_quantum is not None:
            return self._local_quantum
        return GlobalQuantum.instance(self.sim).quantum

    # ------------------------------------------------------------------
    def inc(self, duration, unit: TimeUnit = TimeUnit.NS) -> SimTime:
        """Accumulate a timing annotation on the current process."""
        return inc(duration, unit, sim=self.sim)

    def local_offset(self) -> SimTime:
        """Current local-time offset of the calling process."""
        return local_offset(sim=self.sim)

    def need_sync(self) -> bool:
        """True when the accumulated offset reached the quantum.

        When the quantum is zero (decoupling disabled) every annotation
        requires a synchronization, reproducing the non-decoupled reference
        behaviour.
        """
        quantum = self.quantum
        offset = self.local_offset()
        if quantum.is_zero:
            return not offset.is_zero
        return offset >= quantum

    def sync(self):
        """Synchronize the current thread (``yield from qk.sync()``);
        returns the waits to perform, like :func:`~repro.td.decoupling.sync`."""
        return sync(sim=self.sim)

    def sync_if_needed(self):
        """Synchronize only when :meth:`need_sync` is true
        (``yield from qk.sync_if_needed()``)."""
        if self.need_sync():
            return sync(sim=self.sim)
        return ()
