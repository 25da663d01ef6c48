"""Hierarchical modules.

:class:`Module` plays the role of ``sc_module``: it owns processes, events
and ports, lives in a named hierarchy, and provides the ``wait`` /
``next_trigger`` helpers that process bodies use.  Thread process bodies are
generator methods of the module::

    class Producer(Module):
        def __init__(self, parent, name, fifo):
            super().__init__(parent, name)
            self.fifo = fifo
            self.create_thread(self.run)

        def run(self):
            for value in range(3):
                yield from self.fifo.write(value)
                yield self.wait(20, NS)
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Union

from .errors import ElaborationError
from .event import Event
from .process import MethodProcess, ThreadProcess
from .simtime import SimTime, TimeUnit
from .simulator import Simulator


class Module:
    """Base class of every hardware model in the library."""

    def __init__(self, parent: Union[Simulator, "Module"], name: str):
        if isinstance(parent, Module):
            self.sim: Simulator = parent.sim
            self.parent: Optional[Module] = parent
            self.full_name = f"{parent.full_name}.{name}"
            parent._children.append(self)
        elif isinstance(parent, Simulator):
            self.sim = parent
            self.parent = None
            self.full_name = name
            parent.add_child(self)
        else:
            raise ElaborationError(
                f"module parent must be a Simulator or a Module, got {parent!r}"
            )
        self.name = name
        self.sim.register_name(self.full_name)
        self._children: List[Module] = []
        self._ports: List[object] = []
        self.processes: List[object] = []

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------
    @property
    def children(self):
        return tuple(self._children)

    def register_port(self, port) -> None:
        self._ports.append(port)

    def check_bindings(self) -> None:
        """Elaboration hook: verify that every registered port is bound."""
        for port in self._ports:
            port.check_bound()

    def end_of_elaboration(self) -> None:
        """Hook called once before the simulation starts; override freely."""

    # ------------------------------------------------------------------
    # Process creation
    # ------------------------------------------------------------------
    def create_thread(self, func: Callable, name: Optional[str] = None) -> ThreadProcess:
        """Register a generator method of this module as an ``SC_THREAD``."""
        proc_name = f"{self.full_name}.{name or func.__name__}"
        self.sim.register_name(proc_name)
        process = ThreadProcess(proc_name, func, self.sim)
        self.sim.scheduler.register_thread(process)
        self.processes.append(process)
        return process

    def create_method(
        self,
        func: Callable,
        name: Optional[str] = None,
        sensitivity: Optional[Iterable[Event]] = None,
        dont_initialize: bool = False,
    ) -> MethodProcess:
        """Register a plain method of this module as an ``SC_METHOD``."""
        proc_name = f"{self.full_name}.{name or func.__name__}"
        self.sim.register_name(proc_name)
        process = MethodProcess(
            proc_name,
            func,
            self.sim,
            sensitivity=sensitivity,
            dont_initialize=dont_initialize,
        )
        self.sim.scheduler.register_method(process)
        self.processes.append(process)
        return process

    def create_event(self, name: str = "event") -> Event:
        return Event(f"{self.full_name}.{name}", sim=self.sim)

    # ------------------------------------------------------------------
    # Process-body helpers
    # ------------------------------------------------------------------
    def wait(self, duration_or_event, unit: TimeUnit = TimeUnit.NS, timeout=None):
        """Build a wait descriptor (yield the result from a thread body)."""
        return self.sim.wait(duration_or_event, unit=unit, timeout=timeout)

    def next_trigger(self, trigger=None, unit: TimeUnit = TimeUnit.NS) -> None:
        """Dynamic sensitivity for the method process currently running."""
        self.sim.next_trigger(trigger, unit=unit)

    @property
    def now(self) -> SimTime:
        """The global simulated date."""
        return self.sim.now

    def log(self, message: str, local_time: Optional[SimTime] = None) -> None:
        """Record a trace line attributed to the current process.

        Non-decoupled modules log with the global date; decoupled modules
        (see :class:`repro.td.decoupling.DecoupledMixin`) override
        ``local_time`` with the process local date so that the paper's
        trace-equivalence validation can compare the two executions.
        """
        self.sim.log(message, local_time=local_time)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.full_name!r}>"
