"""Kernel activity counters.

The paper's performance argument is entirely about the number of *context
switches*: a SystemC context switch (suspending one ``SC_THREAD`` and
resuming another) dominates the cost of a finely annotated loosely-timed
model.  In this reproduction a "context switch" is the suspension/resumption
of a generator-based thread process, which is likewise far more expensive
than a plain function call.

:class:`KernelStats` counts those activations (plus method invocations,
delta cycles and timed phases) so that every benchmark can report a
machine-independent explanation of the wall-clock numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class KernelStats:
    """Counters accumulated by the scheduler during a simulation run."""

    #: Number of thread resumptions, i.e. context switches in the paper's
    #: terminology.  The initial start of a thread counts as one activation.
    thread_activations: int = 0
    #: Number of method process invocations (run-to-completion callbacks).
    method_invocations: int = 0
    #: Number of evaluation/update/delta cycles executed.
    delta_cycles: int = 0
    #: Number of times the simulated clock advanced to a new date.
    timed_phases: int = 0
    #: Number of event notifications requested (immediate + delta + timed).
    event_notifications: int = 0
    #: Number of processes created (threads + methods).
    processes_created: int = 0
    #: Per-process activation counts, keyed by hierarchical process name.
    per_process_activations: Dict[str, int] = field(default_factory=dict)

    @property
    def context_switches(self) -> int:
        """Alias of :attr:`thread_activations`, matching the paper's wording."""
        return self.thread_activations

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy of the scalar counters (no per-process map)."""
        # Built directly from the scalar fields: ``asdict`` would deep-copy
        # the whole per-process activation map only to throw it away, which
        # is O(processes) work on what callers treat as a cheap probe.
        return {
            "thread_activations": self.thread_activations,
            "method_invocations": self.method_invocations,
            "delta_cycles": self.delta_cycles,
            "timed_phases": self.timed_phases,
            "event_notifications": self.event_notifications,
            "processes_created": self.processes_created,
            "context_switches": self.thread_activations,
        }

    def top_processes(self, n: int = 5) -> List[Tuple[str, int]]:
        """The ``n`` most-activated processes as ``(name, activations)``.

        Sorted by descending activation count, then name (deterministic
        across runs) — the per-process breakdown behind the paper's
        context-switch argument, printed by the case-study CLI.
        """
        return sorted(
            self.per_process_activations.items(),
            key=lambda item: (-item[1], item[0]),
        )[:n]

    def diff(self, earlier: "KernelStats") -> Dict[str, int]:
        """Return scalar counters accumulated since ``earlier``."""
        now = self.snapshot()
        before = earlier.snapshot()
        return {key: now[key] - before.get(key, 0) for key in now}

    def copy(self) -> "KernelStats":
        clone = KernelStats(
            thread_activations=self.thread_activations,
            method_invocations=self.method_invocations,
            delta_cycles=self.delta_cycles,
            timed_phases=self.timed_phases,
            event_notifications=self.event_notifications,
            processes_created=self.processes_created,
        )
        clone.per_process_activations = dict(self.per_process_activations)
        return clone

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelStats(context_switches={self.thread_activations}, "
            f"methods={self.method_invocations}, deltas={self.delta_cycles}, "
            f"timed={self.timed_phases})"
        )
