"""Run measurement helpers.

The evaluation section of the paper reports wall-clock execution durations
(Fig. 5, Section IV-C).  Wall-clock numbers are machine dependent, so every
measurement in this reproduction also records the kernel activity counters
(context switches in particular), which explain the wall-clock shape in a
machine-independent way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel.simtime import SimTime
from ..kernel.simulator import Simulator


@dataclass
class RunResult:
    """Measurements of one simulation run."""

    label: str
    wall_seconds: float
    sim_end: SimTime
    context_switches: int
    method_invocations: int
    delta_cycles: int
    timed_phases: int
    #: Free-form additional metrics provided by the scenario.
    extra: Dict[str, float] = field(default_factory=dict)
    #: The most-activated processes as ``(name, activations)`` — the
    #: per-process breakdown behind the context-switch totals above.
    top_processes: List[Tuple[str, int]] = field(default_factory=list)

    def gain_percent_vs(self, other: "RunResult") -> float:
        """Relative wall-clock gain of this run versus ``other`` (in %).

        The paper reports the case-study result this way: 38.0 s -> 21.9 s
        is a gain of 42.3 %.
        """
        if other.wall_seconds == 0:
            return 0.0
        return 100.0 * (other.wall_seconds - self.wall_seconds) / other.wall_seconds

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "label": self.label,
            "wall_seconds": round(self.wall_seconds, 4),
            "context_switches": self.context_switches,
            "method_invocations": self.method_invocations,
            "delta_cycles": self.delta_cycles,
            "sim_end": str(self.sim_end),
        }
        row.update(self.extra)
        return row


def measure_run(
    label: str,
    setup: Callable[[Simulator], object],
    extra_metrics: Optional[Callable[[Simulator, object], Dict[str, float]]] = None,
) -> RunResult:
    """Build a simulator, run the scenario returned by ``setup``, time it.

    ``setup(sim)`` must build the model and return an object with a
    ``run()`` method (or None, in which case ``sim.run()`` is called).
    ``extra_metrics(sim, scenario)`` may add scenario-specific numbers.
    """
    sim = Simulator(label)
    scenario = setup(sim)
    start = time.perf_counter()
    if scenario is not None and hasattr(scenario, "run"):
        scenario.run()
    else:
        sim.run()
    wall = time.perf_counter() - start
    stats = sim.stats
    extra = extra_metrics(sim, scenario) if extra_metrics else {}
    return RunResult(
        label=label,
        wall_seconds=wall,
        sim_end=sim.now,
        context_switches=stats.thread_activations,
        method_invocations=stats.method_invocations,
        delta_cycles=stats.delta_cycles,
        timed_phases=stats.timed_phases,
        extra=extra,
        top_processes=stats.top_processes(8),
    )
