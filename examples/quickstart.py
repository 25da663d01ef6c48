#!/usr/bin/env python3
"""Quickstart: the Fig. 1/2/3 example of the paper.

Builds a two-process model (a writer producing a value every 20 ns, a
reader consuming one every 15 ns) communicating through a FIFO, and runs it
three times:

1. **reference** — regular FIFO, no temporal decoupling (`wait` per
   annotation).  This is the timing ground truth (Fig. 2).
2. **naively decoupled** — the processes accumulate local time with
   ``inc()`` but never synchronize; every FIFO access happens at the global
   date 0 and the reader's dates are wrong (Fig. 3).
3. **Smart FIFO** — same decoupled processes, but the FIFO is aware of the
   local dates (Section III).  The dates are exactly the reference ones
   while the kernel performs almost no context switch.

Run with::

    python examples/quickstart.py
"""

from repro.analysis.trace_diff import compare_collectors
from repro.kernel import Simulator
from repro.workloads import ExampleMode, WriterReaderExample


def run_mode(mode: ExampleMode):
    sim = Simulator(mode.value)
    example = WriterReaderExample(sim, mode=mode)
    example.run()
    return sim, example


def describe(mode: ExampleMode, sim: Simulator, example: WriterReaderExample) -> None:
    print(f"--- {mode.value}")
    for value, write_ns, read_ns in example.dates_ns():
        print(f"  value {value}: written at {write_ns:g} ns, read at {read_ns:g} ns")
    print(f"  context switches: {sim.stats.context_switches}")
    print(f"  final kernel date: {sim.now}")
    print()


def main() -> None:
    results = {}
    for mode in ExampleMode:
        sim, example = run_mode(mode)
        results[mode] = (sim, example)
        describe(mode, sim, example)

    reference_sim, reference = results[ExampleMode.REFERENCE]
    smart_sim, smart = results[ExampleMode.SMART]
    naive_sim, naive = results[ExampleMode.DECOUPLED_NO_SYNC]

    assert smart.dates_ns() == reference.dates_ns(), "Smart FIFO changed the timing!"
    assert naive.dates_ns() != reference.dates_ns(), "naive decoupling should be wrong"

    comparison = compare_collectors(reference_sim.trace, smart_sim.trace)
    print("trace equivalence (reference vs Smart FIFO):", comparison.report())
    print(
        "context switches: reference =",
        reference_sim.stats.context_switches,
        "| smart =",
        smart_sim.stats.context_switches,
        "| naive =",
        naive_sim.stats.context_switches,
    )


if __name__ == "__main__":
    main()
