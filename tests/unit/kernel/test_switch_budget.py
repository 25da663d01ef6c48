"""A deterministic per-context-switch budget for the kernel layer.

The paper's cost model is host time = context switches x cost per switch.
Smart FIFOs cut the first factor; this module guards the second one.  It
counts the Python-level function calls (``sys.setprofile`` "call" events,
generator resumptions included) made during ``sim.run()`` and divides
them by the context switches of the run.  Unlike wall time the ratio is
noise-free: the same model always makes the same calls, so a regression
of the scheduler, ``sync()`` or the timed queue shows up as a hard
failure instead of drowning in host jitter.
"""

import sys

import pytest

from repro.kernel import Simulator
from repro.soc import FifoPolicy, SocConfig, SocPlatform
from repro.workloads.streaming import PipelineModel, StreamingConfig, StreamingPipeline


def _calls_per_switch(build) -> float:
    sim = Simulator("switch_budget")
    build(sim)
    sim.elaborate()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        sim.run()
    finally:
        sys.setprofile(previous)
    return calls / sim.stats.context_switches


def _fig5(model):
    config = StreamingConfig(n_blocks=4, words_per_block=25, fifo_depth=1)
    return lambda sim: StreamingPipeline(sim, model, config)


def _soc_sync_per_access(sim):
    SocPlatform(
        sim,
        FifoPolicy.SYNC_PER_ACCESS,
        SocConfig.benchmark(n_chains=1, items_per_chain=64),
    )


@pytest.mark.parametrize(
    "label, build, budget",
    [
        pytest.param(
            "Fig. 5 TDFULL word path, depth 1", _fig5(PipelineModel.TDFULL), 18,
            id="fig5_tdfull_word_d1",
        ),
        pytest.param(
            "Fig. 5 TDLESS, depth 1", _fig5(PipelineModel.TDLESS), 16,
            id="fig5_tdless_d1",
        ),
        pytest.param(
            "SoC sync-per-access, 1 chain x 64 items", _soc_sync_per_access, 40,
            id="soc_sync_per_access_1x64",
        ),
    ],
)
def test_python_calls_per_context_switch(label, build, budget):
    ratio = _calls_per_switch(build)
    assert ratio <= budget, (
        f"kernel layer over its per-switch budget on {label}: "
        f"{ratio:.2f} Python calls per context switch (budget {budget}); "
        f"the scheduler, sync() or the timed queue got more expensive"
    )
