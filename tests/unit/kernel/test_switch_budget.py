"""Deterministic call budgets for the two constants of the cost model.

The paper's cost model is host time = context switches x cost per switch
+ words x cost per word.  Smart FIFOs cut the number of switches; this
module guards the two costs.  It counts the Python-level function calls
(``sys.setprofile`` "call" events, generator resumptions included) made
during ``sim.run()`` and divides them by the context switches or by the
words of the run.  Unlike wall time the ratio is noise-free: the same
model always makes the same calls, so a regression of the scheduler,
``sync()``, the timed queue, the FIFO word access or the burst span path
shows up as a hard failure instead of drowning in host jitter.
"""

import sys

import pytest

from repro.kernel import Simulator
from repro.soc import FifoPolicy, SocConfig, SocPlatform
from repro.workloads.streaming import PipelineModel, StreamingConfig, StreamingPipeline

#: The Fig. 5 runs move 4 blocks of 100 words.
FIG5_BLOCKS, FIG5_WORDS_PER_BLOCK = 4, 100


def _count_calls(build):
    """``(calls, context switches)`` of one ``sim.run()``."""
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
    return calls, sim.stats.context_switches


def _fig5(model, depth=1, burst=False):
    config = StreamingConfig(
        n_blocks=FIG5_BLOCKS, words_per_block=FIG5_WORDS_PER_BLOCK,
        fifo_depth=depth,
    )
    return lambda sim: StreamingPipeline(sim, model, config, burst=burst)


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
            "Fig. 5 TDFULL word path, depth 1", _fig5(PipelineModel.TDFULL), 7.5,
            id="fig5_tdfull_word_d1",
        ),
        pytest.param(
            "Fig. 5 TDLESS, depth 1", _fig5(PipelineModel.TDLESS), 5.25,
            id="fig5_tdless_d1",
        ),
        pytest.param(
            "SoC sync-per-access, 1 chain x 64 items", _soc_sync_per_access, 26,
            id="soc_sync_per_access_1x64",
        ),
    ],
)
def test_python_calls_per_context_switch(label, build, budget):
    calls, switches = _count_calls(build)
    ratio = calls / switches
    assert ratio <= budget, (
        f"kernel layer over its per-switch budget on {label}: "
        f"{ratio:.2f} Python calls per context switch (budget {budget}); "
        f"the scheduler, sync() or the timed queue got more expensive"
    )


@pytest.mark.parametrize(
    "label, build, budget",
    [
        pytest.param(
            "Fig. 5 TDFULL word path, depth 64",
            _fig5(PipelineModel.TDFULL, depth=64), 18,
            id="fig5_tdfull_word_d64",
        ),
        pytest.param(
            "Fig. 5 TDFULL burst, depth 64",
            _fig5(PipelineModel.TDFULL, depth=64, burst=True), 12,
            id="fig5_tdfull_burst_d64",
        ),
        pytest.param(
            "Fig. 5 TDFULL burst, depth 1",
            _fig5(PipelineModel.TDFULL, depth=1, burst=True), 37.5,
            id="fig5_tdfull_burst_d1",
        ),
    ],
)
def test_python_calls_per_word(label, build, budget):
    calls, _ = _count_calls(build)
    ratio = calls / (FIG5_BLOCKS * FIG5_WORDS_PER_BLOCK)
    assert ratio <= budget, (
        f"FIFO layer over its per-word budget on {label}: "
        f"{ratio:.2f} Python calls per word (budget {budget}); the word "
        f"access, advance() or the burst span path got more expensive"
    )
