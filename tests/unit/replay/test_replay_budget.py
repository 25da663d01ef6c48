"""Deterministic call budget of the replay engine, per recorded op.

Replay prices a sweep point without a scheduler: it re-executes the
recorded programs, so its host cost is a floor per op plus the cost of
each emulated context switch.  This module counts the Python-level
function calls (``sys.setprofile`` "call" and "c_call" events) made during
one :meth:`ReplayEngine.replay` and divides them by the recorded ops.
Like the kernel budgets in ``tests/unit/kernel/test_switch_budget.py``
the ratio is noise-free, so a replay change that makes the op loop or
the emulated switch dearer fails here instead of drowning in host jitter.

The anchor is a 20-block x 100-word streaming pipeline recorded at depth
8 (8,002 ops).  At depth 1 every word blocks, so the count is dominated
by emulated switches; at depth 64 almost none block and the op loop's
floor is what is left.
"""

import sys

import pytest

from repro.campaign import ScenarioSpec, record_spool
from repro.replay import ReplayEngine

ANCHOR = ScenarioSpec(
    "streaming_20x100", "streaming", depth=8,
    params={"n_blocks": 20, "words_per_block": 100},
)


@pytest.fixture(scope="module")
def engine():
    spool, _ = record_spool(ANCHOR)
    engine = ReplayEngine(spool)
    engine.self_check()
    return engine


@pytest.mark.parametrize(
    "depth, switches, budget",
    [
        pytest.param(1, 9798, 7.0, id="depth_1"),
        pytest.param(64, 146, 1.15, id="depth_64"),
    ],
)
def test_python_calls_per_replayed_op(engine, depth, switches, budget):
    ops = sum(len(program) for program in engine.spool.programs.values())
    assert ops == 8002
    depths = engine.retarget_depths(ANCHOR.depth, depth)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = engine.replay(depths=depths)
    finally:
        sys.setprofile(previous)
    # The same work every time: the switch count pins the denominator.
    assert result.context_switches == switches
    ratio = calls / ops
    assert ratio <= budget, (
        f"replay over its per-op budget at depth {depth}: {ratio:.2f} "
        f"Python calls per recorded op (budget {budget}); the op loop or "
        f"the emulated context switch got more expensive"
    )
