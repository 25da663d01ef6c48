"""Deterministic call budget of the replay engine, per recorded op.

Replay prices a sweep point without a scheduler: it re-executes the
recorded programs, so its host cost is a floor per op plus the cost of
each emulated context switch, less whatever the periodic fast-forward
skips.  This module counts the Python-level function calls
(``sys.setprofile`` "call" and "c_call" events) made during one
:meth:`ReplayEngine.replay` and divides them by the recorded ops.  Like
the kernel budgets in ``tests/unit/kernel/test_switch_budget.py`` the
ratio is noise-free, so a replay change that makes the op loop, the
emulated switch or the fast-forward's probes dearer fails here instead of
drowning in host jitter.

Two kinds of recording are pinned:

* the dense sweep's periodic streaming anchor (100 blocks x 100 words,
  40,002 ops), whose schedule repeats early at depths 1 and 64, so the
  fast-forward skips most of its ops;
* recordings the fast-forward cannot shorten, which measure the
  interpreter itself: a bursty producer (80 bursts, seed 3) at depth 1,
  whose random idle gaps never repeat and where every word blocks, and
  a 20 x 100-word streaming anchor at depth 64, whose 2,000 words are
  too few for two of that depth's 1,600-word periods, which leaves the
  op loop's floor.
"""

import sys

import pytest

from repro.campaign import ScenarioSpec, record_spool
from repro.replay import ReplayEngine

PERIODIC = ScenarioSpec(
    "streaming_100x100", "streaming", depth=8, burst=True,
    params={"n_blocks": 100, "words_per_block": 100},
)
BURSTY = ScenarioSpec(
    "bursty_80_s3", "bursty", depth=4, seed=3, params={"n_bursts": 80},
)
SHORT_STREAM = ScenarioSpec(
    "streaming_20x100", "streaming", depth=8,
    params={"n_blocks": 20, "words_per_block": 100},
)

_ENGINES = {}


def _engine(spec):
    if spec.name not in _ENGINES:
        spool, _ = record_spool(spec)
        engine = ReplayEngine(spool)
        engine.self_check()
        engine.body_periods  # computed once per recording, not per point
        _ENGINES[spec.name] = engine
    return _ENGINES[spec.name]


def _calls_per_op(spec, depth):
    engine = _engine(spec)
    ops = sum(len(program) for program in engine.spool.programs.values())
    depths = engine.retarget_depths(spec.depth, depth)
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
    return ops, result, calls / ops


@pytest.mark.parametrize(
    "spec, depth, ops, switches, skips, budget",
    [
        # Periodic: 0.30 and 0.90 calls per op (6.67 and 1.09 without
        # the fast-forward).
        pytest.param(PERIODIC, 1, 40002, 48998, True, 0.35,
                     id="periodic_depth_1"),
        pytest.param(PERIODIC, 64, 40002, 726, True, 0.95,
                     id="periodic_depth_64"),
        # Interpreter: 8.27 and 1.095 calls per op before the fast-forward
        # existed; its gate check and rare probes add 8.32 and 1.11.
        pytest.param(BURSTY, 1, 938, 1329, False, 8.6,
                     id="interpreter_bursty_depth_1"),
        pytest.param(SHORT_STREAM, 64, 8002, 146, False, 1.15,
                     id="interpreter_floor_depth_64"),
    ],
)
def test_python_calls_per_replayed_op(spec, depth, ops, switches, skips,
                                      budget):
    recorded, result, ratio = _calls_per_op(spec, depth)
    assert recorded == ops
    # The same work every time: the switch count pins the denominator.
    assert result.context_switches == switches
    assert (result.ops_skipped > 0) == skips
    assert ratio <= budget, (
        f"replay of {spec.name} over its per-op budget at depth {depth}: "
        f"{ratio:.2f} Python calls per recorded op (budget {budget}); the "
        f"op loop, the emulated context switch or the fast-forward got "
        f"more expensive"
    )
