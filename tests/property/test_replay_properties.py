"""Property tests for the record-and-replay evaluator.

The replay engine's contract is *exactness*: replaying one recorded
anchor at any other (depth, quantum) point must reproduce, bit for bit,
what a fresh scheduler run at that point would report — end date, kernel
counters, per-FIFO totals and blocking waits, every per-word completion
date and the final per-process local times.  These tests draw random
retarget points for several workloads in both sync modes and diff the
replay against a freshly recorded simulation of the same point.

Local times are compared in registration order (``list(d.values())``):
pids are numbered globally across simulators, so pid-keyed comparison
would be wrong between two runs.  :func:`compare_replay_to_spool`
encodes that rule; these tests go through it on purpose.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    MODE_REFERENCE,
    MODE_SMART,
    CampaignRunner,
    ReplayEvaluator,
    ScenarioSpec,
    compare_replay_to_spool,
    record_spool,
    sweep_point_specs,
)
from repro.campaign.evaluators import route_group
from repro.replay import ReplayEngine, ReplayInvalid, ReplayResult

#: Replayable workloads with small fixed sizes (kept modest: every
#: hypothesis example runs two full simulations plus two replays).
WORKLOADS = (
    ("writer_reader", {"values": 5}),
    ("streaming", {"n_blocks": 3, "words_per_block": 8}),
    ("fault_drop", {"item_count": 16}),
    ("mixed", {"item_count": 18}),
)


def _anchor(workload, params, mode, depth, quantum_ns=None, timing=None):
    return ScenarioSpec(
        name=f"prop_{workload}_{mode}",
        workload=workload,
        mode=mode,
        depth=depth,
        quantum_ns=quantum_ns,
        timing=timing,
        params=dict(params),
    )


def _assert_replay_matches_fresh(anchor, point):
    """Record ``anchor``, replay it at ``point``, diff against a fresh run."""
    spool, _ = record_spool(anchor)
    assert spool.poison is None, spool.poison
    evaluator = ReplayEvaluator(anchor, spool=spool)
    replayed = evaluator.replay_point(point)

    fresh_spool, _ = record_spool(point)
    assert fresh_spool.poison is None, fresh_spool.poison
    fresh_result = ReplayEngine(fresh_spool).self_check()
    diffs = compare_replay_to_spool(replayed, fresh_spool, fresh_result)
    assert not diffs, (
        f"replay of {anchor.label} at {point.label} diverges: "
        + "; ".join(diffs[:6])
    )


@settings(max_examples=10, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
    mode=st.sampled_from((MODE_REFERENCE, MODE_SMART)),
    anchor_depth=st.integers(min_value=1, max_value=12),
    target_depth=st.integers(min_value=1, max_value=24),
)
def test_depth_retarget_matches_fresh_simulation(
    index, mode, anchor_depth, target_depth
):
    """Any recorded anchor replayed at any depth == a fresh run there."""
    workload, params = WORKLOADS[index]
    anchor = _anchor(workload, params, mode, anchor_depth)
    point = replace(
        anchor,
        name=f"{anchor.name}_d{target_depth}",
        depth=target_depth,
        params=dict(anchor.params),
    )
    _assert_replay_matches_fresh(anchor, point)


@settings(max_examples=10, deadline=None)
@given(
    anchor_depth=st.integers(min_value=1, max_value=12),
    anchor_quantum_ns=st.sampled_from((1, 10, 100, 1000)),
    target_quantum_ns=st.sampled_from((1, 5, 10, 50, 100, 1000, 100000)),
)
def test_quantum_retarget_matches_fresh_simulation(
    anchor_depth, anchor_quantum_ns, target_quantum_ns
):
    """Quantum-decoupled anchors replay exactly at any other quantum."""
    anchor = _anchor(
        "streaming",
        {"n_blocks": 3, "words_per_block": 8},
        MODE_SMART,
        anchor_depth,
        quantum_ns=anchor_quantum_ns,
        timing="quantum",
    )
    point = replace(
        anchor,
        name=f"{anchor.name}_q{target_quantum_ns}ns",
        quantum_ns=target_quantum_ns,
        params=dict(anchor.params),
    )
    _assert_replay_matches_fresh(anchor, point)


# ---------------------------------------------------------------------------
# Conditional workloads: get_size replay inside the validity envelope
# ---------------------------------------------------------------------------
#: Workloads whose monitor samples ``get_size``: their recordings carry
#: the levels it saw, and a retarget is only honoured where replay
#: re-derives the same levels (the recording's validity envelope).
CONDITIONAL_WORKLOADS = (
    ("random_traffic", {"item_count": 14, "monitor_samples": 3}),
)


@settings(max_examples=8, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(CONDITIONAL_WORKLOADS) - 1),
    mode=st.sampled_from((MODE_REFERENCE, MODE_SMART)),
    seed=st.sampled_from((1, 3, 7, 11)),
    anchor_depth=st.integers(min_value=2, max_value=10),
    target_depth=st.integers(min_value=1, max_value=24),
)
def test_conditional_retarget_exact_or_invalid(
    index, mode, seed, anchor_depth, target_depth
):
    """The ``get_size`` contract: a conditional-workload retarget either
    reproduces a fresh simulation bit for bit, or refuses with
    :class:`ReplayInvalid` — it never silently diverges."""
    workload, params = CONDITIONAL_WORKLOADS[index]
    anchor = replace(
        _anchor(workload, params, mode, anchor_depth),
        seed=seed,
        params=dict(params),
    )
    point = replace(
        anchor,
        name=f"{anchor.name}_d{target_depth}",
        depth=target_depth,
        params=dict(anchor.params),
    )
    spool, _ = record_spool(anchor)
    assert spool.poison is None, spool.poison
    evaluator = ReplayEvaluator(anchor, spool=spool)
    try:
        replayed = evaluator.replay_point(point)
    except ReplayInvalid as exc:
        # Out of the envelope: the refusal must name what broke and where.
        assert exc.construct and exc.process, str(exc)
        return
    fresh_spool, _ = record_spool(point)
    assert fresh_spool.poison is None, fresh_spool.poison
    fresh_result = ReplayEngine(fresh_spool).self_check()
    diffs = compare_replay_to_spool(replayed, fresh_spool, fresh_result)
    assert not diffs, (
        f"replay of {anchor.label} at {point.label} diverges: "
        + "; ".join(diffs[:6])
    )


@pytest.mark.parametrize("mode", (MODE_REFERENCE, MODE_SMART))
@pytest.mark.parametrize(
    "workload,params",
    [(name, params) for name, params in CONDITIONAL_WORKLOADS],
)
def test_conditional_full_sweep_validates_in_envelope(workload, params, mode):
    """Validate-everywhere over a conditional sweep: every point the engine
    accepts must match a fresh simulation; refusals fall back to plain
    simulated rows and are reported, never silently wrong."""
    anchor = replace(
        _anchor(workload, params, mode, depth=8),
        seed=3,
        params=dict(params),
    )
    depths = (2, 4, 6, 12, 16)
    points = sweep_point_specs(anchor, depths)
    route = route_group(anchor, points, validate=len(depths))
    refused = {name for name, _ in route.invalid_points}
    assert route.validations == [
        point.name for point in points if point.name not in refused
    ]
    result = CampaignRunner(
        workers=1, paired=False, auto_replay=True,
        auto_replay_validate=len(depths),
    ).run([anchor] + points)
    rows = {row.name: row for row in result.runs if row.name != anchor.name}
    assert set(rows) == {f"{anchor.name}_d{d}" for d in depths}
    for name, row in rows.items():
        assert row.evaluator == ("simulate" if name in refused else "replay")
    # The interesting half of the contract needs at least some replays.
    assert len(refused) < len(depths)


def test_out_of_envelope_raises_replay_invalid():
    """A retarget that would change a recorded ``get_size`` level refuses
    loudly (at depth 1 the random-traffic monitor sees other levels)."""
    anchor = ScenarioSpec(
        name="prop_envelope",
        workload="random_traffic",
        mode=MODE_SMART,
        depth=8,
        seed=3,
    )
    evaluator = ReplayEvaluator(anchor, record_spool(anchor)[0])
    point = replace(anchor, name="prop_envelope_d1", depth=1,
                    params=dict(anchor.params))
    with pytest.raises(ReplayInvalid) as err:
        evaluator.replay_point(point)
    assert "validity envelope" in str(err.value)


@pytest.mark.parametrize("mode", (MODE_REFERENCE, MODE_SMART))
@pytest.mark.parametrize(
    "workload,params",
    [(name, params) for name, params in WORKLOADS],
)
def test_full_sweep_validates_everywhere(workload, params, mode):
    """The router cross-validates *every* point without a diff."""
    anchor = _anchor(workload, params, mode, depth=4)
    depths = (1, 2, 8, 16)
    points = sweep_point_specs(anchor, depths)
    route = route_group(anchor, points, validate=len(depths))
    assert route.validations == [point.name for point in points]
    replayed = [row for row in route.rows if row.evaluator == "replay"]
    assert len(replayed) == len(depths)
    assert all(row.name.startswith(anchor.name) for row in replayed)


# ---------------------------------------------------------------------------
# Periodic fast-forward: the jump never changes a result
# ---------------------------------------------------------------------------
#: ``ReplayResult`` fields a fast-forwarded replay must reproduce (check
#: mode alone fills ``mismatches``).
RESULT_FIELDS = [f.name for f in fields(ReplayResult) if f.name != "mismatches"]


@st.composite
def _periodic_anchors(draw):
    """A small anchor of a workload whose schedule can turn periodic."""
    workload = draw(st.sampled_from(
        ("streaming", "video", "bursty", "writer_reader")
    ))
    mode = draw(st.sampled_from((MODE_REFERENCE, MODE_SMART)))
    depth = draw(st.integers(min_value=1, max_value=8))
    seed = None
    timing = quantum_ns = None
    if workload == "streaming":
        params = {
            "n_blocks": draw(st.integers(min_value=1, max_value=12)),
            "words_per_block": draw(st.integers(min_value=1, max_value=30)),
        }
        if mode == MODE_SMART and draw(st.booleans()):
            timing = "quantum"
            quantum_ns = draw(st.sampled_from((1, 10, 30, 100)))
    elif workload == "video":
        params = {
            "n_frames": draw(st.integers(min_value=1, max_value=6)),
            "macroblocks_per_frame": draw(st.integers(min_value=1,
                                                      max_value=12)),
        }
    elif workload == "bursty":
        idle = draw(st.integers(min_value=0, max_value=120))
        params = {
            "n_bursts": draw(st.integers(min_value=1, max_value=16)),
            "max_burst": draw(st.integers(min_value=1, max_value=8)),
            "min_idle_ns": idle,
            "max_idle_ns": idle + draw(st.sampled_from((0, 0, 40))),
        }
        seed = draw(st.integers(min_value=1, max_value=50))
    else:
        params = {"values": draw(st.integers(min_value=1, max_value=60))}
    return ScenarioSpec(
        name=f"ff_{workload}", workload=workload, mode=mode, depth=depth,
        seed=seed, timing=timing, quantum_ns=quantum_ns, params=params,
    )


@settings(max_examples=40, deadline=None)
@given(
    anchor=_periodic_anchors(),
    depths=st.lists(st.integers(min_value=1, max_value=70), min_size=1,
                    max_size=4),
    quantum_ns=st.sampled_from((None, 1, 7, 25, 1000)),
)
def test_fast_forward_matches_check_mode(anchor, depths, quantum_ns):
    """``replay()`` jumps over periods where it can; ``check_dates=True``
    never does.  Both must give the same result at every point."""
    spool, _ = record_spool(anchor)
    assert spool.poison is None, spool.poison
    engine = ReplayEngine(spool)
    quantum_fs = None if quantum_ns is None else quantum_ns * 10 ** 6
    for depth in depths:
        targets = engine.retarget_depths(anchor.depth, depth)
        fast = engine.replay(depths=targets, quantum_fs=quantum_fs)
        check = engine.replay(depths=targets, quantum_fs=quantum_fs,
                              check_dates=True)
        assert check.ops_skipped == 0
        for name in RESULT_FIELDS:
            assert getattr(fast, name) == getattr(check, name), (
                f"{anchor.label} at depth {depth}: {name} differs after "
                f"skipping {fast.ops_skipped} ops"
            )
