"""The replay's periodic fast-forward.

A replay that reaches an exactly periodic schedule jumps over whole
periods instead of interpreting them (``_Emulator._probe``).  Check mode
never jumps, so every test here holds a fast-forwarded replay against the
check-mode replay of the same point: they must agree on every
:class:`ReplayResult` field but ``mismatches``, which only check mode
fills.
"""

import json
from dataclasses import fields, replace

import pytest

from repro.campaign import ScenarioSpec, record_spool
from repro.campaign.evaluators import replay_record, route_group
from repro.campaign.scenarios import default_campaign
from repro.replay import ReplayEngine, ReplayResult
from repro.telemetry import Telemetry

#: The dense sweep's streaming anchor: 100 blocks of 100 words.
STREAMING = ScenarioSpec(
    "streaming_100x100", "streaming", depth=8, burst=True,
    params={"n_blocks": 100, "words_per_block": 100},
)
CAMPAIGN = {spec.name: spec for spec in default_campaign()}

COMPARED = [f.name for f in fields(ReplayResult) if f.name != "mismatches"]


def _engine(spec):
    spool, _ = record_spool(spec)
    return ReplayEngine(spool)


@pytest.fixture(scope="module")
def streaming():
    return _engine(STREAMING)


def _replay_both(engine, anchor_depth, depth):
    depths = engine.retarget_depths(anchor_depth, depth)
    return (
        engine.replay(depths=depths),
        engine.replay(depths=depths, check_dates=True),
    )


def _assert_same_result(fast, check):
    for name in COMPARED:
        assert getattr(fast, name) == getattr(check, name), name


@pytest.mark.parametrize("depth", [1, 16, 64])
def test_the_jump_engages_on_the_periodic_streaming_anchor(streaming,
                                                           depth):
    fast, check = _replay_both(streaming, STREAMING.depth, depth)
    assert fast.ops_skipped > 0
    assert check.ops_skipped == 0
    _assert_same_result(fast, check)


@pytest.mark.parametrize(
    "spec, depth",
    [
        # The jump's count is tight in both: one period more would carry
        # a thread out of the body the period repeats, onto or past its
        # program's last op.
        pytest.param(CAMPAIGN["video_d8"], 3, id="video_d8_at_3"),
        pytest.param(STREAMING, 9, id="streaming_100x100_at_9"),
    ],
)
def test_a_jump_that_ends_near_a_program_end_matches_check_mode(
    streaming, spec, depth
):
    engine = streaming if spec is STREAMING else _engine(spec)
    fast, check = _replay_both(engine, spec.depth, depth)
    assert fast.ops_skipped > 0
    _assert_same_result(fast, check)


@pytest.mark.parametrize(
    "name, why",
    [
        ("random_s7_d3", "branch probes read occupancy"),
        ("contention_3w3r", "arbiter grants and capacity waits"),
    ],
)
def test_the_jump_stays_off_outside_its_scope(name, why):
    engine = _engine(CAMPAIGN[name])
    assert engine.body_periods is None, why
    assert engine.replay().ops_skipped == 0


def test_ops_skipped_takes_no_part_in_equality_or_rows(streaming):
    """It says how a result was computed, not what the result is."""
    fast, check = _replay_both(streaming, STREAMING.depth, 4)
    assert fast.ops_skipped > 0
    assert check.ops_skipped == 0
    assert fast == replace(check, mismatches=fast.mismatches)
    point = replace(STREAMING, name="streaming_100x100_d4", depth=4)
    row = replay_record(point, fast, 0.0).deterministic_row()
    assert "ops_skipped" not in json.dumps(row)


def test_the_router_counts_skipped_ops_in_the_sideband():
    anchor = ScenarioSpec(
        "streaming_30x20", "streaming", depth=4,
        params={"n_blocks": 30, "words_per_block": 20},
    )
    points = [replace(anchor, name=f"streaming_30x20_d{depth}", depth=depth)
              for depth in (1, 2)]
    telemetry = Telemetry("unit")
    route_group(anchor, points, validate=0, telemetry=telemetry)
    counters = {
        event["name"]: event["value"] for event in telemetry.drain()
        if event["kind"] == "counter"
    }
    engine = _engine(anchor)
    expected = sum(
        engine.replay(depths=engine.retarget_depths(4, point.depth))
        .ops_skipped for point in points
    )
    assert counters["replay.ops_skipped"] == expected > 0


def test_body_periods_are_found_by_op_identity(streaming):
    # source and sink repeat one op; the transmitter's block of 100 words
    # (a read and a write each) starts with a longer gap.
    assert streaming.body_periods == [1, 200, 1]
