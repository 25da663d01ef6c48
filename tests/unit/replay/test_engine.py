"""ReplayEngine and the evaluator helpers around it, one rule at a time.

The property tests replay random models against fresh simulations; this
module pins the engine's argument checks, its self-check against the
recording, its refusals, and the small helpers the sweep router builds
on (group keys, point specs, the validation sample, the replay row).
"""

import copy
from dataclasses import replace

import pytest

from repro.campaign import ScenarioSpec, sweep_point_specs
from repro.campaign.evaluators import (
    EMPTY_TRACE_DIGEST,
    ReplayEvaluator,
    _validation_sample,
    record_spool,
    replay_group_key,
    replay_record,
)
from repro.replay import (
    ReplayEngine,
    ReplayError,
    ReplayInvalid,
    ReplayMismatch,
)

STREAMING = ScenarioSpec(
    name="engine_stream",
    workload="streaming",
    mode="smart",
    depth=4,
    params={"n_blocks": 3, "words_per_block": 10},
)

#: Its monitor samples ``get_size``: shallow replays cannot reproduce the
#: occupancy it saw at depth 8, so they are refused.
RANDOM = ScenarioSpec(
    name="engine_random", workload="random_traffic", mode="smart",
    depth=8, seed=1,
)


@pytest.fixture(scope="module")
def recorded():
    """``(spool, record)`` of the streaming anchor."""
    return record_spool(STREAMING)


@pytest.fixture(scope="module")
def engine(recorded):
    return ReplayEngine(recorded[0])


class TestArguments:
    def test_one_depth_per_fifo_is_required(self, engine):
        assert len(engine.fifos) == 2
        with pytest.raises(ReplayError, match="expected 2 depths, got 1"):
            engine.replay(depths=[4])

    @pytest.mark.parametrize("bad", [0, -3])
    def test_depths_must_be_positive(self, engine, bad):
        with pytest.raises(ReplayError, match="must be positive"):
            engine.replay(depths=[4, bad])

    def test_a_poisoned_spool_is_refused_up_front(self, recorded):
        spool = copy.copy(recorded[0])
        spool.poison = "waited on a signal"
        with pytest.raises(ReplayError, match="not replayable: waited on"):
            ReplayEngine(spool)


class TestSelfCheck:
    def test_self_check_reproduces_the_recorded_run(self, engine, recorded):
        record = recorded[1]
        result = engine.self_check()
        assert result.all_terminated
        assert result.mismatches == []
        assert (result.sim_end_fs, result.context_switches,
                result.delta_cycles) == (
            record.sim_end_fs, record.context_switches, record.delta_cycles
        )

    def test_default_depths_are_the_recorded_ones(self, engine):
        recorded_depths = [meta["depth"] for meta in engine.fifos]
        assert engine.replay() == engine.replay(depths=recorded_depths)

    def test_replays_share_no_state(self, engine):
        shallow = engine.retarget_depths(STREAMING.depth, 1)
        first = engine.replay(depths=shallow)
        engine.replay(depths=engine.retarget_depths(STREAMING.depth, 64))
        assert engine.replay(depths=shallow) == first

    def test_mismatch_message_previews_eight_diffs(self):
        error = ReplayMismatch([f"diff{i}" for i in range(11)])
        assert error.diffs == [f"diff{i}" for i in range(11)]
        assert "diff7; ... 3 more" in str(error)
        assert "diff8" not in str(error)

    def test_a_short_mismatch_has_no_tail(self):
        assert str(ReplayMismatch(["a", "b"])) == (
            "replay diverges from recorded run: a; b"
        )


class TestRetargeting:
    @pytest.mark.parametrize("shallow, deep", [(1, 2), (2, 4), (4, 8),
                                               (8, 64)])
    def test_a_deeper_fifo_never_blocks_more(self, engine, shallow, deep):
        def waits(depth):
            return engine.replay(
                depths=engine.retarget_depths(STREAMING.depth, depth)
            ).blocking_waits

        assert waits(deep) <= waits(shallow)

    def test_only_fifos_at_the_anchor_depth_are_retargeted(self, engine):
        aux = copy.copy(engine)
        aux.fifos = [dict(engine.fifos[0]), dict(engine.fifos[1], depth=1)]
        assert aux.retarget_depths(STREAMING.depth, 16) == [16, 1]

    def test_a_probe_free_recording_has_an_unbounded_envelope(self, engine):
        for entry in engine.depth_envelope():
            assert entry["anchor_depth"] == STREAMING.depth
            assert (entry["min_depth"], entry["max_depth"]) == (None, None)

    def test_an_unreproducible_probe_is_refused_with_its_origin(self):
        evaluator = ReplayEvaluator(RANDOM)
        with pytest.raises(ReplayInvalid) as refused:
            evaluator.replay_point(replace(RANDOM, name="p", depth=1))
        assert (refused.value.process, refused.value.fifo,
                refused.value.construct) == ("monitor.run", "fifo", "get_size")
        # Deeper points stay inside the envelope.
        deep = evaluator.replay_point(replace(RANDOM, name="q", depth=64))
        assert deep.all_terminated


class TestEvaluatorHelpers:
    def test_group_key_ignores_name_depth_and_quantum(self):
        moved = replace(STREAMING, name="other", depth=9, quantum_ns=5)
        assert replay_group_key(moved) == replay_group_key(STREAMING)

    @pytest.mark.parametrize("change", [
        {"seed": 2}, {"mode": "reference"}, {"params": {"n_blocks": 4}},
    ])
    def test_group_key_separates_other_programs(self, change):
        assert replay_group_key(replace(STREAMING, **change)) != (
            replay_group_key(STREAMING)
        )

    def test_point_specs_are_named_and_skip_the_anchor(self):
        points = sweep_point_specs(STREAMING, depths=[1, 4, 16])
        assert [(p.name, p.depth) for p in points] == [
            ("engine_stream_d1", 1), ("engine_stream_d16", 16),
        ]
        points[0].params["n_blocks"] = 99
        assert STREAMING.params["n_blocks"] == 3

    def test_quantum_points_need_a_quantum_anchor(self):
        with pytest.raises(ReplayError, match="timing='quantum' anchor"):
            sweep_point_specs(STREAMING, quanta_ns=[10])
        anchor = replace(STREAMING, timing="quantum", quantum_ns=10)
        assert [p.name for p in sweep_point_specs(
            anchor, quanta_ns=[10, 20]
        )] == ["engine_stream_q20ns"]

    @pytest.mark.parametrize("count, validate, picked", [
        (5, 0, []),
        (0, 3, []),
        (4, 9, [0, 1, 2, 3]),
        (10, 1, [0]),
        (10, 3, [0, 3, 6]),
        (7, 2, [0, 3]),
    ])
    def test_validation_sample(self, count, validate, picked):
        assert _validation_sample(count, validate) == picked

    def test_replay_record_carries_replay_observables(self, engine):
        point = replace(STREAMING, name="engine_stream_d1", depth=1)
        result = engine.replay(
            depths=engine.retarget_depths(STREAMING.depth, 1)
        )
        record = replay_record(point, result, wall=0.5)
        row = record.deterministic_row()
        assert row["evaluator"] == "replay"
        assert (row["trace_lines"], row["trace_digest"]) == (
            0, EMPTY_TRACE_DIGEST
        )
        assert row["extra"] == {
            "blocking_waits": result.blocking_waits,
            "timed_phases": result.timed_phases,
            "all_terminated": True,
        }
        assert (row["name"], row["depth"]) == ("engine_stream_d1", 1)

    @pytest.mark.parametrize("change, field", [
        ({"seed": 5}, "seed"),
        ({"mode": "reference"}, "mode"),
    ])
    def test_a_point_may_only_move_depth_and_quantum(self, recorded, change,
                                                     field):
        evaluator = ReplayEvaluator(STREAMING, spool=recorded[0])
        with pytest.raises(ReplayError, match=f"changes '{field}'"):
            evaluator.replay_point(replace(STREAMING, name="p", **change))

    def test_a_point_with_other_params_is_refused(self, recorded):
        evaluator = ReplayEvaluator(STREAMING, spool=recorded[0])
        point = replace(STREAMING, name="p", params={"n_blocks": 4,
                                                      "words_per_block": 10})
        with pytest.raises(ReplayError, match="changes params"):
            evaluator.replay_point(point)
