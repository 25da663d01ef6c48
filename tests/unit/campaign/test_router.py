"""The one replay router behind every sweep (the campaign's auto-replay).

Pins what :func:`repro.campaign.evaluators.route_group` promises: which
replayed points it cross-validates, that it holds at most ``validate + 1``
replay results (each carrying every per-word date) at any time, and that
the router and the campaign that drives it refuse a bad validation run
with the same error.
"""

import weakref

import pytest

from repro.campaign import CampaignRunner, ScenarioSpec, sweep_point_specs
from repro.campaign import evaluators
from repro.campaign.evaluators import _validation_sample, route_group
from repro.replay import ReplayEngine, ReplayError

STREAMING_ANCHOR = ScenarioSpec(
    name="router_stream",
    workload="streaming",
    mode="smart",
    depth=4,
    params={"n_blocks": 3, "words_per_block": 10},
)

#: ``get_size``-recording anchor: its validity envelope refuses depths 1
#: and 2, where its monitor sees other levels than at depth 8.
RANDOM_ANCHOR = ScenarioSpec(
    name="router_random",
    workload="random_traffic",
    mode="smart",
    depth=8,
    seed=1,
)


def _via_router(anchor, depths, validate):
    return route_group(anchor, sweep_point_specs(anchor, depths), validate)


def _via_campaign(anchor, depths, validate):
    specs = [anchor] + sweep_point_specs(anchor, depths)
    return CampaignRunner(
        workers=1, paired=False, auto_replay=True,
        auto_replay_validate=validate,
    ).run(specs)


class TestRetention:
    @pytest.mark.parametrize("entry", [_via_router, _via_campaign])
    @pytest.mark.parametrize("validate", [1, 3])
    def test_live_results_never_exceed_validate_plus_one(
        self, monkeypatch, entry, validate
    ):
        live = []
        peak = [0]
        replay = ReplayEngine.replay

        def counting_replay(engine, *args, **kwargs):
            result = replay(engine, *args, **kwargs)
            live.append(weakref.ref(result))
            peak[0] = max(peak[0], sum(ref() is not None for ref in live))
            return result

        monkeypatch.setattr(ReplayEngine, "replay", counting_replay)
        depths = range(1, 26)
        entry(STREAMING_ANCHOR, depths, validate)
        # Anchor self-check + 24 points + `validate` fresh self-checks.
        assert len(live) == 1 + 24 + validate
        assert 2 <= peak[0] <= validate + 1


class TestPickRule:
    def test_validate_one_checks_the_first_replayed_point(self):
        points = sweep_point_specs(RANDOM_ANCHOR, range(1, 24))
        route = route_group(RANDOM_ANCHOR, points, 1)
        refused = {name for name, _ in route.invalid_points}
        assert refused == {"router_random_d1", "router_random_d2"}
        assert route.validations == ["router_random_d3"]

    @pytest.mark.parametrize("validate", [1, 2, 3, 9])
    def test_without_refusals_the_even_sample_is_checked(self, validate):
        points = sweep_point_specs(STREAMING_ANCHOR, range(1, 11))
        route = route_group(STREAMING_ANCHOR, points, validate)
        assert not route.invalid_points
        expected = [
            points[i].name for i in _validation_sample(len(points), validate)
        ]
        assert route.validations == expected
        if validate == 3:
            # 9 points, 3 picks: positions 0, 3 and 6 (depths 1, 5, 8).
            assert expected == [
                "router_stream_d1", "router_stream_d5", "router_stream_d8",
            ]

    @pytest.mark.parametrize("validate", [1, 3, 7, 22])
    def test_refusals_at_the_head_shift_picks_forward(self, validate):
        points = sweep_point_specs(RANDOM_ANCHOR, range(1, 24))
        route = route_group(RANDOM_ANCHOR, points, validate)
        replayed = [
            index for index, row in enumerate(route.rows[1:])
            if row is not None
        ]
        assert len(replayed) == len(points) - 2
        picked = [
            index for index, point in enumerate(points)
            if point.name in route.validations
        ]
        assert len(picked) == min(validate, len(replayed))
        positions = _validation_sample(len(points), validate)
        for index, position in zip(picked, positions):
            assert index >= position
            assert route.rows[1 + index] is not None

    def test_refusals_at_the_tail_fall_back_on_the_latest_points(self):
        # Descending grid: the refused depths 2 and 1 are the last points,
        # and the last sampled position (20) lands on one of them.
        points = sweep_point_specs(RANDOM_ANCHOR, range(23, 0, -1))
        route = route_group(RANDOM_ANCHOR, points, 11)
        assert [name for name, _ in route.invalid_points] == [
            "router_random_d2", "router_random_d1",
        ]
        names = route.validations
        assert len(names) == 11
        assert names[-1] == "router_random_d3"

    def test_unreplayable_anchor_is_reported_not_raised(self):
        soc = ScenarioSpec(
            "router_soc", "soc", depth=8,
            params={"n_chains": 1, "items_per_chain": 16},
        )
        route = route_group(soc, sweep_point_specs(soc, (2, 8)), 1)
        assert isinstance(route.unreplayable, ReplayError)
        # The anchor's simulated row is kept: nothing simulates it again.
        assert [(row.name, row.evaluator) for row in route.rows] == [
            ("router_soc", "simulate"),
        ]
        assert route.validations == [] and route.invalid_points == []


class TestPoisonedValidation:
    def test_both_entry_points_refuse_the_same_way(self, monkeypatch):
        record_spool = evaluators.record_spool
        calls = []

        def poisoned_after_anchor(spec, trace_sink):
            spool, record = record_spool(spec, trace_sink)
            calls.append(spec.name)
            if len(calls) > 1:  # the first call records the anchor
                spool.poison = "injected poison"
            return spool, record

        monkeypatch.setattr(evaluators, "record_spool", poisoned_after_anchor)
        errors = []
        for entry in (_via_router, _via_campaign):
            calls.clear()
            with pytest.raises(ReplayError) as caught:
                entry(STREAMING_ANCHOR, (1, 16), 1)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert errors[0][1] == (
            "validation run for router_stream_d1[smart] is not recordable: "
            "injected poison"
        )
