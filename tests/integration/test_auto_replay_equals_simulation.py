"""Auto-routed sweep rows equal all-simulated rows.

A campaign with ``auto_replay`` records each sweep group's anchor once and
replays the other points.  Replay may stand in for the simulator only
where it reproduces what the simulator reports, so every replayed row
must carry the simulated row's end date and kernel counters — the
paper's Fig. 5 observables: context switches fall with depth while no
date moves.  A group replay cannot re-derive (a method process touched a
FIFO) is simulated instead, and its rows are the simulated ones.

The grid skips the points a workload's config rejects, and the runs that
end with a blocked thread, which the campaign refuses by name
(``test_blocked_runs``).
"""

import pytest

from repro.campaign import (
    CampaignRunner,
    default_campaign,
    execute_spec,
    sweep_point_specs,
)
from repro.campaign.evaluators import unbuildable_points
from repro.kernel.errors import BlockedRunError

GRID = (1, 2, 3, 5, 9, 16, 33, 64)
COMPARED = ("sim_end_fs", "context_switches", "delta_cycles",
            "method_invocations")


def _simulated_grid(anchor):
    """``{name: row}`` of every grid point a plain simulation completes."""
    points = sweep_point_specs(anchor, GRID)
    rejected = {line.split(": ", 1)[0] for line in unbuildable_points(points)}
    rows = {}
    for point in points:
        if point.name in rejected:
            continue
        try:
            rows[point.name] = (point, execute_spec(point))
        except BlockedRunError:
            continue
    return rows


@pytest.mark.parametrize(
    "anchor", default_campaign(), ids=lambda spec: spec.name
)
def test_auto_routed_rows_equal_all_simulated_rows(anchor):
    simulated = _simulated_grid(anchor)
    routed = CampaignRunner(
        workers=1, paired=False, auto_replay=True, auto_replay_validate=0,
    ).run([anchor] + [point for point, _ in simulated.values()])
    differing = []
    for row in routed.runs:
        if row.evaluator != "replay":
            continue
        expected = simulated[row.name][1]
        for key in COMPARED:
            if getattr(row, key) != getattr(expected, key):
                differing.append(
                    f"{row.name}.{key}: replay {getattr(row, key)}, "
                    f"simulation {getattr(expected, key)}"
                )
    assert not differing, "; ".join(differing)
