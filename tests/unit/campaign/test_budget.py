"""Run budgets: deterministic timeout rows through merge and resume.

The seeded overrun comes from the bursty workload's ``slow_spin_ms`` knob:
a host-CPU busy-wait that burns wall clock without touching simulated
time, traces or extras — so the *occurrence* of the timeout is
deterministic while the spec's rows stay byte-identical to its spin-free
twin.
"""

import json
import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignRunner,
    RunBudget,
    ScenarioSpec,
    TimeoutRecord,
    merge_jsonl,
)
from repro.campaign import runner
from repro.campaign.executor import _batch_size

from .test_runner import job_count, replicated_default_campaign

#: Per-burst busy wait of the slow spec; two bursts => >= 2x this wall
#: time per mode, far above SPEC_TIMEOUT on any machine.
SPIN_MS = 300
SPEC_TIMEOUT = 0.1

FAST = ScenarioSpec("fast", "writer_reader", depth=2)
SLOW = ScenarioSpec(
    "slow", "bursty", depth=4, seed=3,
    params={"n_bursts": 2, "max_burst": 3, "slow_spin_ms": SPIN_MS},
)
CAMPAIGN = [FAST, SLOW]


@pytest.fixture(scope="module")
def uninterrupted_fingerprint():
    return CampaignRunner(workers=2).run(CAMPAIGN).fingerprint()


class TestRunBudgetValidation:
    @pytest.mark.parametrize("kwargs", [
        {"spec_timeout_s": 0}, {"spec_timeout_s": -1},
        {"campaign_budget_s": 0}, {"campaign_budget_s": -0.5},
    ])
    def test_non_positive_limits_rejected(self, kwargs):
        with pytest.raises(ValueError, match="positive"):
            RunBudget(**kwargs)

    def test_active(self):
        assert not RunBudget().active
        assert RunBudget(spec_timeout_s=1).active
        assert RunBudget(campaign_budget_s=1).active


class TestSlowSpin:
    def test_slow_spin_changes_wall_clock_only(self):
        plain = ScenarioSpec("s", "bursty", depth=4, seed=3,
                             params={"n_bursts": 2, "max_burst": 3})
        spun = ScenarioSpec("s", "bursty", depth=4, seed=3,
                            params={"n_bursts": 2, "max_burst": 3,
                                    "slow_spin_ms": 50})
        plain_result = CampaignRunner(workers=1, paired=False).run([plain])
        spun_result = CampaignRunner(workers=1, paired=False).run([spun])
        assert (
            plain_result.runs[0].deterministic_row()
            == spun_result.runs[0].deterministic_row()
        )
        assert spun_result.runs[0].wall_seconds >= 2 * 0.05

    def test_negative_spin_rejected(self):
        from repro.workloads.bursty import BurstyConfig

        with pytest.raises(ValueError, match="slow_spin_ms"):
            BurstyConfig(slow_spin_ms=-1)


class TestSpecTimeout:
    def test_overrunning_spec_is_killed_and_recorded(self, tmp_path):
        path = str(tmp_path / "budget.jsonl")
        result = CampaignRunner(
            workers=2, budget=RunBudget(spec_timeout_s=SPEC_TIMEOUT)
        ).run(CAMPAIGN, jsonl=path)
        assert not result.complete
        killed = sorted((t.name, t.mode, t.scope) for t in result.timeouts)
        assert killed == [
            ("slow", "reference", "spec"), ("slow", "smart", "spec"),
        ]
        assert all(t.limit_s == SPEC_TIMEOUT for t in result.timeouts)
        # The fast spec finished normally; the slow one left no run rows.
        assert sorted({r.name for r in result.runs}) == ["fast"]
        assert [p.name for p in result.pairs] == ["fast"]
        rows = [json.loads(line) for line in open(path)]
        assert sum(row["type"] == "timeout" for row in rows) == 2

    def test_timeout_rows_are_deterministic(self):
        budget = RunBudget(spec_timeout_s=SPEC_TIMEOUT)
        first = CampaignRunner(workers=2, budget=budget).run(CAMPAIGN)
        second = CampaignRunner(workers=2, budget=budget).run(CAMPAIGN)
        assert first.fingerprint() == second.fingerprint()
        assert not first.complete

    def test_merge_rejects_contradictory_run_and_timeout_rows(self, tmp_path):
        # A (spec, mode) that both completed and timed out can only come
        # from stitching different campaign executions together.
        path = str(tmp_path / "c.jsonl")
        result = CampaignRunner(workers=1, paired=False).run([FAST], jsonl=path)
        record = result.runs[0]
        contradiction = TimeoutRecord.for_spec(FAST, record.mode, "spec", 1.0)
        with open(path, "a") as handle:
            handle.write(json.dumps(
                {"type": "timeout", **contradiction.deterministic_row()}
            ) + "\n")
        with pytest.raises(ValueError, match="contradictory"):
            merge_jsonl([path])

    def test_merge_rejects_pair_plus_timeout_for_one_spec(self, tmp_path):
        # A pair row proves both halves completed; a timeout row for the
        # same spec can only come from another execution (stitched files).
        path = str(tmp_path / "c.jsonl")
        CampaignRunner(workers=1).run([FAST], jsonl=path)
        stitched = TimeoutRecord.for_spec(FAST, "reference", "spec", 1.0)
        with open(path, "a") as handle:
            handle.write(json.dumps(
                {"type": "timeout", **stitched.deterministic_row()}
            ) + "\n")
        with pytest.raises(ValueError, match="contradictory"):
            merge_jsonl([path])

    def test_timeout_row_round_trips_through_merge(self, tmp_path):
        path = str(tmp_path / "budget.jsonl")
        result = CampaignRunner(
            workers=2, budget=RunBudget(spec_timeout_s=SPEC_TIMEOUT)
        ).run(CAMPAIGN, jsonl=path)
        merged = merge_jsonl([path])
        assert merged.fingerprint() == result.fingerprint()
        assert sorted((t.name, t.mode) for t in merged.timeouts) == sorted(
            (t.name, t.mode) for t in result.timeouts
        )
        assert not merged.complete

    def test_resume_re_runs_the_timed_out_spec_and_heals_the_file(
        self, tmp_path, uninterrupted_fingerprint
    ):
        path = str(tmp_path / "budget.jsonl")
        CampaignRunner(
            workers=2, budget=RunBudget(spec_timeout_s=SPEC_TIMEOUT)
        ).run(CAMPAIGN, jsonl=path)
        healed = CampaignRunner(workers=2).run(
            CAMPAIGN, jsonl=path, resume=True
        )
        assert healed.complete
        assert healed.fingerprint() == uninterrupted_fingerprint
        # The healed file carries no timeout rows and merges to the
        # uninterrupted fingerprint too.
        rows = [json.loads(line) for line in open(path)]
        assert not any(row["type"] == "timeout" for row in rows)
        assert merge_jsonl([path]).fingerprint() == uninterrupted_fingerprint

    def test_generous_budget_leaves_the_fingerprint_unchanged(
        self, uninterrupted_fingerprint
    ):
        result = CampaignRunner(
            workers=2, budget=RunBudget(spec_timeout_s=120.0)
        ).run(CAMPAIGN)
        assert result.complete
        assert result.fingerprint() == uninterrupted_fingerprint

    def test_budgeted_execution_works_inline_too(self):
        # workers=1 still kills the overrun: budgeted jobs always run in
        # child processes.
        result = CampaignRunner(
            workers=1, budget=RunBudget(spec_timeout_s=SPEC_TIMEOUT)
        ).run([SLOW])
        assert sorted(t.mode for t in result.timeouts) == [
            "reference", "smart",
        ]


class TestCampaignBudget:
    def test_expired_budget_abandons_every_incomplete_spec(self):
        slow_twin = ScenarioSpec(
            "slow2", "bursty", depth=4, seed=5,
            params={"n_bursts": 2, "max_burst": 3, "slow_spin_ms": SPIN_MS},
        )
        result = CampaignRunner(
            workers=1, budget=RunBudget(campaign_budget_s=0.05)
        ).run([SLOW, slow_twin])
        names = sorted({t.name for t in result.timeouts})
        assert names == ["slow", "slow2"]
        assert all(t.scope == "campaign" for t in result.timeouts)
        # Both halves of both specs are accounted for: no silent drops.
        assert len(result.timeouts) == 4
        assert not result.runs and not result.pairs

    def test_expired_budget_honours_every_finished_job(self):
        # 39 single jobs travel 2 to a batch on one worker; the slow spec
        # runs second in its batch, so its batch mate has finished (and
        # reported) when the budget expires during the spin.
        slow = replace(SLOW, params={**SLOW.params, "slow_spin_ms": 600})
        specs = replicated_default_campaign(2)
        specs.insert(11, slow)
        assert _batch_size(len(specs), 1) == 2
        result = CampaignRunner(
            workers=1, paired=False, budget=RunBudget(campaign_budget_s=1.0)
        ).run(specs)
        assert sorted(r.name for r in result.runs) == sorted(
            spec.name for spec in specs[:11]
        )
        assert sorted(t.name for t in result.timeouts) == sorted(
            spec.name for spec in specs[11:]
        )
        assert all(t.scope == "campaign" for t in result.timeouts)

    def test_worker_exception_still_propagates(self):
        # A failing spec must raise, not be mistaken for a timeout.
        bad = ScenarioSpec("bad", "writer_reader", depth=2,
                           params={"values": "not_an_int"})
        with pytest.raises((ValueError, TypeError)):
            CampaignRunner(
                workers=1, budget=RunBudget(spec_timeout_s=30.0)
            ).run([bad])


class TestProcessExecutor:
    """Budgeted and unbudgeted campaigns share long-lived workers."""

    def test_budgeted_campaign_reuses_its_workers(self):
        specs = replicated_default_campaign(4)
        assert _batch_size(job_count(specs), 2) > 1
        unbudgeted = CampaignRunner(workers=2).run(specs)
        budgeted = CampaignRunner(
            workers=2, budget=RunBudget(spec_timeout_s=600)
        ).run(specs)
        assert budgeted.complete
        assert budgeted.fingerprint() == unbudgeted.fingerprint()
        assert len(budgeted.worker_pids()) <= 2

    def test_timeout_kills_one_job_not_its_batch(self, tmp_path):
        # Unpaired, so the slow spec is a single job: 153 jobs travel 4 to
        # a batch and the slow one runs second in its batch.
        slow = replace(SLOW, params={**SLOW.params, "slow_spin_ms": 600})
        specs = replicated_default_campaign(8)
        specs.insert(41, slow)
        assert _batch_size(len(specs), 2) == 4
        path = str(tmp_path / "budget.jsonl")
        result = CampaignRunner(
            workers=2, paired=False, budget=RunBudget(spec_timeout_s=0.5)
        ).run(specs, jsonl=path)
        assert [(t.name, t.scope) for t in result.timeouts] == [
            ("slow", "spec")
        ]
        assert sorted(r.name for r in result.runs) == sorted(
            spec.name for spec in specs if spec is not slow
        )
        # Two workers plus the one that replaced the killed worker.
        assert len(result.worker_pids()) == 3
        healed = CampaignRunner(workers=2, paired=False).run(
            specs, jsonl=path, resume=True
        )
        unbudgeted = CampaignRunner(workers=2, paired=False).run(specs)
        assert healed.fingerprint() == unbudgeted.fingerprint()

    @pytest.mark.parametrize("budget", [None, RunBudget(spec_timeout_s=60)])
    def test_worker_death_names_its_job(self, monkeypatch, budget):
        execute_job = runner._execute_job

        def dying(job):
            if job[2].name == "slow":
                os._exit(3)
            return execute_job(job)

        monkeypatch.setattr(runner, "_execute_job", dying)
        with pytest.raises(RuntimeError, match="died without reporting.*'slow'"):
            CampaignRunner(
                workers=2, mp_start_method="fork", budget=budget
            ).run(CAMPAIGN)
        assert multiprocessing.active_children() == []

    def test_spawned_workers_reproduce_the_inline_fingerprint(self):
        inline = CampaignRunner(workers=1).run([FAST])
        spawned = CampaignRunner(workers=2, mp_start_method="spawn").run([FAST])
        assert spawned.fingerprint() == inline.fingerprint()
        assert len(spawned.worker_pids()) == 2


class TestTimeoutRecordRows:
    def test_row_round_trip(self):
        record = TimeoutRecord.for_spec(SLOW, "smart", "spec", 0.25)
        rebuilt = TimeoutRecord.from_row(record.deterministic_row())
        assert rebuilt == record

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            TimeoutRecord.for_spec(SLOW, "smart", "wall", 0.25)

    def test_unknown_timeout_spec_rejected_on_resume(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        CampaignRunner(workers=1).run([FAST], jsonl=path)
        foreign = TimeoutRecord.for_spec(SLOW, "smart", "spec", 1.0)
        with open(path, "a") as handle:
            handle.write(
                json.dumps({"type": "timeout", **foreign.deterministic_row()})
                + "\n"
            )
        with pytest.raises(ValueError, match="unknown spec"):
            CampaignRunner(workers=1).run([FAST], jsonl=path, resume=True)
