"""The process executor on its own: ``run_with_budget`` and its batching.

These tests drive :func:`repro.campaign.executor.run_with_budget` with
plain functions instead of campaign jobs, so each property of the
executor — every job reported once, workers capped and reaped, per-spec
and whole-campaign limits, error forwarding — is checked without a
simulation in the way.
"""

import multiprocessing
import os
import time

import pytest

from repro.campaign.executor import (
    SCOPE_CAMPAIGN,
    SCOPE_SPEC,
    RunBudget,
    TimeoutRecord,
    _batch_size,
    run_with_budget,
)
from repro.campaign.spec import ScenarioSpec

FORK = multiprocessing.get_context("fork")
#: Far longer than any limit below: a job that sleeps this long is stuck.
STUCK_S = 60


def square(job):
    return job * job


def pid_of(job):
    return job, os.getpid()


def stuck_on_minus_one(job):
    if job == -1:
        time.sleep(STUCK_S)
    return job


def always_stuck(job):
    time.sleep(STUCK_S)
    return job


def raise_on_three(job):
    if job == 3:
        raise ValueError(f"job {job} is broken")
    return job


class Unpicklable(Exception):
    def __init__(self, handle):
        super().__init__("carries a lock")
        self.handle = handle

    def __reduce__(self):
        raise TypeError("cannot pickle this exception")


def raise_unpicklable(job):
    raise Unpicklable(object())


def exit_on_two(job):
    if job == 2:
        os._exit(3)
    return job


def run(func, jobs, processes=2, budget=None):
    return list(run_with_budget(
        func, jobs, budget=budget or RunBudget(), processes=processes,
        mp_context=FORK,
    ))


def results(events):
    return [event[1] for event in events if event[0] == "result"]


_baseline = set()


@pytest.fixture(autouse=True)
def baseline_children():
    """Children alive before the test (left by other tests, if any)."""
    _baseline.clear()
    _baseline.update(multiprocessing.active_children())


def no_children_left():
    return set(multiprocessing.active_children()) <= _baseline


class TestBatchSize:
    @pytest.mark.parametrize("jobs, processes, expected", [
        (0, 1, 1),
        (1, 4, 1),
        (16, 1, 1),
        (31, 1, 1),
        (32, 1, 2),
        (64, 2, 2),
        (1360, 2, 42),
        (10_000, 8, 78),
    ])
    def test_table(self, jobs, processes, expected):
        assert _batch_size(jobs, processes) == expected


class TestRunWithBudget:
    @pytest.mark.parametrize("count", [1, 5, 40, 200])
    @pytest.mark.parametrize("budget", [
        RunBudget(), RunBudget(spec_timeout_s=600),
    ], ids=["unbudgeted", "budgeted"])
    def test_every_job_is_reported_exactly_once(self, count, budget):
        events = run(square, range(count), budget=budget)
        assert [event[0] for event in events] == ["result"] * count
        assert sorted(results(events)) == [n * n for n in range(count)]
        assert no_children_left()

    def test_no_jobs_start_no_workers(self):
        assert run(always_stuck, []) == []
        assert no_children_left()

    def test_workers_are_capped_at_the_job_count(self):
        events = run(pid_of, [1, 2], processes=6)
        pids = {pid for _, pid in results(events)}
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids

    def test_jobs_leave_the_calling_process(self):
        events = run(pid_of, range(8), processes=1)
        assert {pid for _, pid in results(events)} != {os.getpid()}

    def test_spec_timeout_kills_only_the_stuck_job(self):
        jobs = [0, 1, -1, 2, 3]
        start = time.monotonic()
        events = run(
            stuck_on_minus_one, jobs,
            budget=RunBudget(spec_timeout_s=0.5),
        )
        assert time.monotonic() - start < STUCK_S / 2
        assert [e for e in events if e[0] == "timeout"] == [
            ("timeout", -1, SCOPE_SPEC)
        ]
        assert sorted(results(events)) == [0, 1, 2, 3]
        assert no_children_left()

    def test_expired_campaign_budget_times_out_every_job(self):
        jobs = list(range(6))
        start = time.monotonic()
        events = run(
            always_stuck, jobs, budget=RunBudget(campaign_budget_s=0.5)
        )
        assert time.monotonic() - start < STUCK_S / 2
        assert sorted(job for _, job, _ in events) == jobs
        assert {event[0] for event in events} == {"timeout"}
        assert {event[2] for event in events} == {SCOPE_CAMPAIGN}
        assert no_children_left()

    @pytest.mark.parametrize("budget", [
        RunBudget(), RunBudget(spec_timeout_s=600),
    ], ids=["unbudgeted", "budgeted"])
    def test_a_raising_job_re_raises_its_exception(self, budget):
        with pytest.raises(ValueError, match="job 3 is broken"):
            run(raise_on_three, range(6), budget=budget)
        assert no_children_left()

    def test_an_unpicklable_exception_arrives_as_runtime_error(self):
        with pytest.raises(RuntimeError, match="Unpicklable: carries a lock"):
            run(raise_unpicklable, [1])
        assert no_children_left()

    def test_a_dying_worker_names_its_job(self):
        with pytest.raises(RuntimeError, match=r"died without reporting.*2"):
            run(exit_on_two, [2], processes=1)
        assert no_children_left()

    def test_an_abandoned_generator_reaps_its_workers(self):
        events = run_with_budget(
            square, range(100), budget=RunBudget(), processes=2,
            mp_context=FORK,
        )
        assert next(events)[0] == "result"
        events.close()
        assert no_children_left()


class TestTimeoutRecord:
    SPEC = ScenarioSpec("bursty_q", "bursty", depth=3, seed=7,
                        quantum_ns=50, timing="quantum")

    @pytest.mark.parametrize("scope", [SCOPE_SPEC, SCOPE_CAMPAIGN])
    def test_row_round_trips_for_every_scope(self, scope):
        record = TimeoutRecord.for_spec(self.SPEC, "smart", scope, 1.5)
        row = record.deterministic_row()
        assert TimeoutRecord.from_row(row) == record
        assert row["scope"] == scope
        assert (row["quantum_ns"], row["timing"]) == (50, "quantum")

    def test_row_carries_the_configured_limit_not_elapsed_time(self):
        row = TimeoutRecord.for_spec(
            self.SPEC, "reference", SCOPE_SPEC, 2.0
        ).deterministic_row()
        assert row["limit_s"] == 2.0
        assert not any("wall" in key or "elapsed" in key for key in row)
