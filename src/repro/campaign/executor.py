"""Run budgets, and the process executor every multi-worker campaign runs on.

The campaign's deterministic rows never carry wall-clock values, but the
*scheduling* of a production campaign is all about wall clock: a stuck or
pathologically slow spec must not hold a shard hostage.  This module
provides the pieces the :class:`~repro.campaign.runner.CampaignRunner`
uses whenever its jobs leave the calling process:

* :class:`RunBudget` — the declarative limits: a per-spec timeout (each
  worker job is killed once it has run that long; ``campaign
  --spec-timeout``) and a whole-campaign budget (when the campaign has
  run that long, every outstanding and queued job is abandoned;
  ``campaign --campaign-budget``).  A budget with no limit set is
  inactive.
* :func:`run_with_budget` — the completion-order executor of long-lived
  worker processes behind every multi-worker campaign.  Each worker owns
  a private pipe, so killing the worker of an overrunning job never
  touches another worker's channel; a replacement takes over the killed
  worker's unstarted jobs.
* :class:`TimeoutRecord` — the deterministic outcome of a killed job.
  The row records the spec identity, the killed mode, the *configured*
  limit and the scope (``"spec"`` or ``"campaign"``) — never the elapsed
  wall time, which would break the byte-identical-aggregation guarantee.
  Timeout rows are first-class JSONL citizens: ``merge_jsonl`` accepts a
  timed-out spec in place of its run/pair rows, and ``--resume`` drops
  the timeout row and re-executes the spec, healing the file back to the
  uninterrupted fingerprint.

Determinism: *whether* a spec times out depends on the machine, so a
budgeted campaign is only reproducible when the overrun is deterministic
(the test suite seeds one with the ``slow_spin_ms`` knob of the bursty
workload).  A budgeted campaign in which nothing times out produces
byte-identical rows to an unbudgeted one.
"""

from __future__ import annotations

import math
import pickle
import threading
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from queue import SimpleQueue
from typing import Deque, Dict, Iterator, Optional, Tuple

from .spec import ScenarioSpec

#: Scope values of a :class:`TimeoutRecord`.
SCOPE_SPEC = "spec"
SCOPE_CAMPAIGN = "campaign"
SCOPES = (SCOPE_SPEC, SCOPE_CAMPAIGN)


@dataclass(frozen=True)
class RunBudget:
    """Wall-clock limits of one campaign execution.

    ``spec_timeout_s``
        A single worker job (one spec in one mode) is terminated once it
        has run this long; the campaign continues with the other jobs.
    ``campaign_budget_s``
        Once the campaign as a whole has run this long, every running job
        is terminated and every queued job abandoned; each incomplete
        spec gets a ``scope="campaign"`` timeout row.
    """

    spec_timeout_s: Optional[float] = None
    campaign_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("spec_timeout_s", "campaign_budget_s"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(
                    f"RunBudget.{name} must be positive, got {value!r}"
                )

    @property
    def active(self) -> bool:
        """True when at least one limit is set."""
        return self.spec_timeout_s is not None or self.campaign_budget_s is not None


@dataclass
class TimeoutRecord:
    """Deterministic outcome of a job killed by a :class:`RunBudget`.

    Carries the spec identity columns (so a resume can validate the row
    against the campaign definition exactly like a run row), the mode of
    the killed job, the scope of the limit that fired and the configured
    limit itself.  Elapsed wall time is deliberately absent.
    """

    name: str
    workload: str
    mode: str
    depth: int
    quantum_ns: Optional[int]
    seed: int
    timing: Optional[str]
    scope: str
    limit_s: float

    def deterministic_row(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "workload": self.workload,
            "mode": self.mode,
            "depth": self.depth,
            "quantum_ns": self.quantum_ns,
            "seed": self.seed,
            "timing": self.timing,
            "scope": self.scope,
            "limit_s": self.limit_s,
        }

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "TimeoutRecord":
        """Rebuild a record from a persisted deterministic row."""
        return cls(**{key: row[key] for key in (
            "name", "workload", "mode", "depth", "quantum_ns", "seed",
            "timing", "scope", "limit_s",
        )})

    @classmethod
    def for_spec(
        cls, spec: ScenarioSpec, mode: str, scope: str, limit_s: float
    ) -> "TimeoutRecord":
        if scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
        return cls(
            name=spec.name,
            workload=spec.workload,
            mode=mode,
            depth=spec.depth,
            quantum_ns=spec.quantum_ns,
            seed=spec.seed,
            timing=spec.timing,
            scope=scope,
            limit_s=limit_s,
        )


# ---------------------------------------------------------------------------
# The process executor
# ---------------------------------------------------------------------------
#: Batches each worker receives over a campaign (see _batch_size).
_BATCHES_PER_WORKER = 16


def _batch_size(job_count: int, processes: int) -> int:
    """Jobs per batch: about :data:`_BATCHES_PER_WORKER` batches per
    worker, and 1 for campaigns of at most ``processes * 16`` jobs.

    Campaign jobs take a millisecond or two, so sending them one at a time
    makes pipe traffic cost as much as the simulations; sixteen batches per
    worker keep the tail short.  Batches are contiguous slices of the job
    list, so the two halves of a pair usually share a batch.  Unbudgeted
    workers report per batch, so a killed campaign loses the batch running
    on each worker; budgeted ones report per job, so a kill loses only the
    running job (the rest of its batch is re-queued).  ``resume`` re-runs
    exactly the missing specs.
    """
    return max(1, job_count // (processes * _BATCHES_PER_WORKER))


def _read_batches(conn, inbox: SimpleQueue) -> None:
    """Worker reader thread: move each batch off the pipe on arrival, so
    the parent's send never waits behind a running (or stuck) job."""
    try:
        while True:
            inbox.put(conn.recv())
    except EOFError:  # the parent is gone
        inbox.put(None)


def _worker_main(conn, func, per_job: bool) -> None:
    """Worker-process body (top-level, so any start method can run it).

    Results travel as ``("ok", [value, ...])``: one message per job with
    ``per_job``, one per batch otherwise.  An exception is shipped back
    (stringified when it does not pickle) and ends the worker.
    """
    inbox: SimpleQueue = SimpleQueue()
    threading.Thread(
        target=_read_batches, args=(conn, inbox), daemon=True
    ).start()
    for batch in iter(inbox.get, None):
        try:
            if per_job:
                for job in batch:
                    conn.send(("ok", [func(job)]))
            else:
                conn.send(("ok", [func(job) for job in batch]))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            conn.send(("error", exc))
            return


@dataclass
class _Worker:
    """Parent-side handle of one worker: ``pending`` holds the jobs sent
    and not yet reported, in run order; its head is the running job, which
    started at ``started`` (exact with per-job reports)."""

    proc: object
    conn: object
    started: float
    pending: Deque = field(default_factory=deque)


def run_with_budget(
    func,
    jobs,
    *,
    budget: RunBudget,
    processes: int,
    mp_context,
) -> Iterator[Tuple]:
    """Run ``func(job)`` for every job on long-lived, killable workers.

    Yields events in completion order:

    * ``("result", value)`` — the job finished; ``value`` is its return.
    * ``("timeout", job, scope)`` — the job was killed (``scope="spec"``)
      or abandoned before/while running because the whole-campaign budget
      expired (``scope="campaign"``).

    ``min(processes, len(jobs))`` workers start from ``mp_context``, each
    with a private pipe; each gets a batch (:func:`_batch_size`) and one
    more queued ahead.  Workers report per batch, or per job when
    ``budget`` is active: then a job running past ``spec_timeout_s`` kills
    only its own worker, whose unstarted jobs go back to the head of the
    queue for a replacement, and once ``campaign_budget_s`` expires every
    worker is killed, results already in a pipe are honoured and every
    other job times out.  A job that raises re-raises here once every
    worker is reaped; a worker that dies without reporting raises
    :class:`RuntimeError` naming its job.
    """
    jobs = list(jobs)
    per_job = budget.active
    size = _batch_size(len(jobs), processes)
    queue = deque(jobs[i:i + size] for i in range(0, len(jobs), size))
    #: Workers with jobs pending, keyed by the parent's end of their pipe.
    workers: Dict[object, _Worker] = {}
    # An unset limit never expires (limits are validated positive).
    spec_timeout = budget.spec_timeout_s or math.inf
    campaign_deadline = time.monotonic() + (budget.campaign_budget_s or math.inf)

    def start(n: int) -> None:
        """Launch ``n`` workers; each gets a batch, then one more."""
        for _ in range(n):
            parent_conn, child_conn = mp_context.Pipe()
            proc = mp_context.Process(
                target=_worker_main, args=(child_conn, func, per_job),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers[parent_conn] = _Worker(proc, parent_conn, time.monotonic())
        for worker in list(workers.values())[-n:] * 2:
            feed(worker)

    def feed(worker: _Worker) -> None:
        """Queue the next batch on ``worker``; stop it once it is idle."""
        if queue:
            batch = queue.popleft()
            worker.pending.extend(batch)
            # A dead worker refuses the batch; its EOF, seen by the wait
            # below, names the job it died on.
            with suppress(OSError):
                worker.conn.send(batch)
        elif not worker.pending:
            stop(worker)

    def receive(worker: _Worker) -> list:
        """The values of ``worker``'s next report; empty at its EOF."""
        try:
            status, payload = worker.conn.recv()
        except (EOFError, OSError):
            return []
        if status == "error":
            raise payload
        for _ in payload:
            worker.pending.popleft()
        worker.started = time.monotonic()
        return payload

    def stop(worker: _Worker) -> None:
        # SIGKILL: a stuck job gets no chance to ignore it.
        worker.proc.kill()
        worker.proc.join()
        worker.conn.close()
        del workers[worker.conn]

    try:
        start(min(processes, len(jobs)))
        while workers:
            deadline = min(
                [campaign_deadline]
                + [worker.started + spec_timeout for worker in workers.values()]
            )
            timeout = (
                None if deadline == math.inf
                else max(0.0, deadline - time.monotonic())
            )
            for conn in _connection_wait(list(workers), timeout=timeout):
                worker = workers[conn]
                values = receive(worker)
                if not values:
                    # A batch report narrows the job down to its batch
                    # only; a per-job report pins it.
                    died_on = list(worker.pending)[:1 if per_job else size]
                    raise RuntimeError(
                        f"process worker {worker.proc.pid} died without "
                        f"reporting a result for job(s) {died_on!r}"
                    )
                if len(worker.pending) <= size:
                    feed(worker)
                for value in values:
                    yield "result", value
            now = time.monotonic()
            if now >= campaign_deadline:
                for worker in list(workers.values()):
                    # Kill first: a result already in the pipe finished
                    # within budget.
                    worker.proc.kill()
                    worker.proc.join()
                    while worker.conn.poll() and (values := receive(worker)):
                        yield "result", values[0]
                    stop(worker)
                    queue.appendleft(worker.pending)
                for batch in queue:
                    for job in batch:
                        yield "timeout", job, SCOPE_CAMPAIGN
                return
            for worker in list(workers.values()):
                if now < worker.started + spec_timeout or worker.conn.poll():
                    continue  # not overdue, or finished at deadline-epsilon
                stop(worker)
                job = worker.pending.popleft()
                if worker.pending:
                    queue.appendleft(worker.pending)
                if queue:
                    start(1)
                yield "timeout", job, SCOPE_SPEC
    finally:
        # Normal end, a raising job or an abandoned generator: reap every
        # process so no orphan keeps simulating.
        for worker in list(workers.values()):
            stop(worker)
