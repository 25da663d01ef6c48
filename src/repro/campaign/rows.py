"""The campaign's deterministic rows and their JSONL format.

Every outcome of a campaign is one of three records: a
:class:`SpecRunRecord` (one spec run in one mode), a :class:`PairRecord`
(the Section IV-A reference/Smart comparison of one spec) or a
:class:`TimeoutRecord` (a job killed by a
:class:`~repro.campaign.executor.RunBudget`).  This module owns how they
are written, read back and combined:

* :class:`JsonlSink` — collects a running campaign's records and streams
  each new one as a JSONL row, so a long campaign can be tailed while it
  runs and merged across machines afterwards;
* :func:`read_jsonl` — the one reader of campaign JSONL files, shared by
  :func:`merge_jsonl` (strict) and :func:`load_resume_state` (which drops
  a torn final line and checks the file against the campaign it resumes);
* :class:`CampaignResult` — the aggregate, whose :meth:`~CampaignResult
  .fingerprint` is the campaign's comparison handle.

The schema (one JSON object per line)::

    {"type": "campaign", "schema": 1, "specs": [...], "workers": N,
     "paired": true, "shard": "0/2" | null,
     "shard_by": "index"}          # header, first line (shard_by if sharded)
    {"type": "run", ...SpecRunRecord.deterministic_row()}
    {"type": "pair", ...PairRecord.deterministic_row()}
    {"type": "timeout", ...TimeoutRecord.deterministic_row()}

Rows carry deterministic fields only — simulated dates, kernel counters
and trace digests, never wall clock or PIDs — and the aggregate sorts them
by spec name, so the fingerprint is byte-identical for any worker count,
and the merge of shard files is byte-identical to the unsharded run.  A
``timeout`` row stands in for the spec's run/pair rows at merge time and
is dropped (the spec re-runs) on resume.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Tuple

from ..telemetry import NULL_TELEMETRY, Telemetry
from .spec import ScenarioSpec, spec_is_pairable

JSONL_SCHEMA = 1

#: Scope values of a :class:`TimeoutRecord`: the limit that fired.
SCOPE_SPEC = "spec"
SCOPE_CAMPAIGN = "campaign"
SCOPES = (SCOPE_SPEC, SCOPE_CAMPAIGN)


@dataclass
class SpecRunRecord:
    """Outcome of one spec executed in one mode."""

    name: str
    workload: str
    mode: str
    depth: int
    quantum_ns: Optional[int]
    seed: int
    timing: Optional[str]
    sim_end_fs: int
    context_switches: int
    method_invocations: int
    delta_cycles: int
    trace_lines: int
    trace_digest: str
    extra: Dict[str, object] = field(default_factory=dict)
    #: How the numbers were obtained: ``"simulate"`` (a full scheduler run)
    #: or ``"replay"`` (recomputed from a recorded dependency spool by
    #: :class:`repro.replay.ReplayEngine`).  Excluded from the row when it
    #: is the default so pre-replay JSONL files stay byte-identical.
    evaluator: str = "simulate"
    #: Wall-clock and process provenance: informative only, excluded from
    #: the deterministic aggregation.
    wall_seconds: float = 0.0
    worker_pid: int = 0

    def deterministic_row(self) -> Dict[str, object]:
        row = {
            "name": self.name,
            "workload": self.workload,
            "mode": self.mode,
            "depth": self.depth,
            "quantum_ns": self.quantum_ns,
            "seed": self.seed,
            "timing": self.timing,
            "sim_end_fs": self.sim_end_fs,
            "context_switches": self.context_switches,
            "method_invocations": self.method_invocations,
            "delta_cycles": self.delta_cycles,
            "trace_lines": self.trace_lines,
            "trace_digest": self.trace_digest,
            "extra": self.extra,
        }
        if self.evaluator != "simulate":
            row["evaluator"] = self.evaluator
        return row

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "SpecRunRecord":
        """Rebuild a record from a persisted deterministic row."""
        record = cls(**{key: row[key] for key in (
            "name", "workload", "mode", "depth", "quantum_ns", "seed",
            "timing", "sim_end_fs", "context_switches", "method_invocations",
            "delta_cycles", "trace_lines", "trace_digest", "extra",
        )})
        record.evaluator = str(row.get("evaluator", "simulate"))
        return record


@dataclass
class PairRecord:
    """Outcome of one paired reference/Smart equivalence run."""

    name: str
    equivalent: bool
    reference_digest: str
    smart_digest: str
    reference_lines: int
    candidate_lines: int
    #: Whether the deterministic extras (completion dates, checksums...)
    #: also matched — the observable the paper compares for workloads that
    #: do not emit trace lines.
    extras_match: bool = True
    #: Human-readable mismatch summary; empty when the diff is empty.
    report: str = ""
    wall_seconds: float = 0.0
    #: PIDs of the workers that ran the (reference, smart) halves —
    #: provenance only, like ``SpecRunRecord.worker_pid``.
    worker_pids: Tuple[int, int] = (0, 0)

    def deterministic_row(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "equivalent": self.equivalent,
            "reference_digest": self.reference_digest,
            "smart_digest": self.smart_digest,
            "reference_lines": self.reference_lines,
            "candidate_lines": self.candidate_lines,
            "extras_match": self.extras_match,
            "report": self.report,
        }

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "PairRecord":
        """Rebuild a record from a persisted deterministic row."""
        return cls(**{key: row[key] for key in (
            "name", "equivalent", "reference_digest", "smart_digest",
            "reference_lines", "candidate_lines", "extras_match", "report",
        )})


@dataclass
class TimeoutRecord:
    """Deterministic outcome of a job killed by a
    :class:`~repro.campaign.executor.RunBudget`.

    Carries the spec identity columns (so a resume can validate the row
    against the campaign definition exactly like a run row), the mode of
    the killed job, the scope of the limit that fired (``"spec"`` or
    ``"campaign"``) and the configured limit itself.  Elapsed wall time is
    deliberately absent: it would break the byte-identical aggregation.
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


#: The record class of each non-header row type.
_RECORD_TYPES = {"run": SpecRunRecord, "pair": PairRecord, "timeout": TimeoutRecord}


def campaign_header_row(
    campaign_specs: Sequence[ScenarioSpec],
    workers: int,
    paired: bool,
    shard: Optional[Tuple[int, int]] = None,
) -> Dict[str, object]:
    """The campaign header row of a JSONL file (first line).

    The header records the *whole* campaign's spec names (before shard
    partitioning), so :func:`merge_jsonl` can tell shards of the same
    campaign from shards of different ones.  ``shard_by`` records *how* a
    sharded campaign was partitioned.  It is always written as ``"index"``
    (round-robin, see :meth:`~repro.campaign.runner.CampaignRunner
    .shard_specs`); older files may carry ``"cost"`` from a retired
    cost-balanced partitioner.  Such files still merge —
    :func:`merge_jsonl` never reads the key — but a resume must re-derive
    the identical shard membership, so resuming one is rejected.  The key
    only exists on sharded headers, so unsharded files keep their original
    format, and sharded files written before the field existed carry no
    key and are read as ``"index"``.
    """
    row = {
        "type": "campaign",
        "schema": JSONL_SCHEMA,
        "specs": [spec.name for spec in campaign_specs],
        "workers": workers,
        "paired": paired,
        "shard": f"{shard[0]}/{shard[1]}" if shard else None,
    }
    if shard:
        row["shard_by"] = "index"
    return row


def _line(row: Dict[str, object]) -> str:
    """One row as a compact, key-sorted JSONL line."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass
class CampaignRows:
    """The header rows and records of campaign JSONL files, in file order."""

    headers: List[Dict[str, object]] = field(default_factory=list)
    runs: List[SpecRunRecord] = field(default_factory=list)
    pairs: List[PairRecord] = field(default_factory=list)
    timeouts: List[TimeoutRecord] = field(default_factory=list)

    def write(self, stream: IO[str]) -> None:
        """Write every row: headers, then runs, pairs and timeouts."""
        for header in self.headers:
            stream.write(_line(header))
        for kind, records in self._by_kind():
            for record in records:
                stream.write(_line({"type": kind, **record.deterministic_row()}))
        stream.flush()

    def _by_kind(self):
        return (("run", self.runs), ("pair", self.pairs),
                ("timeout", self.timeouts))

    def check_unique(self) -> None:
        """Reject two outcomes of one job.

        A (spec, mode) job has at most one run row or one timeout row, and
        a spec at most one pair row.  A timeout row next to a run row of
        the same job, or next to a pair row of the same spec (which proves
        both halves completed), is not a merged outcome: :func:`merge_jsonl`
        refuses it.  :func:`load_resume_state` drops timeout rows before
        this check, because a resume writes such a file itself when it
        re-runs both halves of a spec whose pair row was lost and the half
        whose run row was recovered times out; the next resume heals it.
        """
        runs = set()
        for record in self.runs:
            key = (record.name, record.mode)
            if key in runs:
                raise ValueError(
                    f"duplicate run row for spec {record.name!r} mode "
                    f"{record.mode!r}"
                )
            runs.add(key)
        pairs = set()
        for pair in self.pairs:
            if pair.name in pairs:
                raise ValueError(f"duplicate pair row for spec {pair.name!r}")
            pairs.add(pair.name)
        timeouts = set()
        for timeout in self.timeouts:
            key = (timeout.name, timeout.mode)
            if key in timeouts:
                raise ValueError(
                    f"duplicate timeout row for spec {timeout.name!r} mode "
                    f"{timeout.mode!r}"
                )
            timeouts.add(key)
            if key in runs:
                raise ValueError(
                    f"contradictory rows for spec {timeout.name!r} mode "
                    f"{timeout.mode!r}: both a run row and a timeout row"
                )
            if timeout.name in pairs:
                raise ValueError(
                    f"contradictory rows for spec {timeout.name!r}: both a "
                    f"pair row and a timeout row"
                )


class JsonlSink:
    """Collects a campaign's records and streams each new one as a row.

    Starts from the ``recovered`` records of a resumed file, which are
    already on disk: a re-executed job whose row was recovered (the run
    of a spec whose pair row was lost) is dropped, so the recovered copy
    is the one that counts, in the file and in the result alike.  Every
    other record is appended to :attr:`runs`, :attr:`pairs` or
    :attr:`timeouts` and, given a ``stream``, written and flushed as it
    completes; with ``telemetry`` enabled each write is timed into the
    ``campaign.sink_write_s`` and ``campaign.sink_writes`` counters.
    """

    def __init__(
        self,
        stream: Optional[IO[str]],
        recovered: Optional[CampaignRows] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ):
        recovered = recovered if recovered is not None else CampaignRows()
        self._stream = stream
        self._telemetry = telemetry
        self.runs: List[SpecRunRecord] = list(recovered.runs)
        self.pairs: List[PairRecord] = list(recovered.pairs)
        self.timeouts: List[TimeoutRecord] = []
        self._recovered_runs = {(r.name, r.mode) for r in recovered.runs}
        self._recovered_pairs = {pair.name for pair in recovered.pairs}

    def _write(self, kind: str, record) -> None:
        if self._stream is None:
            return
        start = time.perf_counter()
        self._stream.write(_line({"type": kind, **record.deterministic_row()}))
        self._stream.flush()
        if self._telemetry.enabled:
            self._telemetry.counter(
                "campaign.sink_write_s", time.perf_counter() - start
            )
            self._telemetry.counter("campaign.sink_writes")

    def run_completed(self, record: SpecRunRecord) -> None:
        if (record.name, record.mode) not in self._recovered_runs:
            self.runs.append(record)
            self._write("run", record)

    def pair_completed(self, pair: PairRecord) -> None:
        if pair.name not in self._recovered_pairs:
            self.pairs.append(pair)
            self._write("pair", pair)

    def timeout_completed(self, record: TimeoutRecord) -> None:
        self.timeouts.append(record)
        self._write("timeout", record)


def _parse_row(line: str, number: int):
    """``(type, header row or record)`` of one non-empty JSONL line."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {number} is not valid JSON: {exc}") from None
    kind = row.get("type") if isinstance(row, dict) else None
    if kind == "campaign":
        return kind, row
    if kind not in _RECORD_TYPES:
        raise ValueError(f"line {number} has unknown type {kind!r}")
    try:
        return kind, _RECORD_TYPES[kind].from_row(row)
    except KeyError as exc:
        raise ValueError(
            f"line {number}: {kind} row is missing field {exc}"
        ) from None


def read_jsonl(
    path: str, rows: Optional[CampaignRows] = None, drop_torn_tail: bool = False
) -> CampaignRows:
    """Append the rows of the campaign JSONL file at ``path`` to ``rows``.

    The first row is a header row of this :data:`JSONL_SCHEMA`, and so is
    every later header row (shard files joined with ``cat`` still merge);
    blank lines are skipped.  With ``drop_torn_tail`` an unparsable
    *final* line — the write a killed campaign left half done — is
    dropped; corruption anywhere else raises :class:`ValueError` naming
    the file and line.
    """
    rows = rows if rows is not None else CampaignRows()
    with open(path) as handle:
        lines = handle.read().splitlines()
    lists = dict(rows._by_kind())
    header_seen = False
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            kind, parsed = _parse_row(line, number)
        except ValueError as exc:
            if drop_torn_tail and number == len(lines):
                break  # torn final line: the interrupted write, drop it
            raise ValueError(f"{path} {exc}") from None
        if kind == "campaign":
            if parsed.get("schema") != JSONL_SCHEMA:
                raise ValueError(
                    f"{path} uses campaign JSONL schema "
                    f"{parsed.get('schema')!r}; this version reads schema "
                    f"{JSONL_SCHEMA}"
                )
            header_seen = True
            rows.headers.append(parsed)
        elif not header_seen:
            raise ValueError(f"{path} does not start with a campaign header row")
        else:
            lists[kind].append(parsed)
    if not header_seen:  # a record before any header raised above
        raise ValueError(f"{path} contains no campaign rows")
    return rows


# ---------------------------------------------------------------------------
# Resume
# ---------------------------------------------------------------------------
class CampaignResumeError(ValueError):
    """A ``resume=True`` request that cannot be honoured (wrong header,
    corrupt file, missing path).  Distinct from the :class:`ValueError`\\ s
    a broken simulation may raise, so CLIs can report resume problems
    without swallowing genuine model bugs."""


def load_resume_state(
    path: str,
    campaign_specs: Sequence[ScenarioSpec],
    paired: bool,
    shard: Optional[Tuple[int, int]],
    shard_specs: Optional[Sequence[ScenarioSpec]] = None,
) -> CampaignRows:
    """Read a partially written campaign JSONL for ``resume=True``.

    Returns the file's header, run and pair rows; its ``timeout`` rows are
    checked against their specs but dropped before the duplicate check
    (see :meth:`CampaignRows.check_unique`), so the timed-out specs re-run
    and the healed file reproduces the uninterrupted fingerprint.  A torn
    final line is dropped (see :func:`read_jsonl`), and the file must hold
    exactly one header row.

    The header must describe the *same* campaign as the one being resumed
    — identical spec list, paired flag, shard (including the partitioner:
    a shard file written by the retired cost partitioner cannot be resumed
    as a round-robin shard) and schema — otherwise the resume is rejected:
    silently appending rows of one campaign to the file of another would
    merge into a plausible-looking fingerprint that corresponds to no real
    run.  (A differing ``workers`` value is fine: worker count never
    affects the rows.)  Every row must belong to a known spec, run and
    timeout rows must match the spec's identity columns (workload, mode,
    depth, quantum_ns, seed, timing), and pair rows a pairable spec.  When
    resuming one shard of a campaign, ``shard_specs`` names the specs of
    *this* shard: a row from another shard (the signature of a
    re-partitioned campaign) is rejected, because replaying it would
    produce a shard file the merge rightly refuses.  Rows do **not**
    record ``params`` or the trace-sink kind, so a resume cannot detect
    those changing between invocations — resuming assumes both are
    unchanged, like sharding does.
    """
    try:
        rows = read_jsonl(path, drop_torn_tail=True)
    except ValueError as exc:
        raise CampaignResumeError(
            f"{exc}; cannot resume from a corrupt file"
        ) from None
    if len(rows.headers) != 1:
        raise CampaignResumeError(
            f"{path} contains more than one campaign header row; cannot "
            f"resume from a corrupt file"
        )
    (header,) = rows.headers
    expected = campaign_header_row(campaign_specs, 0, paired, shard)
    for key in ("specs", "paired", "shard"):
        if header.get(key) != expected[key]:
            raise CampaignResumeError(
                f"cannot resume {path}: its campaign header differs on "
                f"{key!r} ({header.get(key)!r} != {expected[key]!r}) — the "
                f"file belongs to a different campaign"
            )
    if shard is not None:
        # Files written before the shard_by key existed carry none; they
        # were always round-robin ("index") partitioned.
        recorded_by = header.get("shard_by") or "index"
        if recorded_by != expected["shard_by"]:
            raise CampaignResumeError(
                f"cannot resume {path}: the file's shard was partitioned by "
                f"{recorded_by!r} but this campaign shards by "
                f"{expected['shard_by']!r} — shard membership would not match"
            )
    by_name = {spec.name: spec for spec in campaign_specs}
    in_shard = (
        {spec.name for spec in shard_specs} if shard_specs is not None else None
    )
    for kind, records in rows._by_kind():
        for record in records:
            spec = by_name.get(record.name)
            if spec is None:
                raise CampaignResumeError(
                    f"cannot resume {path}: {kind} row for unknown spec "
                    f"{record.name!r}"
                )
            if in_shard is not None and record.name not in in_shard:
                raise CampaignResumeError(
                    f"cannot resume {path}: {kind} row for spec "
                    f"{record.name!r} does not belong to shard "
                    f"{expected['shard']} (the file mixes rows of another "
                    f"shard — was the campaign re-partitioned?)"
                )
            if kind == "pair":
                if not spec_is_pairable(spec):
                    raise CampaignResumeError(
                        f"cannot resume {path}: pair row for non-pairable "
                        f"spec {record.name!r}"
                    )
                continue
            expected_identity = spec.with_mode(record.mode).identity_row()
            row_identity = {key: getattr(record, key) for key in expected_identity}
            if row_identity != expected_identity:
                raise CampaignResumeError(
                    f"cannot resume {path}: {kind} row for spec "
                    f"{record.name!r} was written by a different spec "
                    f"definition ({row_identity} != {expected_identity})"
                )
    rows.timeouts = []
    try:
        rows.check_unique()
    except ValueError as exc:
        raise CampaignResumeError(
            f"{path}: {exc}; cannot resume from a corrupt file"
        ) from None
    return rows


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------
def _check_merge_completeness(rows: CampaignRows) -> None:
    """Reject incomplete merges: a missing shard, a truncated file or a
    dropped pair row must fail loudly instead of yielding a plausible
    partial fingerprint.  A spec with a ``timeout`` row is complete *as a
    timeout*: its run/pair rows are excused — the timeout row is its
    deterministic outcome until a resume re-runs it.  The excusal is by
    spec name, not (name, mode): when the half matching the spec's own
    mode is the one killed, the completed other half legitimately leaves
    no row at all (a half only writes a run row for the spec's own mode,
    and the pair never completes), and the merge cannot know the own mode
    from rows alone.  Contradictions it *can* see — a run row and a
    timeout row for the same (name, mode) — are rejected by
    :meth:`CampaignRows.check_unique`."""
    headers = rows.headers
    shards = [h.get("shard") for h in headers]
    if any(shards) and not all(shards):
        raise ValueError(
            "cannot mix sharded and unsharded campaign JSONL files in one merge"
        )
    if any(shards):
        # Shards are slices of ONE campaign: the headers record the whole
        # (pre-partitioning) spec list, which must be identical everywhere —
        # shards of different campaigns would otherwise merge into a
        # plausible fingerprint that corresponds to no real campaign.
        spec_lists = {tuple(h.get("specs", [])) for h in headers}
        if len(spec_lists) != 1:
            raise ValueError(
                "merged shard headers describe different campaigns "
                "(their spec lists differ)"
            )
        parsed = set()
        counts = set()
        for shard in shards:
            index_text, _, count_text = str(shard).partition("/")
            parsed.add(int(index_text))
            counts.add(int(count_text))
        if len(counts) != 1:
            raise ValueError(
                f"merged shard headers disagree on the shard count: {sorted(counts)}"
            )
        count = counts.pop()
        missing = sorted(set(range(count)) - parsed)
        if missing:
            raise ValueError(
                f"incomplete shard set: missing shard(s) "
                f"{', '.join(f'{m}/{count}' for m in missing)}"
            )
    timeout_names = {record.name for record in rows.timeouts}
    run_names = {record.name for record in rows.runs}
    expected = [str(name) for h in headers for name in h.get("specs", [])]
    missing_runs = sorted(set(expected) - run_names - timeout_names)
    if missing_runs:
        raise ValueError(
            f"no run row for spec(s) {', '.join(missing_runs)} — a shard "
            f"file is truncated or a campaign did not finish"
        )
    if all(h.get("paired") for h in headers):
        pair_names = {pair.name for pair in rows.pairs} | timeout_names
        missing_pairs = []
        for record in rows.runs:
            spec = ScenarioSpec(
                name=record.name,
                workload=record.workload,
                mode=record.mode,
                depth=record.depth,
                quantum_ns=record.quantum_ns,
                seed=record.seed,
                timing=record.timing,
            )
            try:
                pairable = spec_is_pairable(spec)
            except KeyError:  # workload unknown to this checkout
                continue
            if pairable and record.name not in pair_names:
                missing_pairs.append(record.name)
        if missing_pairs:
            raise ValueError(
                f"no pair row for pairable spec(s) "
                f"{', '.join(sorted(missing_pairs))} — a shard file is "
                f"truncated or a campaign did not finish"
            )


def merge_jsonl(paths: Sequence[str]) -> "CampaignResult":
    """Merge campaign JSONL files (e.g. one per shard) into one result.

    The merged :meth:`CampaignResult.fingerprint` is byte-identical to what
    an unsharded run of the union of the shards would produce: the rows
    carry only deterministic fields and the aggregate sorts by spec name.
    Duplicate (name, mode) runs — the same spec in two shards — are
    rejected, as they would be in an unsharded campaign; so are an empty
    path list and incomplete merges (a missing shard of an ``i/N`` set, a
    header spec without its run row, a pairable run without its pair
    row), which would otherwise produce a plausible-looking partial
    fingerprint.  ``timeout`` rows are first-class: a budget-killed spec's
    timeout row stands in for its run/pair rows, and the merged
    fingerprint covers it.
    """
    if not paths:
        raise ValueError("no campaign JSONL file to merge")
    rows = CampaignRows()
    for path in paths:
        read_jsonl(path, rows)
    rows.check_unique()
    _check_merge_completeness(rows)
    return CampaignResult(
        runs=rows.runs,
        pairs=rows.pairs,
        workers=max(int(h.get("workers", 0)) for h in rows.headers),
        wall_seconds=0.0,
        timeouts=rows.timeouts,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Aggregated outcome of one campaign execution."""

    runs: List[SpecRunRecord]
    pairs: List[PairRecord]
    workers: int
    wall_seconds: float
    #: ``(index, count)`` when this result covers one shard of a campaign.
    shard: Optional[Tuple[int, int]] = None
    #: Budget-killed jobs (see :class:`TimeoutRecord`); empty for an
    #: unbudgeted or on-budget campaign.
    timeouts: List[TimeoutRecord] = field(default_factory=list)

    @property
    def all_pairs_equivalent(self) -> bool:
        return all(pair.equivalent for pair in self.pairs)

    @property
    def complete(self) -> bool:
        """True when no job was killed by a budget (``--resume`` heals an
        incomplete campaign by re-running its timed-out specs)."""
        return not self.timeouts

    def worker_pids(self) -> List[int]:
        """Distinct worker PIDs that executed work (provenance only).

        Pairs contribute the PIDs of both of their halves; records rebuilt
        from JSONL carry PID 0, which is filtered out."""
        pids = {record.worker_pid for record in self.runs}
        for pair in self.pairs:
            pids.update(pair.worker_pids)
        pids.discard(0)
        return sorted(pids)

    def aggregate_rows(self) -> Dict[str, List[Dict[str, object]]]:
        """The deterministic aggregate: identical for any worker count.

        The ``timeouts`` key appears only when a budget killed a job, so
        the fingerprint of every campaign without timeouts is unchanged
        from the pre-budget pipeline byte for byte.
        """
        rows = {
            "runs": [
                record.deterministic_row()
                for record in sorted(self.runs, key=lambda r: (r.name, r.mode))
            ],
            "pairs": [
                pair.deterministic_row()
                for pair in sorted(self.pairs, key=lambda p: p.name)
            ],
        }
        if self.timeouts:
            rows["timeouts"] = [
                record.deterministic_row()
                for record in sorted(
                    self.timeouts, key=lambda t: (t.name, t.mode)
                )
            ]
        return rows

    def canonical_json(self) -> str:
        return json.dumps(
            self.aggregate_rows(), sort_keys=True, separators=(",", ":")
        )

    def fingerprint(self) -> str:
        """SHA-256 over the canonical aggregate (the comparison handle)."""
        import hashlib  # loads OpenSSL: only a fingerprinted campaign needs it

        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # ------------------------------------------------------------------
    def run_rows(self) -> List[Dict[str, object]]:
        """Printable per-run rows (wall times included, for humans)."""
        rows = []
        for record in sorted(self.runs, key=lambda r: (r.name, r.mode)):
            row = record.deterministic_row()
            row["extra"] = json.dumps(row["extra"], sort_keys=True)
            row["trace_digest"] = record.trace_digest[:12]
            row["wall_s"] = round(record.wall_seconds, 4)
            rows.append(row)
        return rows

    def pair_rows(self) -> List[Dict[str, object]]:
        rows = []
        for pair in sorted(self.pairs, key=lambda p: p.name):
            rows.append(
                {
                    "name": pair.name,
                    "equivalent": pair.equivalent,
                    "trace_lines": pair.reference_lines,
                    "reference_digest": pair.reference_digest[:12],
                    "smart_digest": pair.smart_digest[:12],
                    "wall_s": round(pair.wall_seconds, 4),
                }
            )
        return rows

    def table(self) -> str:
        from ..analysis.reporting import dict_rows_table  # tables are for humans

        columns = [
            "name", "workload", "mode", "depth", "seed", "context_switches",
            "trace_lines", "trace_digest", "wall_s",
        ]
        return dict_rows_table(self.run_rows(), columns, title="Campaign runs")

    def pairs_table(self) -> str:
        from ..analysis.reporting import dict_rows_table  # tables are for humans

        return dict_rows_table(
            self.pair_rows(),
            ["name", "equivalent", "trace_lines", "reference_digest",
             "smart_digest", "wall_s"],
            title="Paired reference/Smart equivalence (Section IV-A)",
        )

    def summary(self) -> str:
        shard = (
            f", shard={self.shard[0]}/{self.shard[1]}" if self.shard else ""
        )
        lines = [
            f"{len(self.runs)} runs, {len(self.pairs)} pairs, "
            f"workers={self.workers}{shard}, wall={self.wall_seconds:.2f}s",
            f"worker processes used: {len(self.worker_pids())}",
            f"all pairs equivalent: {self.all_pairs_equivalent}",
            f"campaign fingerprint: {self.fingerprint()}",
        ]
        if self.timeouts:
            lines.append(f"budget timeouts: {len(self.timeouts)}")
            for record in sorted(self.timeouts, key=lambda t: (t.name, t.mode)):
                lines.append(
                    f"TIMEOUT {record.name} [{record.mode}]: exceeded the "
                    f"{record.scope} limit of {record.limit_s}s "
                    f"(--resume re-runs it)"
                )
        for pair in sorted(self.pairs, key=lambda p: p.name):
            if not pair.equivalent:
                lines.append(f"PAIR MISMATCH {pair.name}:\n{pair.report}")
        return "\n".join(lines)
