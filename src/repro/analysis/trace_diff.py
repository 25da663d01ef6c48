"""Trace equivalence checking (the validation methodology of Section IV-A).

Each validation scenario is executed twice: once with regular FIFOs and no
temporal decoupling, once with Smart FIFOs and temporal decoupling (random
scenarios reuse the same seed).  Both executions emit locally-timestamped
trace lines.  Because temporal decoupling changes the schedule, the lines
are not emitted in the same order — dates may even decrease between
consecutive lines of the decoupled run — so the comparison is done *after
reordering*: a test passes iff the two sorted traces are identical, meaning
neither the behaviour nor the timing changed at all.

Two implementations of the reorder-and-compare check coexist:

* the historical in-memory one (:func:`compare_traces` and friends), which
  sorts full line lists — fine for unit tests and small runs;
* :func:`compare_spools`, which merge-walks two
  :class:`~repro.kernel.tracing.SpoolSink` spools in sorted order and
  never materializes either trace, so campaign-sized mismatch diffs stay
  memory-bounded.  Both produce identical :class:`TraceComparison`
  contents for the same records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..kernel.tracing import ListSink, SpoolSink, TraceRecord, format_entry


@dataclass
class TraceComparison:
    """Outcome of an equivalence check between two trace sets."""

    equivalent: bool
    #: Lines present only in the reference / only in the candidate run.
    missing_in_candidate: List[str]
    unexpected_in_candidate: List[str]
    reference_count: int
    candidate_count: int

    def report(self) -> str:
        """Human-readable summary (used in assertion messages)."""
        if self.equivalent:
            return (
                f"traces equivalent ({self.reference_count} lines, identical "
                f"after reordering)"
            )
        lines = [
            f"traces differ: {self.reference_count} reference lines, "
            f"{self.candidate_count} candidate lines"
        ]
        for line in self.missing_in_candidate[:10]:
            lines.append(f"  missing in candidate: {line}")
        for line in self.unexpected_in_candidate[:10]:
            lines.append(f"  unexpected in candidate: {line}")
        return "\n".join(lines)


def sorted_lines(trace: Iterable[TraceRecord]) -> List[str]:
    """The reordered, formatted lines of a trace (the comparison key)."""
    return [record.format() for record in sorted(trace, key=TraceRecord.sort_key)]


def _multiset_diff(left: Sequence[str], right: Sequence[str]) -> List[str]:
    """Elements of ``left`` not matched by an element of ``right`` (multiset)."""
    from collections import Counter

    remaining = Counter(right)
    missing = []
    for item in left:
        if remaining[item] > 0:
            remaining[item] -= 1
        else:
            missing.append(item)
    return missing


def compare_sorted_lines(
    ref_lines: Sequence[str], cand_lines: Sequence[str]
) -> TraceComparison:
    """Compare two already-reordered line lists (multiset equality).

    This is the building block of the split-pair campaign aggregation: the
    worker that ran each half of a reference/Smart pair ships back its
    reordered trace lines, and the parent process diffs them here.
    """
    missing = _multiset_diff(ref_lines, cand_lines)
    unexpected = _multiset_diff(cand_lines, ref_lines)
    return TraceComparison(
        equivalent=not missing and not unexpected,
        missing_in_candidate=missing,
        unexpected_in_candidate=unexpected,
        reference_count=len(ref_lines),
        candidate_count=len(cand_lines),
    )


def compare_traces(
    reference: Iterable[TraceRecord], candidate: Iterable[TraceRecord]
) -> TraceComparison:
    """Compare two record streams after reordering (multiset equality)."""
    return compare_sorted_lines(sorted_lines(reference), sorted_lines(candidate))


def compare_spools(reference: SpoolSink, candidate: SpoolSink) -> TraceComparison:
    """Streaming reorder-and-compare over two trace spools.

    Both spools stream their encoded entries in sort-key order, so one
    merge walk finds the multiset difference without materializing either
    trace: equal heads cancel, the smaller head is exclusive to its side.
    The resulting :class:`TraceComparison` is identical (contents and line
    order) to running :func:`compare_traces` on the same records — only
    the diff lines themselves are ever held in memory.
    """
    missing: List[str] = []
    unexpected: List[str] = []
    ref_iter = reference.iter_encoded()
    cand_iter = candidate.iter_encoded()
    ref_entry = next(ref_iter, None)
    cand_entry = next(cand_iter, None)
    while ref_entry is not None and cand_entry is not None:
        if ref_entry == cand_entry:
            ref_entry = next(ref_iter, None)
            cand_entry = next(cand_iter, None)
        elif ref_entry < cand_entry:
            missing.append(format_entry(ref_entry))
            ref_entry = next(ref_iter, None)
        else:
            unexpected.append(format_entry(cand_entry))
            cand_entry = next(cand_iter, None)
    while ref_entry is not None:
        missing.append(format_entry(ref_entry))
        ref_entry = next(ref_iter, None)
    while cand_entry is not None:
        unexpected.append(format_entry(cand_entry))
        cand_entry = next(cand_iter, None)
    return TraceComparison(
        equivalent=not missing and not unexpected,
        missing_in_candidate=missing,
        unexpected_in_candidate=unexpected,
        reference_count=len(reference),
        candidate_count=len(candidate),
    )


def compare_collectors(
    reference: ListSink, candidate: ListSink
) -> TraceComparison:
    """Convenience wrapper for whole-simulation trace collectors."""
    return compare_traces(reference.records, candidate.records)


def emission_order_changed(
    reference: ListSink, candidate: ListSink
) -> bool:
    """True when the raw (unsorted) emission orders differ.

    The paper points out that with temporal decoupling "dates may decrease
    when we switch from one process to the next": observing a changed
    emission order together with equivalent sorted traces is exactly the
    expected signature of a correct Smart FIFO run.
    """
    return reference.formatted_lines() != candidate.formatted_lines()
