"""Fold telemetry sideband files into human tables.

Backs the ``repro.analysis.cli telemetry-report`` subcommand: one or many
sideband JSONL files (or directories of them — a campaign ``--telemetry``
directory) aggregate into

* **top spans** ranked by total and self time,
* **counters** and the latest **gauges**,
* **worker utilization** — per campaign-worker busy/queue-wait split over
  the observed wall window,
* a **replay routing breakdown** (simulated vs replayed points, envelope
  refusals by probing construct).

Everything here is read-side only: it consumes the schema written by
:mod:`repro.telemetry.core` and renders with the repo's standard ASCII
tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .core import load_events, telemetry_files


class SpanAgg:
    """Aggregate of all spans sharing one name."""

    __slots__ = ("name", "count", "total_s", "self_s", "max_s")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0

    def add(self, dur_s: float, self_s: float) -> None:
        self.count += 1
        self.total_s += dur_s
        self.self_s += self_s
        if dur_s > self.max_s:
            self.max_s = dur_s


class TelemetryAggregate:
    """Everything the report sections read, built in one pass."""

    def __init__(self):
        self.files: List[str] = []
        self.spans: Dict[str, SpanAgg] = {}
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, object] = {}
        #: ``pid -> component`` from meta lines.
        self.components: Dict[int, str] = {}
        #: ``pid -> (busy_s, queue_wait_s, first_t0, last_end)`` for
        #: campaign workers (busy = execute + serialize span time).
        self.workers: Dict[int, List[float]] = {}
        self.event_count = 0

    # ------------------------------------------------------------------
    def add_file(self, path: str) -> None:
        self.files.append(path)
        for event in load_events(path):
            self.event_count += 1
            kind = event.get("kind")
            if kind == "meta":
                pid = event.get("pid")
                if isinstance(pid, int):
                    self.components[pid] = str(event.get("component", "?"))
            elif kind == "span":
                self._add_span(event)
            elif kind == "counter":
                name = str(event.get("name"))
                self.counters[name] = (
                    self.counters.get(name, 0) + event.get("value", 0)
                )
            elif kind == "gauge":
                self.gauges[str(event.get("name"))] = event.get("value")

    def _add_span(self, event: Dict[str, object]) -> None:
        name = str(event.get("name"))
        dur_s = float(event.get("dur_s", 0.0))
        self_s = float(event.get("self_s", dur_s))
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = SpanAgg(name)
        agg.add(dur_s, self_s)
        pid = event.get("pid")
        if isinstance(pid, int) and name in (
            "campaign.execute", "campaign.serialize", "campaign.queue_wait"
        ):
            window = self.workers.setdefault(
                pid, [0.0, 0.0, float("inf"), 0.0]
            )
            t0 = float(event.get("t0", 0.0))
            if name == "campaign.queue_wait":
                window[1] += dur_s
            else:
                window[0] += dur_s
            if t0 < window[2]:
                window[2] = t0
            if t0 + dur_s > window[3]:
                window[3] = t0 + dur_s

    # ------------------------------------------------------------------
    def span_rows(self, top: int) -> List[Dict[str, object]]:
        ranked = sorted(
            self.spans.values(), key=lambda agg: agg.total_s, reverse=True
        )[:top]
        return [
            {
                "span": agg.name,
                "count": agg.count,
                "total_s": f"{agg.total_s:.4f}",
                "self_s": f"{agg.self_s:.4f}",
                "mean_ms": f"{agg.total_s / agg.count * 1e3:.3f}",
                "max_ms": f"{agg.max_s * 1e3:.3f}",
            }
            for agg in ranked
        ]

    def counter_rows(self, top: int) -> List[Dict[str, object]]:
        ranked = sorted(self.counters.items())[:top]
        return [
            {
                "counter": name,
                "value": (
                    f"{value:.6f}".rstrip("0").rstrip(".")
                    if isinstance(value, float)
                    else value
                ),
            }
            for name, value in ranked
        ]

    def worker_rows(self) -> List[Dict[str, object]]:
        rows = []
        for pid in sorted(self.workers):
            busy_s, wait_s, first, last = self.workers[pid]
            window = max(last - first, 0.0)
            utilization = busy_s / window if window > 0 else 0.0
            rows.append(
                {
                    "worker": f"{self.components.get(pid, 'worker')}:{pid}",
                    "busy_s": f"{busy_s:.4f}",
                    "queue_wait_s": f"{wait_s:.4f}",
                    "window_s": f"{window:.4f}",
                    "utilization": f"{min(utilization, 1.0):.1%}",
                }
            )
        return rows

    def replay_rows(self) -> List[Dict[str, object]]:
        return [
            {"metric": name, "value": value}
            for name, value in sorted(self.counters.items())
            if name.startswith("replay.")
        ]


def aggregate_telemetry(paths: Sequence[str]) -> TelemetryAggregate:
    """Load and fold every sideband file under ``paths`` (files or dirs)."""
    aggregate = TelemetryAggregate()
    for path in telemetry_files(paths):
        aggregate.add_file(path)
    return aggregate


def render_report(
    paths: Sequence[str],
    top: int = 15,
    aggregate: Optional[TelemetryAggregate] = None,
) -> str:
    """The full ``telemetry-report`` text for ``paths``."""
    from ..analysis.reporting import dict_rows_table

    if aggregate is None:
        aggregate = aggregate_telemetry(paths)
    sections: List[str] = [
        f"{aggregate.event_count} events from {len(aggregate.files)} "
        f"telemetry file(s)"
    ]
    span_rows = aggregate.span_rows(top)
    if span_rows:
        sections.append(
            dict_rows_table(
                span_rows,
                ["span", "count", "total_s", "self_s", "mean_ms", "max_ms"],
                title=f"Top spans by total time (top {top})",
            )
        )
    worker_rows = aggregate.worker_rows()
    if worker_rows:
        sections.append(
            dict_rows_table(
                worker_rows,
                ["worker", "busy_s", "queue_wait_s", "window_s", "utilization"],
                title="Worker utilization (execute+serialize over observed window)",
            )
        )
    replay_rows = aggregate.replay_rows()
    if replay_rows:
        sections.append(
            dict_rows_table(
                replay_rows,
                ["metric", "value"],
                title="Replay routing breakdown",
            )
        )
    counter_rows = aggregate.counter_rows(top)
    if counter_rows:
        sections.append(
            dict_rows_table(
                counter_rows,
                ["counter", "value"],
                title=f"Counters (first {top}, alphabetical)",
            )
        )
    gauge_items = sorted(
        (name, value)
        for name, value in aggregate.gauges.items()
    )
    if gauge_items:
        sections.append(
            dict_rows_table(
                [{"gauge": name, "value": value} for name, value in gauge_items],
                ["gauge", "value"],
                title="Gauges (latest value)",
            )
        )
    return "\n\n".join(sections)
