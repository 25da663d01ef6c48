"""Process-local telemetry: spans, counters and gauges on a sideband.

The campaign's deterministic JSONL rows must never contain wall-clock
values or PIDs — that property is what makes shard files merge byte for
byte (see :mod:`repro.campaign.runner`).  Everything wall-clock therefore
lives *beside* the rows: a :class:`Telemetry` instance records
monotonic-clock spans, scalar counters and gauges into a bounded
in-memory buffer and flushes them as a JSONL *sideband* file that tooling
(``repro.analysis.cli telemetry-report``) folds into human tables.

Disabled is the default and must cost (almost) nothing: hot paths guard
with one attribute check — ``if telemetry.enabled:`` — against the
module-level :data:`NULL_TELEMETRY` singleton, exactly the discipline of
:class:`repro.kernel.tracing.NullSink` and ``Simulator.dep_recorder``.

Sideband schema (one JSON object per line)::

    {"kind": "meta", "schema": 1, "component": "campaign-worker",
     "pid": 1234, "host": "..."}                       # once per writer
    {"kind": "span", "name": "campaign.execute", "pid": 1234,
     "t0": 12.345, "dur_s": 0.042, "self_s": 0.017,
     "attrs": {"spec": "streaming_d2"}}                # optional attrs
    {"kind": "counter", "name": "kernel.delta_cycles", "pid": 1234,
     "value": 1882}
    {"kind": "gauge", "name": "campaign.workers", "pid": 1234,
     "value": 4}

``t0`` is :func:`time.monotonic` — on Linux a system-wide clock, so spans
stamped by the campaign parent (job enqueue) and measured in a worker
(job start) subtract meaningfully.  Every event carries the writer's
``pid``, which makes merging a directory of per-worker files a plain
concatenation (:func:`merge_telemetry_files`) without losing worker
attribution.  PIDs and wall-clock are *only* ever written here, never
into deterministic campaign rows.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Dict, IO, Iterable, List, Optional, Sequence

#: Version of the sideband line format above.
TELEMETRY_SCHEMA = 1

#: Default bound of the in-memory span buffer; overflowing events are
#: dropped and counted under the ``telemetry.dropped_events`` counter.
DEFAULT_BUFFER_LIMIT = 100_000


class _NullSpan:
    """The no-op context manager :data:`NULL_TELEMETRY` hands out."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Telemetry that is off: every method is a no-op.

    Hot paths never call these methods — they guard with the class-level
    ``enabled`` attribute first (one load, one truth test), so the
    disabled configuration pays one attribute check, not a call.
    """

    enabled = False

    def span(self, name: str, **attrs) -> "_NullSpan":
        return _NULL_SPAN

    def span_at(self, name: str, t0: float, dur_s: float, **attrs) -> None:
        pass

    def counter(self, name: str, value=1) -> None:
        pass

    def gauge(self, name: str, value) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared disabled instance: everything instrumentable defaults to it.
NULL_TELEMETRY = NullTelemetry()


class _Span:
    """An open span: context manager measuring one monotonic interval.

    Nested spans report their *self* time too: each frame accumulates the
    duration of its direct children, and ``self_s = dur_s - child_s`` —
    the quantity ``telemetry-report`` ranks by when a parent span (say
    ``kernel.run``) is dominated by an instrumented child phase.
    """

    __slots__ = ("_telemetry", "name", "attrs", "_t0", "_child_s")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict[str, object]):
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0
        self._child_s = 0.0

    def __enter__(self) -> "_Span":
        self._telemetry._stack.append(self)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_s = time.monotonic() - self._t0
        telemetry = self._telemetry
        stack = telemetry._stack
        stack.pop()
        if stack:
            stack[-1]._child_s += dur_s
        telemetry._record_span(
            self.name, self._t0, dur_s, dur_s - self._child_s, self.attrs
        )
        return False


class Telemetry:
    """An enabled telemetry recorder bound to one sideband file.

    Parameters
    ----------
    component:
        Writer identity stamped into the file's meta line
        (``"campaign"``, ``"campaign-worker"``, ...).
    path:
        Sideband JSONL file :meth:`flush` appends to.  ``None`` keeps
        events purely in memory (unit tests, ad-hoc inspection via
        :meth:`drain`).
    buffer_limit:
        Bound of the span/event buffer; overflow drops the event and
        counts it (``telemetry.dropped_events``), it never grows the
        buffer — a campaign must not trade determinism for memory.
    """

    enabled = True

    def __init__(
        self,
        component: str,
        path: Optional[str] = None,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
    ):
        if buffer_limit < 1:
            raise ValueError(f"buffer_limit must be >= 1, got {buffer_limit}")
        self.component = component
        self.path = path
        self.buffer_limit = buffer_limit
        self.pid = os.getpid()
        self._events: List[Dict[str, object]] = []
        self._counters: Dict[str, float] = {}
        self._flushed_counters: Dict[str, float] = {}
        self._gauges: Dict[str, object] = {}
        self._stack: List[_Span] = []
        self._dropped = 0
        self._meta_written = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """Open a span: ``with telemetry.span("campaign.execute", spec=n):``"""
        return _Span(self, name, attrs)

    def span_at(self, name: str, t0: float, dur_s: float, **attrs) -> None:
        """Record an externally measured span (``t0`` in monotonic
        seconds) — e.g. a queue wait whose start was stamped by another
        process on the same machine."""
        self._record_span(name, t0, dur_s, dur_s, attrs)

    def _record_span(
        self,
        name: str,
        t0: float,
        dur_s: float,
        self_s: float,
        attrs: Dict[str, object],
    ) -> None:
        if len(self._events) >= self.buffer_limit:
            self._dropped += 1
            return
        event: Dict[str, object] = {
            "kind": "span",
            "name": name,
            "pid": self.pid,
            "t0": t0,
            "dur_s": dur_s,
            "self_s": max(self_s, 0.0),
        }
        if attrs:
            event["attrs"] = attrs
        self._events.append(event)

    def counter(self, name: str, value=1) -> None:
        """Accumulate ``value`` (int or float) under ``name``."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value) -> None:
        """Set ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    # ------------------------------------------------------------------
    # Flushing / inspection
    # ------------------------------------------------------------------
    def _meta_line(self) -> Dict[str, object]:
        return {
            "kind": "meta",
            "schema": TELEMETRY_SCHEMA,
            "component": self.component,
            "pid": self.pid,
            "host": socket.gethostname(),
        }

    def drain(self) -> List[Dict[str, object]]:
        """All pending events (meta + spans + counter deltas + gauges),
        clearing the buffer — what a :meth:`flush` would have written."""
        events: List[Dict[str, object]] = []
        if not self._meta_written:
            events.append(self._meta_line())
            self._meta_written = True
        if self._dropped:
            self.counter("telemetry.dropped_events", self._dropped)
            self._dropped = 0
        events.extend(self._events)
        self._events = []
        for name in sorted(self._counters):
            total = self._counters[name]
            delta = total - self._flushed_counters.get(name, 0)
            if delta:
                events.append(
                    {
                        "kind": "counter",
                        "name": name,
                        "pid": self.pid,
                        "value": delta,
                    }
                )
            self._flushed_counters[name] = total
        for name in sorted(self._gauges):
            events.append(
                {
                    "kind": "gauge",
                    "name": name,
                    "pid": self.pid,
                    "value": self._gauges[name],
                }
            )
        self._gauges = {}
        return events

    def flush(self) -> None:
        """Append pending events to :attr:`path` (no-op without a path).

        Counters flush as *deltas* since the previous flush, so a worker
        appending after every job never double-counts; gauges flush their
        latest value and reset."""
        events = self.drain()
        if self.path is None or not events:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a") as stream:
            _write_events(stream, events)

    def close(self) -> None:
        if self._stack:
            raise RuntimeError(
                f"telemetry closed with {len(self._stack)} open span(s): "
                f"{', '.join(frame.name for frame in self._stack)}"
            )
        self.flush()


def _write_events(stream: IO[str], events: Iterable[Dict[str, object]]) -> None:
    for event in events:
        stream.write(json.dumps(event, sort_keys=True, separators=(",", ":")))
        stream.write("\n")


# ---------------------------------------------------------------------------
# Reading the sideband back
# ---------------------------------------------------------------------------
def load_events(path: str) -> List[Dict[str, object]]:
    """Parse one sideband JSONL file into its event dicts.

    Raises :class:`ValueError` with the line number on corrupt lines and
    on meta lines claiming a schema this reader does not speak."""
    events: List[Dict[str, object]] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path} line {number} is not valid JSON: {exc}"
                ) from None
            if not isinstance(event, dict) or "kind" not in event:
                raise ValueError(
                    f"{path} line {number} is not a telemetry event"
                )
            if event["kind"] == "meta":
                schema = event.get("schema")
                if schema != TELEMETRY_SCHEMA:
                    raise ValueError(
                        f"{path} line {number} uses telemetry schema "
                        f"{schema!r}; this version reads schema "
                        f"{TELEMETRY_SCHEMA}"
                    )
            events.append(event)
    return events


def _is_telemetry_file(path: str) -> bool:
    """Whether the first non-empty line looks like a telemetry event.

    Directory expansion sniffs files instead of trusting the extension:
    a telemetry directory routinely also holds the campaign's *rows*
    JSONL, which is not a sideband and must not poison a report."""
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    return False
                return isinstance(event, dict) and "kind" in event
    except OSError:
        return False
    return True  # an empty file merges to nothing, harmlessly


def telemetry_files(paths: Sequence[str]) -> List[str]:
    """Expand files and directories into sideband file paths.

    A directory contributes its ``*.jsonl`` files in sorted order,
    skipping JSONL that is not a telemetry sideband (see
    :func:`_is_telemetry_file`); a missing path — or a directory with no
    sideband files — raises (a typo must not silently report on
    nothing).  Explicitly named files are never filtered: naming a
    non-telemetry file is an error the reader reports."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            candidates = [
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".jsonl")
            ]
            candidates = [c for c in candidates if _is_telemetry_file(c)]
            if not candidates:
                raise ValueError(f"{path} contains no telemetry .jsonl files")
            files.extend(candidates)
        elif os.path.exists(path):
            files.append(path)
        else:
            raise ValueError(f"telemetry path {path} does not exist")
    return files


def merge_telemetry_files(
    sources: Sequence[str], destination: str, remove_sources: bool = False
) -> int:
    """Concatenate sideband files into ``destination``; return the event
    count.  Every event line carries its writer's pid, so concatenation
    loses nothing; sources are validated line by line first (a torn
    worker file must fail loudly, not poison the merged report).  With
    ``remove_sources`` the per-worker parts are deleted after the merge —
    the campaign's end-of-run fold into one ``telemetry.jsonl``."""
    merged: List[Dict[str, object]] = []
    for source in sources:
        merged.extend(load_events(source))
    directory = os.path.dirname(destination)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp_path = destination + ".tmp"
    with open(tmp_path, "w") as stream:
        _write_events(stream, merged)
    os.replace(tmp_path, destination)
    if remove_sources:
        for source in sources:
            if os.path.abspath(source) != os.path.abspath(destination):
                os.remove(source)
    return len(merged)
