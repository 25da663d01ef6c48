"""Telemetry sideband: schema, round-trip, merge, ticker and report.

The contract under test is the one the campaign's determinism story
rests on: telemetry is a *sideband* — spans/counters/gauges with pids
and monotonic timestamps live in their own JSONL files, written with a
documented schema, parse back exactly, and merge by concatenation; the
disabled default is a single shared no-op object.
"""

import io
import json
import os

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    TELEMETRY_SCHEMA,
    NullTelemetry,
    ProgressTicker,
    Telemetry,
    aggregate_telemetry,
    load_events,
    merge_telemetry_files,
    render_report,
    telemetry_files,
)


class TestNullTelemetry:
    def test_disabled_flag_is_a_class_attribute(self):
        # Hot paths guard with `if telemetry.enabled:` — the whole
        # disabled cost is this one attribute load.
        assert NullTelemetry.enabled is False
        assert NULL_TELEMETRY.enabled is False
        assert Telemetry.enabled is True

    def test_every_method_is_a_no_op(self):
        with NULL_TELEMETRY.span("anything", attr=1):
            pass
        NULL_TELEMETRY.span_at("anything", 0.0, 1.0)
        NULL_TELEMETRY.counter("c", 3)
        NULL_TELEMETRY.gauge("g", 7)
        NULL_TELEMETRY.flush()
        NULL_TELEMETRY.close()


class TestSchemaAndRoundTrip:
    def test_flush_writes_schema_1_events(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        telemetry = Telemetry("unit", path=path)
        with telemetry.span("outer", spec="s"):
            with telemetry.span("inner"):
                pass
        telemetry.counter("hits", 2)
        telemetry.gauge("level", 4)
        telemetry.close()

        events = load_events(path)
        kinds = [event["kind"] for event in events]
        assert kinds == ["meta", "span", "span", "counter", "gauge"]
        meta = events[0]
        assert meta["schema"] == TELEMETRY_SCHEMA
        assert meta["component"] == "unit"
        assert meta["pid"] == os.getpid()
        # Every non-meta event carries the writer's pid — the invariant
        # that makes merging a plain concatenation.
        assert all(event["pid"] == os.getpid() for event in events[1:])
        # Inner spans flush before their enclosing span closes them.
        inner, outer = events[1], events[2]
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert outer["attrs"] == {"spec": "s"}
        # Self time excludes the instrumented child.
        assert outer["self_s"] <= outer["dur_s"]
        assert events[3] == {
            "kind": "counter", "name": "hits",
            "pid": os.getpid(), "value": 2,
        }
        assert events[4]["value"] == 4

    def test_counters_flush_as_deltas(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        telemetry = Telemetry("unit", path=path)
        telemetry.counter("jobs", 3)
        telemetry.flush()
        telemetry.counter("jobs", 2)
        telemetry.flush()
        values = [
            event["value"]
            for event in load_events(path)
            if event["kind"] == "counter"
        ]
        # Appending after every job must not double-count: 3 then +2.
        assert values == [3, 2]

    def test_span_exception_still_records(self):
        telemetry = Telemetry("unit")
        with pytest.raises(RuntimeError):
            with telemetry.span("failing"):
                raise RuntimeError("boom")
        events = telemetry.drain()
        assert any(
            event["kind"] == "span" and event["name"] == "failing"
            for event in events
        )

    def test_close_with_open_span_is_an_error(self):
        telemetry = Telemetry("unit")
        span = telemetry.span("left-open")
        span.__enter__()
        with pytest.raises(RuntimeError, match="left-open"):
            telemetry.close()

    def test_buffer_overflow_drops_and_counts(self):
        telemetry = Telemetry("unit", buffer_limit=2)
        for index in range(5):
            telemetry.span_at(f"s{index}", 0.0, 0.1)
        events = telemetry.drain()
        spans = [event for event in events if event["kind"] == "span"]
        assert len(spans) == 2
        dropped = [
            event for event in events
            if event["kind"] == "counter"
            and event["name"] == "telemetry.dropped_events"
        ]
        assert dropped and dropped[0]["value"] == 3

    def test_corrupt_line_is_rejected_with_its_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind":"gauge","name":"g","pid":1,"value":1}\nnope\n')
        with pytest.raises(ValueError, match="line 2"):
            load_events(str(path))

    def test_unknown_schema_is_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"kind": "meta", "schema": 99}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            load_events(str(path))


class TestDirectoryExpansionAndMerge:
    def _write(self, path, component="unit"):
        telemetry = Telemetry(component, path=str(path))
        telemetry.counter("hits")
        telemetry.close()

    def test_directory_skips_non_telemetry_jsonl(self, tmp_path):
        self._write(tmp_path / "a.jsonl")
        # The campaign rows file routinely shares the directory; its rows
        # have no "kind" and must not poison a report.
        (tmp_path / "rows.jsonl").write_text(
            '{"type":"campaign","schema":3}\n'
        )
        files = telemetry_files([str(tmp_path)])
        assert files == [str(tmp_path / "a.jsonl")]

    def test_missing_path_and_empty_directory_raise(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            telemetry_files([str(tmp_path / "absent.jsonl")])
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no telemetry"):
            telemetry_files([str(empty)])

    def test_explicit_file_is_never_filtered(self, tmp_path):
        rows = tmp_path / "rows.jsonl"
        rows.write_text('{"type":"campaign"}\n')
        assert telemetry_files([str(rows)]) == [str(rows)]
        with pytest.raises(ValueError, match="not a telemetry event"):
            load_events(str(rows))

    def test_merge_concatenates_and_removes_sources(self, tmp_path):
        self._write(tmp_path / "parent.jsonl", "campaign")
        self._write(tmp_path / "worker-1.jsonl", "campaign-worker")
        destination = str(tmp_path / "telemetry.jsonl")
        count = merge_telemetry_files(
            [str(tmp_path / "parent.jsonl"), str(tmp_path / "worker-1.jsonl")],
            destination,
            remove_sources=True,
        )
        events = load_events(destination)
        assert count == len(events) == 4  # 2 meta + 2 counters
        components = [
            event["component"] for event in events if event["kind"] == "meta"
        ]
        assert components == ["campaign", "campaign-worker"]
        assert sorted(os.listdir(tmp_path)) == ["telemetry.jsonl"]

    def test_merge_rejects_torn_source(self, tmp_path):
        self._write(tmp_path / "good.jsonl")
        (tmp_path / "torn.jsonl").write_text('{"kind": "span", "na')
        with pytest.raises(ValueError):
            merge_telemetry_files(
                [str(tmp_path / "good.jsonl"), str(tmp_path / "torn.jsonl")],
                str(tmp_path / "out.jsonl"),
            )
        # The destination must not be half-written.
        assert not (tmp_path / "out.jsonl").exists()


class TestProgressTicker:
    def test_renders_progress_to_the_stream_only(self):
        stream = io.StringIO()
        ticker = ProgressTicker(
            2, label="campaign", stream=stream, min_interval_s=0.0
        )
        ticker.item_done(detail="spec a")
        ticker.item_done()
        ticker.finish()
        text = stream.getvalue()
        assert "[campaign] 1/2 done" in text
        assert "[campaign] 2/2 done" in text
        assert "spec a" in text
        assert "ETA" in text


class TestReport:
    def _sideband(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        telemetry = Telemetry("campaign-worker", path=path)
        telemetry.span_at("campaign.queue_wait", 0.0, 1.0)
        telemetry.span_at("campaign.execute", 1.0, 2.0, spec="s")
        telemetry.span_at("campaign.serialize", 3.0, 1.0)
        telemetry.span_at("orchestrate.host", 0.0, 4.0, host="h0", specs=2)
        telemetry.span_at("orchestrate.poll", 0.5, 0.1, host="h0")
        telemetry.counter("replay.points_replayed", 3)
        telemetry.counter("replay.refusals.wait_on_signal", 1)
        telemetry.gauge("orchestrate.specs_per_s.h0", 0.5)
        telemetry.close()
        return path

    def test_aggregate_folds_spans_workers_hosts(self, tmp_path):
        aggregate = aggregate_telemetry([self._sideband(tmp_path)])
        assert aggregate.spans["campaign.execute"].total_s == pytest.approx(2.0)
        # Worker window: busy 3s (execute+serialize) over [0, 4].
        ((busy, wait, first, last),) = (
            list(aggregate.workers.values())
        )
        assert busy == pytest.approx(3.0)
        assert wait == pytest.approx(1.0)
        assert (first, last) == (0.0, 4.0)
        # Spans of an old orchestrated sideband fold like any other span.
        spans = {row["span"]: row for row in aggregate.span_rows(top=15)}
        assert spans["orchestrate.host"]["total_s"] == "4.0000"
        assert spans["orchestrate.poll"]["count"] == 1

    def test_render_report_contains_every_section(self, tmp_path):
        report = render_report([self._sideband(tmp_path)])
        assert "Top spans by total time" in report
        assert "Worker utilization" in report
        assert "orchestrate.host" in report
        assert "Replay routing breakdown" in report
        assert "replay.refusals.wait_on_signal" in report
        assert "Gauges (latest value)" in report
