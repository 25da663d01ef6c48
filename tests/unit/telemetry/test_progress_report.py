"""The ``--progress`` ticker, the in-memory recorder and the report folds.

Complements ``test_telemetry.py`` (schema, round trip, merge) with the
pieces a report is built from: ETA formatting, ticker rendering on TTY
and plain streams, span self time, counter deltas across flushes, and
the span/counter/worker/replay rows of :class:`TelemetryAggregate`.
"""

import io
import json

import pytest

from repro.telemetry import ProgressTicker, Telemetry, render_report
from repro.telemetry.progress import _format_eta
from repro.telemetry.report import SpanAgg, TelemetryAggregate


class FakeTty(io.StringIO):
    def isatty(self):
        return True


def write_sideband(path, events):
    with open(path, "w") as stream:
        for event in events:
            stream.write(json.dumps(event) + "\n")
    return str(path)


META = {"kind": "meta", "schema": 1, "component": "campaign-worker",
        "pid": 11, "host": "h"}


class TestFormatEta:
    @pytest.mark.parametrize("seconds, text", [
        (0, "00:00"),
        (0.4, "00:00"),
        (59.6, "01:00"),
        (61, "01:01"),
        (3599, "59:59"),
        (3600, "1:00:00"),
        (7384, "2:03:04"),
    ])
    def test_clock_text(self, seconds, text):
        assert _format_eta(seconds) == text

    @pytest.mark.parametrize("seconds", [
        float("inf"), float("nan"), -1.0,
    ])
    def test_unknown_eta_is_dashed(self, seconds):
        assert _format_eta(seconds) == "--:--"


class TestProgressTicker:
    def test_plain_stream_gets_one_line_per_render(self):
        stream = io.StringIO()
        ticker = ProgressTicker(3, label="sweep", stream=stream,
                                min_interval_s=0)
        ticker.item_done(detail="a")
        ticker.item_done()
        ticker.finish()
        lines = stream.getvalue().splitlines()
        assert [line.split(" done")[0] for line in lines] == [
            "[sweep] 1/3", "[sweep] 2/3", "[sweep] 2/3",
        ]
        # The last detail sticks until a new one arrives.
        assert all(line.endswith("| a") for line in lines)
        assert "\r" not in stream.getvalue()

    def test_tty_rewrites_one_line_and_ends_with_a_newline(self):
        stream = FakeTty()
        ticker = ProgressTicker(2, stream=stream, min_interval_s=0)
        ticker.item_done(detail="a_much_longer_detail")
        ticker.item_done(detail="b")
        ticker.finish()
        text = stream.getvalue()
        assert text.startswith("\r[campaign] 1/2 done")
        assert text.endswith("\n")
        assert text.count("\n") == 1
        # A shorter render pads over the longer one it overwrites.
        renders = text.rstrip("\n").split("\r")[1:]
        assert len(renders[1]) == len(renders[0])

    def test_renders_are_rate_limited_but_finish_always_renders(self):
        stream = io.StringIO()
        ticker = ProgressTicker(100, stream=stream, min_interval_s=3600)
        for _ in range(50):
            ticker.item_done()
        assert stream.getvalue() == ""
        ticker.finish()
        assert stream.getvalue().startswith("[campaign] 50/100 done")

    def test_eta_is_unknown_before_the_first_item(self):
        stream = io.StringIO()
        ProgressTicker(4, stream=stream).finish()
        assert "ETA --:--" in stream.getvalue()

    def test_negative_total_is_clamped(self):
        assert ProgressTicker(-5, stream=io.StringIO()).total == 0


class TestInMemoryTelemetry:
    def test_nested_spans_report_self_time(self):
        telemetry = Telemetry("unit")
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        events = [e for e in telemetry.drain() if e["kind"] == "span"]
        inner, outer = events
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert outer["self_s"] == pytest.approx(
            outer["dur_s"] - inner["dur_s"]
        )

    def test_counters_drain_as_deltas_and_gauges_reset(self):
        telemetry = Telemetry("unit")
        telemetry.counter("c", 2)
        telemetry.gauge("g", 1)
        telemetry.gauge("g", 5)
        first = telemetry.drain()
        telemetry.counter("c", 3)
        second = telemetry.drain()
        assert [e["kind"] for e in first] == ["meta", "counter", "gauge"]
        assert first[2]["value"] == 5  # last write wins
        # No second meta line, the delta only, no stale gauge.
        assert second == [
            {"kind": "counter", "name": "c", "pid": telemetry.pid,
             "value": 3}
        ]

    def test_unchanged_counter_is_not_drained_again(self):
        telemetry = Telemetry("unit")
        telemetry.counter("c")
        telemetry.drain()
        assert telemetry.drain() == []

    def test_flush_without_a_path_keeps_nothing(self):
        telemetry = Telemetry("unit")
        telemetry.counter("c")
        telemetry.flush()
        assert telemetry.drain() == []

    def test_span_attrs_are_kept_only_when_given(self):
        telemetry = Telemetry("unit")
        telemetry.span_at("bare", 0.0, 1.0)
        telemetry.span_at("tagged", 0.0, 1.0, spec="s")
        bare, tagged = telemetry.drain()[1:]
        assert "attrs" not in bare
        assert tagged["attrs"] == {"spec": "s"}

    def test_buffer_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="buffer_limit"):
            Telemetry("unit", buffer_limit=0)


class TestAggregate:
    def test_span_agg_tracks_count_total_self_and_max(self):
        agg = SpanAgg("s")
        agg.add(1.0, 0.25)
        agg.add(3.0, 3.0)
        assert (agg.count, agg.total_s, agg.self_s, agg.max_s) == (
            2, 4.0, 3.25, 3.0
        )

    def test_span_rows_rank_by_total_and_honour_top(self, tmp_path):
        path = write_sideband(tmp_path / "t.jsonl", [META] + [
            {"kind": "span", "name": name, "pid": 11, "t0": 0.0,
             "dur_s": dur}
            for name, dur in (("a", 1.0), ("b", 5.0), ("c", 2.0),
                              ("b", 1.0))
        ])
        aggregate = TelemetryAggregate()
        aggregate.add_file(path)
        rows = aggregate.span_rows(top=2)
        assert [row["span"] for row in rows] == ["b", "c"]
        assert rows[0]["count"] == 2
        assert rows[0]["mean_ms"] == "3000.000"
        assert rows[0]["max_ms"] == "5000.000"
        # Without a recorded self time a span's self time is its duration.
        assert rows[0]["self_s"] == "6.0000"

    def test_counters_sum_across_files_and_print_compactly(self, tmp_path):
        events = [META, {"kind": "counter", "name": "x", "pid": 11,
                         "value": 0.25}]
        aggregate = TelemetryAggregate()
        aggregate.add_file(write_sideband(tmp_path / "a.jsonl", events))
        aggregate.add_file(write_sideband(tmp_path / "b.jsonl", events))
        assert aggregate.counter_rows(top=5) == [
            {"counter": "x", "value": "0.5"}
        ]
        assert aggregate.event_count == 4

    def test_worker_rows_name_the_component_and_cap_utilization(
        self, tmp_path
    ):
        path = write_sideband(tmp_path / "w.jsonl", [
            META,
            {"kind": "span", "name": "campaign.execute", "pid": 11,
             "t0": 10.0, "dur_s": 2.0},
            {"kind": "span", "name": "campaign.execute", "pid": 11,
             "t0": 10.5, "dur_s": 1.0},
            {"kind": "span", "name": "campaign.execute", "pid": 12,
             "t0": 0.0, "dur_s": 1.0},
            {"kind": "span", "name": "campaign.queue_wait", "pid": 12,
             "t0": 1.0, "dur_s": 3.0},
        ])
        aggregate = TelemetryAggregate()
        aggregate.add_file(path)
        first, second = aggregate.worker_rows()
        # Overlapping spans claim more busy time than the window holds.
        assert first == {
            "worker": "campaign-worker:11", "busy_s": "3.0000",
            "queue_wait_s": "0.0000", "window_s": "2.0000",
            "utilization": "100.0%",
        }
        # No meta line for pid 12: the generic component name is used.
        assert second["worker"] == "worker:12"
        assert second["window_s"] == "4.0000"
        assert second["utilization"] == "25.0%"

    def test_replay_rows_keep_only_replay_counters(self, tmp_path):
        path = write_sideband(tmp_path / "r.jsonl", [META] + [
            {"kind": "counter", "name": name, "pid": 11, "value": 1}
            for name in ("replay.b", "campaign.jobs", "replay.a")
        ])
        aggregate = TelemetryAggregate()
        aggregate.add_file(path)
        assert [row["metric"] for row in aggregate.replay_rows()] == [
            "replay.a", "replay.b",
        ]

    def test_report_of_a_meta_only_file_has_just_the_headline(
        self, tmp_path
    ):
        path = write_sideband(tmp_path / "m.jsonl", [META])
        assert render_report([path]) == "1 events from 1 telemetry file(s)"
