"""Unit tests for trace collection and kernel statistics."""

import io

from repro.kernel import KernelStats, ListSink, TraceRecord
from repro.kernel.simtime import ns


class TestListSink:
    def test_record_and_format(self):
        collector = ListSink()
        collector.emit("proc", ns(20).femtoseconds, ns(10).femtoseconds, "hello")
        assert len(collector) == 1
        record = list(collector)[0]
        assert record.local_time == ns(20)
        assert record.global_fs == ns(10).femtoseconds
        assert record.format() == "[20 ns] proc: hello"

    def test_sorted_lines_reorder_by_local_date(self):
        collector = ListSink()
        collector.emit("b", ns(30).femtoseconds, 0, "late")
        collector.emit("a", ns(10).femtoseconds, 0, "early")
        assert collector.formatted_lines() == ["[30 ns] b: late", "[10 ns] a: early"]
        assert collector.sorted_lines() == ["[10 ns] a: early", "[30 ns] b: late"]

    def test_disable_and_clear(self):
        collector = ListSink()
        collector.enabled = False
        collector.emit("p", 0, 0, "ignored")
        assert len(collector) == 0
        collector.enabled = True
        collector.emit("p", 0, 0, "kept")
        collector.clear()
        assert len(collector) == 0

    def test_write_to_stream(self):
        collector = ListSink()
        collector.emit("p", ns(1).femtoseconds, 0, "x")
        stream = io.StringIO()
        collector.write(stream)
        assert stream.getvalue() == "[1 ns] p: x\n"

    def test_sort_key_is_stable_for_identical_records(self):
        a = TraceRecord(5, 5, "p", "m")
        b = TraceRecord(5, 5, "p", "m")
        assert a.sort_key() == b.sort_key()
        assert a == b


class TestKernelStats:
    def test_context_switches_are_thread_activations(self):
        stats = KernelStats(thread_activations=2, method_invocations=1)
        assert stats.context_switches == 2
        assert stats.method_invocations == 1

    def test_snapshot_excludes_per_process_map(self):
        stats = KernelStats(
            thread_activations=1, per_process_activations={"t": 1}
        )
        snapshot = stats.snapshot()
        assert snapshot["thread_activations"] == 1
        assert snapshot["context_switches"] == 1
        assert "per_process_activations" not in snapshot

    def test_diff(self):
        stats = KernelStats(thread_activations=1)
        before = stats.copy()
        stats.thread_activations += 1
        stats.delta_cycles += 3
        diff = stats.diff(before)
        assert diff["thread_activations"] == 1
        assert diff["delta_cycles"] == 3

    def test_copy_is_independent(self):
        stats = KernelStats()
        clone = stats.copy()
        stats.thread_activations += 1
        stats.per_process_activations["t"] = 1
        assert clone.thread_activations == 0
        assert clone.per_process_activations == {}
