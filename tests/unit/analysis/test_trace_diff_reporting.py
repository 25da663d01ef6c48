"""Unit tests for trace equivalence checking and result reporting."""

import os

from repro.analysis.reporting import (
    ascii_table,
    dict_rows_table,
    format_gain,
    text_plot,
    write_csv,
)
from repro.analysis.trace_diff import (
    compare_collectors,
    compare_traces,
    emission_order_changed,
    sorted_lines,
)
from repro.kernel import ListSink, TraceRecord
from repro.kernel.simtime import ns


def record(process, time_ns, message, global_ns=None):
    global_fs = ns(global_ns if global_ns is not None else time_ns).femtoseconds
    return TraceRecord(ns(time_ns).femtoseconds, global_fs, process, message)


class TestTraceComparison:
    def test_identical_traces_are_equivalent(self):
        a = [record("p", 1, "x"), record("q", 2, "y")]
        b = [record("q", 2, "y"), record("p", 1, "x")]  # different order
        comparison = compare_traces(a, b)
        assert comparison.equivalent
        assert "equivalent" in comparison.report()

    def test_missing_and_unexpected_lines_detected(self):
        a = [record("p", 1, "x"), record("p", 2, "y")]
        b = [record("p", 1, "x"), record("p", 3, "z")]
        comparison = compare_traces(a, b)
        assert not comparison.equivalent
        assert any("y" in line for line in comparison.missing_in_candidate)
        assert any("z" in line for line in comparison.unexpected_in_candidate)
        assert "differ" in comparison.report()

    def test_multiset_semantics(self):
        a = [record("p", 1, "x"), record("p", 1, "x")]
        b = [record("p", 1, "x")]
        assert not compare_traces(a, b).equivalent
        assert compare_traces(a, a).equivalent

    def test_different_dates_are_not_equivalent(self):
        a = [record("p", 1, "x")]
        b = [record("p", 2, "x")]
        assert not compare_traces(a, b).equivalent

    def test_collector_helpers(self):
        reference = ListSink()
        candidate = ListSink()
        reference.emit("p", ns(1).femtoseconds, 0, "x")
        candidate.emit("p", ns(1).femtoseconds, ns(1).femtoseconds, "x")
        assert compare_collectors(reference, candidate).equivalent
        candidate.emit("p", ns(2).femtoseconds, 0, "extra")
        comparison = compare_collectors(reference, candidate)
        assert not comparison.equivalent
        assert comparison.unexpected_in_candidate == ["[2 ns] p: extra"]

    def test_emission_order_changed(self):
        reference = ListSink()
        candidate = ListSink()
        for process, date in (("a", 1), ("b", 2)):
            reference.emit(process, ns(date).femtoseconds, 0, "m")
        for process, date in (("b", 2), ("a", 1)):
            candidate.emit(process, ns(date).femtoseconds, 0, "m")
        assert emission_order_changed(reference, candidate)
        assert compare_collectors(reference, candidate).equivalent

    def test_sorted_lines(self):
        lines = sorted_lines([record("p", 5, "late"), record("p", 1, "early")])
        assert lines == ["[1 ns] p: early", "[5 ns] p: late"]


class TestReporting:
    def test_ascii_table_alignment(self):
        table = ascii_table(["name", "value"], [["a", 1], ["longer", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_dict_rows_table_infers_columns(self):
        rows = [{"x": 1, "y": 2}, {"x": 3, "y": 4}]
        table = dict_rows_table(rows)
        assert "x" in table and "4" in table
        assert dict_rows_table([], title="empty") == "empty"

    def test_csv_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = os.path.join(tmp_path, "out.csv")
        write_csv(rows, path)
        with open(path) as handle:
            assert handle.read() == "a,b\n1,x\n2,y\n"
        empty = os.path.join(tmp_path, "empty.csv")
        write_csv([], empty)
        with open(empty) as handle:
            assert handle.read() == ""

    def test_text_plot(self):
        plot = text_plot({"tdless": [1.0, 2.0], "tdfull": [0.5, 0.2]}, x_values=[1, 2])
        assert "x=1" in plot and "tdless" in plot and "#" in plot

    def test_format_gain_matches_paper_style(self):
        formatted = format_gain(38.0, 21.9)
        assert formatted.startswith("38.00s -> 21.90s")
        assert "42.4%" in formatted or "42.3%" in formatted
        assert format_gain(0.0, 1.0) == "n/a"
