"""Unit tests for the pluggable trace sink pipeline (kernel.tracing)."""

import io

import pytest

from repro.kernel import Simulator
from repro.kernel.tracing import (
    DigestSink,
    EMPTY_TRACE_DIGEST,
    ListSink,
    NullSink,
    SINK_KINDS,
    SpoolSink,
    decode_entry,
    encode_entry,
    format_entry,
    make_sink,
    trace_lines_digest,
)
from repro.kernel.simtime import ns


def fill(sink, records):
    for process, local_fs, message in records:
        sink.emit(process, local_fs, 0, message)


RECORDS = [
    ("b", ns(30).femtoseconds, "late"),
    ("a", ns(10).femtoseconds, "early"),
    ("a", ns(10).femtoseconds, "early"),  # duplicates are part of the multiset
    ("c", 0, "zero"),
    ("a", ns(10).femtoseconds, "also early"),
]


class TestEncoding:
    def test_encoding_round_trips(self):
        entry = encode_entry("top.proc", 1500, "wrote 3")
        assert decode_entry(entry) == (1500, "top.proc", "wrote 3")
        assert format_entry(entry) == "[1500 fs] top.proc: wrote 3"

    def test_encoded_order_equals_sort_key_order(self):
        # Lexicographic order of the encoding must equal tuple order even
        # when one process name is a prefix of another and dates have
        # different magnitudes (SimTime formatting would not sort).
        keys = [
            (0, "a", "z"),
            (9, "ab", "c"),
            (9, "a", "z"),
            (10, "a", "a"),
            (1_000_000, "a", "a"),  # "1 ns" formats shorter than "1000 fs"
            (999_999, "zz", "m"),
        ]
        encoded = [encode_entry(p, fs, m) for fs, p, m in keys]
        assert [decode_entry(e) for e in sorted(encoded)] == sorted(keys)

    def test_reserved_characters_and_range_rejected(self):
        with pytest.raises(ValueError, match="outside the streamable range"):
            encode_entry("p", -1, "m")
        with pytest.raises(ValueError, match="reserved"):
            encode_entry("p", 0, "two\nlines")
        with pytest.raises(ValueError, match="reserved"):
            encode_entry("p\x1fq", 0, "m")


class TestNullSink:
    def test_disabled_and_empty(self):
        sink = NullSink()
        assert not sink.enabled
        sink.emit("p", 0, 0, "dropped")
        assert len(sink) == 0
        assert sink.digest() == EMPTY_TRACE_DIGEST

    def test_simulator_log_is_one_attribute_check(self):
        sim = Simulator("nulled", trace_sink=NullSink())
        sim.log("never stored")
        assert len(sim.trace) == 0


class TestListSink:
    def test_digest_matches_helper(self):
        sink = ListSink()
        fill(sink, RECORDS)
        assert sink.digest() == trace_lines_digest(sink.sorted_lines())


class TestStreamingSinks:
    @pytest.mark.parametrize("max_buffered", [1, 2, 100])
    def test_digest_matches_list_sink(self, max_buffered):
        reference = ListSink()
        fill(reference, RECORDS)
        sink = DigestSink(max_buffered=max_buffered)
        fill(sink, RECORDS)
        assert len(sink) == len(reference)
        assert sink.digest() == reference.digest()
        if max_buffered < len(RECORDS):
            assert sink.spilled_runs > 0

    def test_empty_digest(self):
        assert DigestSink().digest() == EMPTY_TRACE_DIGEST == ListSink().digest()

    def test_sorted_lines_stream_in_key_order(self):
        sink = SpoolSink(max_buffered=2)
        fill(sink, RECORDS)
        reference = ListSink()
        fill(reference, RECORDS)
        assert sink.sorted_lines() == reference.sorted_lines()
        # The merge can be consumed more than once (one pass at a time).
        assert sink.sorted_lines() == reference.sorted_lines()

    def test_write_sorted_exports_the_reordered_trace(self):
        sink = SpoolSink(max_buffered=2)
        fill(sink, RECORDS)
        stream = io.StringIO()
        sink.write_sorted(stream)
        reference = ListSink()
        fill(reference, RECORDS)
        assert stream.getvalue() == "".join(
            line + "\n" for line in reference.sorted_lines()
        )

    def test_disabled_streaming_sink_drops_records(self):
        sink = DigestSink()
        sink.enabled = False
        fill(sink, RECORDS)
        assert len(sink) == 0

    def test_close_is_idempotent_and_releases_runs(self):
        sink = SpoolSink(max_buffered=1)
        fill(sink, RECORDS)
        assert sink.spilled_runs > 0
        sink.close()
        assert sink.spilled_runs == 0
        sink.close()

    def test_bad_buffer_size_rejected(self):
        with pytest.raises(ValueError, match="max_buffered"):
            DigestSink(max_buffered=0)


class TestMakeSink:
    def test_all_kinds_constructible(self):
        for kind in SINK_KINDS:
            sink = make_sink(kind)
            assert sink.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace sink"):
            make_sink("csv")


class TestSimulatorIntegration:
    def test_default_sink_is_a_list_sink(self):
        assert isinstance(Simulator("plain").trace, ListSink)

    def test_digest_sink_simulation_matches_list_sink_simulation(self):
        def drive(sim):
            sim.log("hello")
            sim.log("world", local_time=ns(5))

        with_list = Simulator("with_list")
        drive(with_list)
        with_digest = Simulator("with_digest", trace_sink=DigestSink())
        drive(with_digest)
        assert with_digest.trace.digest() == with_list.trace.digest()
        assert len(with_digest.trace) == len(with_list.trace) == 2
