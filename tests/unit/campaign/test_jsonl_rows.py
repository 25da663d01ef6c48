"""Campaign JSONL rows: header, parser, sink, resume checks and merge rules.

``test_runner.py`` and ``test_resume.py`` exercise these through whole
campaigns; this module pins the individual rules one file edit at a
time, on copies of one small campaign's JSONL.
"""

import io
import json
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignResult,
    CampaignResumeError,
    CampaignRunner,
    ScenarioSpec,
    TimeoutRecord,
    load_resume_state,
    merge_jsonl,
)
from repro.campaign.runner import (
    JsonlSink,
    SpecRunRecord,
    campaign_header_row,
    parse_jsonl_rows,
)

CAMPAIGN = [
    ScenarioSpec("writer_reader_d2", "writer_reader", depth=2),
    ScenarioSpec("bursty_s3", "bursty", depth=3, seed=3,
                 params={"n_bursts": 4, "max_burst": 5}),
    ScenarioSpec("contention_small", "contention", depth=4, seed=2,
                 params={"items_per_writer": 8}),
]
NAMES = [spec.name for spec in CAMPAIGN]


@pytest.fixture(scope="module")
def full_rows(tmp_path_factory):
    """The parsed rows of one complete, unsharded, paired run."""
    path = tmp_path_factory.mktemp("full") / "full.jsonl"
    CampaignRunner(workers=1).run(CAMPAIGN, jsonl=str(path))
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def shard_rows(tmp_path_factory):
    """``{index: rows}`` of the same campaign run as two shards."""
    directory = tmp_path_factory.mktemp("shards")
    shards = {}
    for index in range(2):
        path = directory / f"shard{index}.jsonl"
        CampaignRunner(workers=1, shard=(index, 2)).run(
            CAMPAIGN, jsonl=str(path)
        )
        shards[index] = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
    return shards


def write_rows(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return str(path)


def rows_of(rows, kind):
    return [row for row in rows if row["type"] == kind]


def timeout_row(spec, mode="reference", scope="spec"):
    record = TimeoutRecord.for_spec(spec, mode, scope, 1.0)
    return {"type": "timeout", **record.deterministic_row()}


class TestHeaderRow:
    def test_unsharded_header_has_no_shard_by(self):
        row = campaign_header_row(CAMPAIGN, workers=3, paired=True)
        assert row == {
            "type": "campaign", "schema": 1, "specs": NAMES,
            "workers": 3, "paired": True, "shard": None,
        }

    @pytest.mark.parametrize("shard", [(0, 2), (2, 3)])
    def test_sharded_header_always_records_index(self, shard):
        row = campaign_header_row(CAMPAIGN, 1, False, shard=shard)
        assert row["shard"] == f"{shard[0]}/{shard[1]}"
        assert row["shard_by"] == "index"

    def test_shard_files_name_the_whole_campaign(self, shard_rows):
        for rows in shard_rows.values():
            assert rows[0]["specs"] == NAMES
        written = {
            row["name"]
            for rows in shard_rows.values() for row in rows_of(rows, "run")
        }
        assert written == set(NAMES)


class TestParseRows:
    def test_blank_lines_are_skipped(self):
        lines = ["", '{"type":"campaign"}', "   ", '{"type":"run"}', ""]
        assert [kind for kind, _ in parse_jsonl_rows(lines)] == [
            "campaign", "run",
        ]

    def test_invalid_json_names_its_line(self):
        with pytest.raises(ValueError, match="line 2 is not valid JSON"):
            list(parse_jsonl_rows(['{"type":"campaign"}', "{not json"]))

    def test_unknown_type_names_its_line(self):
        with pytest.raises(ValueError, match="line 1 has unknown type 'rum'"):
            list(parse_jsonl_rows(['{"type":"rum"}']))


class TestJsonlSink:
    def record(self, full_rows, name="writer_reader_d2"):
        row = next(r for r in rows_of(full_rows, "run") if r["name"] == name)
        return SpecRunRecord.from_row(row)

    def test_rows_are_compact_sorted_json(self, full_rows):
        stream = io.StringIO()
        sink = JsonlSink(stream, CAMPAIGN, workers=1, paired=True)
        sink.run_completed(self.record(full_rows))
        header, run = stream.getvalue().splitlines()
        assert header == json.dumps(
            campaign_header_row(CAMPAIGN, 1, True),
            sort_keys=True, separators=(",", ":"),
        )
        assert json.loads(run)["type"] == "run"
        assert ", " not in run and ": " not in run

    def test_replayed_rows_are_written_once_then_skipped(self, full_rows):
        stream = io.StringIO()
        sink = JsonlSink(stream, CAMPAIGN, workers=1, paired=True)
        record = self.record(full_rows)
        sink.replay([record], [])
        sink.run_completed(record)
        assert len(stream.getvalue().splitlines()) == 2

    def test_timeout_rows_are_never_skipped(self):
        stream = io.StringIO()
        sink = JsonlSink(stream, CAMPAIGN, workers=1, paired=True)
        record = TimeoutRecord.for_spec(CAMPAIGN[0], "smart", "spec", 1.0)
        sink.timeout_completed(record)
        sink.timeout_completed(record)
        assert [json.loads(line)["type"]
                for line in stream.getvalue().splitlines()] == [
            "campaign", "timeout", "timeout",
        ]

    def test_a_given_header_row_is_written_verbatim(self):
        stream = io.StringIO()
        header = {"type": "campaign", "schema": 1, "specs": ["x"],
                  "workers": 9, "paired": False, "shard": "0/2",
                  "shard_by": "cost"}
        JsonlSink(stream, CAMPAIGN, 1, True, header_row=header)
        assert json.loads(stream.getvalue()) == header


class TestLoadResumeState:
    def resume(self, path, shard=None, shard_specs=None):
        return load_resume_state(
            path, CAMPAIGN, True, shard, shard_specs=shard_specs
        )

    def test_header_after_rows_is_rejected(self, tmp_path, full_rows):
        rows = full_rows[1:2] + full_rows[:1] + full_rows[2:]
        with pytest.raises(CampaignResumeError, match="does not start"):
            self.resume(write_rows(tmp_path / "f.jsonl", rows))

    def test_a_second_header_is_rejected(self, tmp_path, full_rows):
        rows = full_rows[:1] + full_rows
        with pytest.raises(CampaignResumeError, match="more than one"):
            self.resume(write_rows(tmp_path / "f.jsonl", rows))

    def test_a_headerless_file_is_rejected(self, tmp_path, full_rows):
        with pytest.raises(CampaignResumeError, match="does not start"):
            self.resume(write_rows(tmp_path / "f.jsonl", full_rows[1:]))

    def test_a_duplicate_run_row_is_rejected(self, tmp_path, full_rows):
        rows = full_rows + rows_of(full_rows, "run")[:1]
        with pytest.raises(CampaignResumeError, match="duplicate run row"):
            self.resume(write_rows(tmp_path / "f.jsonl", rows))

    def test_a_duplicate_pair_row_is_rejected(self, tmp_path, full_rows):
        rows = full_rows + rows_of(full_rows, "pair")[:1]
        with pytest.raises(CampaignResumeError, match="duplicate pair row"):
            self.resume(write_rows(tmp_path / "f.jsonl", rows))

    def test_a_pair_row_for_a_non_pairable_spec_is_rejected(
        self, tmp_path, full_rows
    ):
        assert "contention_small" not in {
            row["name"] for row in rows_of(full_rows, "pair")
        }
        foreign = dict(rows_of(full_rows, "pair")[0], name="contention_small")
        with pytest.raises(CampaignResumeError, match="non-pairable"):
            self.resume(write_rows(tmp_path / "f.jsonl", full_rows + [foreign]))

    def test_timeout_rows_are_checked_but_not_returned(
        self, tmp_path, full_rows
    ):
        rows = full_rows[:1] + [timeout_row(CAMPAIGN[1])]
        header, runs, pairs = self.resume(write_rows(tmp_path / "f.jsonl", rows))
        assert header["specs"] == NAMES
        assert (runs, pairs) == ([], [])

    def test_a_timeout_row_for_an_unknown_spec_is_rejected(
        self, tmp_path, full_rows
    ):
        stranger = replace(CAMPAIGN[0], name="stranger")
        rows = full_rows[:1] + [timeout_row(stranger)]
        with pytest.raises(CampaignResumeError, match="unknown spec"):
            self.resume(write_rows(tmp_path / "f.jsonl", rows))

    def test_a_timeout_row_of_another_definition_is_rejected(
        self, tmp_path, full_rows
    ):
        changed = replace(CAMPAIGN[0], depth=7)
        rows = full_rows[:1] + [timeout_row(changed)]
        with pytest.raises(CampaignResumeError, match="different spec"):
            self.resume(write_rows(tmp_path / "f.jsonl", rows))

    def test_a_shard_header_without_shard_by_reads_as_index(
        self, tmp_path, shard_rows
    ):
        rows = [dict(row) for row in shard_rows[0]]
        del rows[0]["shard_by"]
        shard_specs = CampaignRunner.shard_specs(CAMPAIGN, 0, 2)
        header, runs, _ = self.resume(
            write_rows(tmp_path / "f.jsonl", rows), (0, 2), shard_specs
        )
        assert "shard_by" not in header
        assert {record.name for record in runs} == {
            spec.name for spec in shard_specs
        }


class TestMergeRules:
    def test_sharded_and_unsharded_files_do_not_mix(
        self, tmp_path, full_rows, shard_rows
    ):
        # Only the unsharded header: no row is duplicated across files.
        paths = [write_rows(tmp_path / "full.jsonl", full_rows[:1]),
                 write_rows(tmp_path / "s0.jsonl", shard_rows[0])]
        with pytest.raises(ValueError, match="cannot mix sharded"):
            merge_jsonl(paths)

    def test_shard_headers_must_agree_on_the_count(
        self, tmp_path, shard_rows
    ):
        second = [dict(shard_rows[1][0], shard="1/3")] + shard_rows[1][1:]
        paths = [write_rows(tmp_path / "s0.jsonl", shard_rows[0]),
                 write_rows(tmp_path / "s1.jsonl", second)]
        with pytest.raises(ValueError, match="disagree on the shard count"):
            merge_jsonl(paths)

    def test_a_duplicate_pair_row_is_rejected(self, tmp_path, full_rows):
        rows = full_rows + rows_of(full_rows, "pair")[-1:]
        with pytest.raises(ValueError, match="duplicate pair row"):
            merge_jsonl([write_rows(tmp_path / "f.jsonl", rows)])

    def test_a_paired_file_without_a_pair_row_is_rejected(
        self, tmp_path, full_rows
    ):
        dropped = rows_of(full_rows, "pair")[0]
        rows = [row for row in full_rows if row is not dropped]
        with pytest.raises(ValueError, match="no pair row"):
            merge_jsonl([write_rows(tmp_path / "f.jsonl", rows)])

    def test_an_unpaired_file_needs_no_pair_rows(self, tmp_path, full_rows):
        rows = [dict(full_rows[0], paired=False)] + rows_of(full_rows, "run")
        merged = merge_jsonl([write_rows(tmp_path / "f.jsonl", rows)])
        assert (len(merged.runs), merged.pairs) == (len(CAMPAIGN), [])

    def test_merged_workers_is_the_largest_header_value(
        self, tmp_path, shard_rows
    ):
        first = [dict(shard_rows[0][0], workers=4)] + shard_rows[0][1:]
        paths = [write_rows(tmp_path / "s0.jsonl", first),
                 write_rows(tmp_path / "s1.jsonl", shard_rows[1])]
        assert merge_jsonl(paths).workers == 4

    def test_merged_rows_carry_no_worker_pids(self, tmp_path, full_rows):
        merged = merge_jsonl([write_rows(tmp_path / "f.jsonl", full_rows)])
        assert merged.worker_pids() == []


class TestCampaignResult:
    def result(self, full_rows, timeouts=()):
        runs = [SpecRunRecord.from_row(r) for r in rows_of(full_rows, "run")]
        return CampaignResult(runs=runs, pairs=[], workers=1,
                              wall_seconds=0.0, timeouts=list(timeouts))

    def test_the_timeouts_key_appears_only_with_timeouts(self, full_rows):
        assert "timeouts" not in self.result(full_rows).aggregate_rows()
        record = TimeoutRecord.for_spec(CAMPAIGN[0], "smart", "spec", 1.0)
        with_timeout = self.result(full_rows, [record])
        assert with_timeout.aggregate_rows()["timeouts"] == [
            record.deterministic_row()
        ]
        assert not with_timeout.complete
        assert with_timeout.fingerprint() != self.result(
            full_rows
        ).fingerprint()

    def test_the_summary_lists_every_timeout(self, full_rows):
        records = [
            TimeoutRecord.for_spec(CAMPAIGN[1], "smart", "campaign", 9.0),
            TimeoutRecord.for_spec(CAMPAIGN[0], "reference", "spec", 1.5),
        ]
        lines = self.result(full_rows, records).summary().splitlines()
        assert "budget timeouts: 2" in lines
        assert lines[-2:] == [
            "TIMEOUT bursty_s3 [smart]: exceeded the campaign limit of "
            "9.0s (--resume re-runs it)",
            "TIMEOUT writer_reader_d2 [reference]: exceeded the spec limit "
            "of 1.5s (--resume re-runs it)",
        ]

    def test_the_evaluator_column_appears_only_for_replayed_rows(
        self, full_rows
    ):
        row = rows_of(full_rows, "run")[0]
        assert "evaluator" not in row
        record = SpecRunRecord.from_row(row)
        assert record.evaluator == "simulate"
        replayed = replace(record, evaluator="replay")
        round_trip = SpecRunRecord.from_row(replayed.deterministic_row())
        assert round_trip.evaluator == "replay"
