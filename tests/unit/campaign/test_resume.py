"""Campaign JSONL resume: skip persisted rows, reproduce the fingerprint."""

import json
import os
import shutil

import pytest

from repro.analysis import cli
from repro.campaign import (
    CampaignResumeError,
    CampaignRunner,
    ScenarioSpec,
    default_campaign,
    load_resume_state,
    merge_jsonl,
)

CAMPAIGN = [
    ScenarioSpec("writer_reader_d2", "writer_reader", depth=2),
    ScenarioSpec("bursty_s3", "bursty", depth=3, seed=3,
                 params={"n_bursts": 4, "max_burst": 5}),
    ScenarioSpec("contention_small", "contention", depth=4, seed=2,
                 params={"items_per_writer": 8}),
    ScenarioSpec("random_s5_d2", "random_traffic", depth=2, seed=5,
                 params={"item_count": 20, "monitor_samples": 4}),
]


def run_full(tmp_path, name="full.jsonl"):
    path = tmp_path / name
    result = CampaignRunner(workers=1).run(CAMPAIGN, jsonl=str(path))
    return path, result


def truncate_file(path, keep_lines, torn_tail=None):
    lines = path.read_text().splitlines()
    body = "\n".join(lines[:keep_lines]) + "\n"
    if torn_tail is not None:
        body += torn_tail
    path.write_text(body)


class TestResume:
    def test_resume_missing_file_behaves_like_a_fresh_run(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        resumed = CampaignRunner(workers=1).run(
            CAMPAIGN, jsonl=str(path), resume=True
        )
        full = CampaignRunner(workers=1).run(CAMPAIGN)
        assert resumed.fingerprint() == full.fingerprint()

    def test_resume_skips_completed_specs_and_matches_fingerprint(self, tmp_path):
        path, full = run_full(tmp_path)
        # Keep the header and the rows of the first completed spec only.
        truncate_file(path, keep_lines=3)
        executed = []

        import repro.campaign.runner as runner_module
        original = runner_module._run_one

        def spying_run_one(spec, trace_sink="digest", *args, **kwargs):
            executed.append((spec.name, spec.mode))
            return original(spec, trace_sink, *args, **kwargs)

        runner_module._run_one = spying_run_one
        try:
            resumed = CampaignRunner(workers=1).run(
                CAMPAIGN, jsonl=str(path), resume=True
            )
        finally:
            runner_module._run_one = original
        assert resumed.fingerprint() == full.fingerprint()
        # The recovered spec must not have been re-simulated.
        assert ("writer_reader_d2", "reference") not in executed
        assert ("writer_reader_d2", "smart") not in executed
        assert ("bursty_s3", "smart") in executed
        # The healed file is a complete campaign again.
        assert merge_jsonl([str(path)]).fingerprint() == full.fingerprint()

    def test_resume_of_a_complete_file_re_runs_nothing(self, tmp_path):
        path, full = run_full(tmp_path)
        before = path.read_text()
        resumed = CampaignRunner(workers=1).run(
            CAMPAIGN, jsonl=str(path), resume=True
        )
        assert resumed.fingerprint() == full.fingerprint()
        # Same rows, just rewritten in replay order (runs before pairs).
        assert sorted(before.splitlines()) == sorted(path.read_text().splitlines())

    def test_torn_final_line_is_dropped(self, tmp_path):
        path, full = run_full(tmp_path)
        truncate_file(path, keep_lines=3, torn_tail='{"type":"run","name":"bur')
        resumed = CampaignRunner(workers=1).run(
            CAMPAIGN, jsonl=str(path), resume=True
        )
        assert resumed.fingerprint() == full.fingerprint()
        assert merge_jsonl([str(path)]).fingerprint() == full.fingerprint()

    def test_partial_spec_does_not_duplicate_its_run_row(self, tmp_path):
        path, full = run_full(tmp_path)
        lines = path.read_text().splitlines()
        # Keep the header, spec 0's run+pair, and spec 1's run row but NOT
        # its pair row: the spec must re-run without duplicating the row.
        assert json.loads(lines[3])["type"] == "run"
        truncate_file(path, keep_lines=4)
        resumed = CampaignRunner(workers=1).run(
            CAMPAIGN, jsonl=str(path), resume=True
        )
        assert resumed.fingerprint() == full.fingerprint()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        run_keys = [(r["name"], r["mode"]) for r in rows if r["type"] == "run"]
        assert len(run_keys) == len(set(run_keys))
        merge_jsonl([str(path)])  # duplicates would be rejected here

    def test_resume_requires_jsonl(self):
        with pytest.raises(ValueError, match="resume"):
            CampaignRunner(workers=1).run(CAMPAIGN, resume=True)

    def test_batched_pool_file_resumes_exactly(self, tmp_path):
        from repro.campaign import spec_is_pairable
        from repro.campaign.executor import _batch_size
        from repro.telemetry import load_events

        from .test_runner import job_count, replicated_default_campaign

        # default_campaign() x4: 136 jobs, which 2 workers take 4 at a time.
        specs = replicated_default_campaign(4)
        assert _batch_size(job_count(specs), 2) > 1
        path = tmp_path / "batched.jsonl"
        full = CampaignRunner(workers=2).run(specs, jsonl=str(path))
        # A kill mid-campaign: the rows of the batches still in flight
        # never arrive, and the row being written is torn.
        lines = path.read_text().splitlines()
        keep = len(lines) // 2
        truncate_file(path, keep_lines=keep, torn_tail=lines[keep][:25])
        kept = [json.loads(line) for line in lines[1:keep]]
        done_runs = {(row["name"], row["mode"]) for row in kept if row["type"] == "run"}
        done_pairs = {row["name"] for row in kept if row["type"] == "pair"}
        expected = set()
        for spec in specs:
            if spec_is_pairable(spec):
                if spec.name not in done_pairs:
                    expected |= {(spec.name, "reference"), (spec.name, "smart")}
            elif (spec.name, spec.mode) not in done_runs:
                expected.add((spec.name, spec.mode))
        assert expected

        telemetry_dir = tmp_path / "telemetry"
        resumed = CampaignRunner(workers=2, telemetry_dir=str(telemetry_dir)).run(
            specs, jsonl=str(path), resume=True
        )
        assert resumed.fingerprint() == full.fingerprint()
        assert merge_jsonl([str(path)]).fingerprint() == full.fingerprint()
        executed = [
            (event["attrs"]["spec"], event["attrs"]["mode"])
            for event in load_events(str(telemetry_dir / "telemetry.jsonl"))
            if event["kind"] == "span" and event["name"] == "campaign.execute"
        ]
        assert len(executed) == len(set(executed))
        assert set(executed) == expected

    def test_corruption_in_the_middle_is_rejected(self, tmp_path):
        path, _ = run_full(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = '{"type":"run","broken":tru'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            CampaignRunner(workers=1).run(CAMPAIGN, jsonl=str(path), resume=True)


class TestHeaderValidation:
    def test_different_spec_list_rejected(self, tmp_path):
        path, _ = run_full(tmp_path)
        with pytest.raises(ValueError, match="different campaign"):
            CampaignRunner(workers=1).run(
                CAMPAIGN[:-1], jsonl=str(path), resume=True
            )

    def test_different_paired_flag_rejected(self, tmp_path):
        path, _ = run_full(tmp_path)
        with pytest.raises(ValueError, match="different campaign"):
            CampaignRunner(workers=1, paired=False).run(
                CAMPAIGN, jsonl=str(path), resume=True
            )

    def test_different_shard_rejected(self, tmp_path):
        path, _ = run_full(tmp_path)
        with pytest.raises(ValueError, match="different campaign"):
            CampaignRunner(workers=1, shard=(0, 2)).run(
                CAMPAIGN, jsonl=str(path), resume=True
            )

    def test_different_worker_count_is_fine(self, tmp_path):
        path, full = run_full(tmp_path)
        truncate_file(path, keep_lines=3)
        resumed = CampaignRunner(workers=2).run(
            CAMPAIGN, jsonl=str(path), resume=True
        )
        assert resumed.fingerprint() == full.fingerprint()

    def test_changed_spec_definition_rejected(self, tmp_path):
        path, _ = run_full(tmp_path)
        changed = list(CAMPAIGN)
        changed[0] = ScenarioSpec("writer_reader_d2", "writer_reader", depth=8)
        with pytest.raises(ValueError, match="different spec definition"):
            CampaignRunner(workers=1).run(changed, jsonl=str(path), resume=True)

    def test_pair_row_for_unknown_spec_rejected(self, tmp_path):
        path, _ = run_full(tmp_path)
        with open(path) as handle:
            pair_line = next(
                line for line in handle if '"type":"pair"' in line
            )
        foreign = pair_line.replace("writer_reader_d2", "no_such_spec")
        with open(path, "a") as handle:
            handle.write(foreign)
        with pytest.raises(ValueError, match="unknown spec"):
            CampaignRunner(workers=1).run(CAMPAIGN, jsonl=str(path), resume=True)

    def test_load_resume_state_returns_rows(self, tmp_path):
        path, full = run_full(tmp_path)
        header, runs, pairs = load_resume_state(str(path), CAMPAIGN, True, None)
        assert header["specs"] == [spec.name for spec in CAMPAIGN]
        assert {record.name for record in runs} == {spec.name for spec in CAMPAIGN}
        assert len(pairs) == 3  # contention is not pairable


class TestShardedResume:
    """Resuming one shard of a campaign: skip only *that* shard's rows."""

    def shard_runner(self, index, **kwargs):
        return CampaignRunner(workers=1, shard=(index, 2), **kwargs)

    def run_shard(self, tmp_path, index, name=None):
        path = tmp_path / (name or f"shard{index}.jsonl")
        result = self.shard_runner(index).run(CAMPAIGN, jsonl=str(path))
        return path, result

    def test_sharded_resume_skips_done_rows_and_matches_fingerprint(
        self, tmp_path
    ):
        path, full = self.run_shard(tmp_path, 0)
        # Keep the header plus the first completed spec's rows only.
        truncate_file(path, keep_lines=3)
        executed = []

        import repro.campaign.runner as runner_module
        original = runner_module._run_one

        def spying_run_one(spec, trace_sink="digest", *args, **kwargs):
            executed.append((spec.name, spec.mode))
            return original(spec, trace_sink, *args, **kwargs)

        runner_module._run_one = spying_run_one
        try:
            resumed = self.shard_runner(0).run(
                CAMPAIGN, jsonl=str(path), resume=True
            )
        finally:
            runner_module._run_one = original
        assert resumed.fingerprint() == full.fingerprint()
        done = {name for name, _ in executed}
        # Shard 0 of the round-robin partition is specs 0 and 2; the
        # recovered spec did not re-run, and no other shard's spec ran.
        assert "writer_reader_d2" not in done
        assert done <= {"contention_small"}

    def test_resume_rejects_rows_from_another_shard(self, tmp_path):
        path, _ = self.run_shard(tmp_path, 0)
        other_path, _ = self.run_shard(tmp_path, 1)
        # Graft a shard-1 run row into the shard-0 file (same campaign
        # header, wrong shard membership).
        foreign_run = next(
            line for line in other_path.read_text().splitlines()
            if '"type":"run"' in line
        )
        with open(path, "a") as handle:
            handle.write(foreign_run + "\n")
        with pytest.raises(ValueError, match="does not belong to shard"):
            self.shard_runner(0).run(CAMPAIGN, jsonl=str(path), resume=True)

    def test_resume_with_the_wrong_shard_index_rejected(self, tmp_path):
        path, _ = self.run_shard(tmp_path, 0)
        with pytest.raises(ValueError, match="different campaign"):
            self.shard_runner(1).run(CAMPAIGN, jsonl=str(path), resume=True)

    def test_healed_shard_files_still_merge(self, tmp_path):
        unsharded = CampaignRunner(workers=1).run(CAMPAIGN)
        path0, _ = self.run_shard(tmp_path, 0)
        path1, _ = self.run_shard(tmp_path, 1)
        truncate_file(path0, keep_lines=2)
        self.shard_runner(0).run(CAMPAIGN, jsonl=str(path0), resume=True)
        merged = merge_jsonl([str(path0), str(path1)])
        assert merged.fingerprint() == unsharded.fingerprint()


#: Shard files written by an older release, kept byte for byte:
#:
#:   python -m repro.analysis.cli campaign --specs FIXTURE_SPECS \
#:       --shard i/2 --jsonl tests/data/shard_index_<i>of2.jsonl
#:   python -m repro.analysis.cli campaign --specs FIXTURE_SPECS \
#:       --shard-by-cost i/2 --jsonl tests/data/shard_cost_<i>of2.jsonl
#:
#: for i in 0 and 1.  ``--shard-by-cost`` (a cost-balanced partitioner,
#: since retired) wrote ``"shard_by": "cost"`` headers and a different
#: shard membership than round-robin.
DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "data")
FIXTURE_SPECS = "writer_reader_d1,writer_reader_d4,streaming_d2"


def fixture_path(kind, index):
    return os.path.join(DATA_DIR, f"shard_{kind}_{index}of2.jsonl")


def fixture_campaign():
    by_name = {spec.name: spec for spec in default_campaign()}
    return [by_name[name] for name in FIXTURE_SPECS.split(",")]


def printed_fingerprint(output):
    (line,) = [line for line in output.splitlines() if "fingerprint" in line]
    return line.split()[-1]


class TestOldShardFiles:
    """Committed shard files of both partitioners stay readable."""

    @pytest.mark.parametrize("kind", ["index", "cost"])
    def test_fixture_pair_merges_to_the_unsharded_fingerprint(
        self, capsys, kind
    ):
        unsharded = CampaignRunner(workers=1).run(fixture_campaign())
        paths = [fixture_path(kind, index) for index in range(2)]
        assert merge_jsonl(paths).fingerprint() == unsharded.fingerprint()
        assert cli.main(["campaign", "--merge-jsonl", ",".join(paths)]) == 0
        merged = printed_fingerprint(capsys.readouterr().out)
        assert merged == unsharded.fingerprint()

    @pytest.mark.parametrize("index", [0, 1])
    def test_index_shards_are_written_byte_identically(
        self, capsys, tmp_path, index
    ):
        path = tmp_path / f"shard{index}.jsonl"
        assert cli.main([
            "campaign", "--specs", FIXTURE_SPECS,
            "--shard", f"{index}/2", "--jsonl", str(path),
        ]) == 0
        with open(fixture_path("index", index), "rb") as handle:
            assert path.read_bytes() == handle.read()

    def test_cost_shard_cannot_resume_as_round_robin(self, tmp_path):
        path = tmp_path / "cost0.jsonl"
        shutil.copyfile(fixture_path("cost", 0), path)
        before = path.read_bytes()
        with pytest.raises(CampaignResumeError, match="cost"):
            CampaignRunner(workers=1, shard=(0, 2)).run(
                fixture_campaign(), jsonl=str(path), resume=True
            )
        assert path.read_bytes() == before

    def test_torn_index_shard_heals_via_resume(self, capsys, tmp_path):
        path = tmp_path / "index0.jsonl"
        shutil.copyfile(fixture_path("index", 0), path)
        lines = path.read_text().splitlines()
        truncate_file(path, keep_lines=3, torn_tail=lines[3][:40])
        assert cli.main([
            "campaign", "--specs", FIXTURE_SPECS,
            "--shard", "0/2", "--jsonl", str(path), "--resume",
        ]) == 0
        assert sorted(path.read_text().splitlines()) == sorted(lines)
        unsharded = CampaignRunner(workers=1).run(fixture_campaign())
        merged = merge_jsonl([str(path), fixture_path("index", 1)])
        assert merged.fingerprint() == unsharded.fingerprint()
