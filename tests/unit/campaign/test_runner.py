"""Unit tests for the campaign runner and its deterministic aggregation."""

import io
import json
import os
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignRunner,
    ScenarioSpec,
    default_campaign,
    execute_spec,
    spec_is_pairable,
    sweep_point_specs,
)
from repro.campaign.executor import _batch_size

SMALL_CAMPAIGN = [
    ScenarioSpec("writer_reader_d2", "writer_reader", depth=2),
    ScenarioSpec("bursty_s3", "bursty", depth=3, seed=3,
                 params={"n_bursts": 4, "max_burst": 5}),
    ScenarioSpec("random_s5_d2", "random_traffic", depth=2, seed=5,
                 params={"item_count": 20, "monitor_samples": 4}),
    ScenarioSpec("contention_small", "contention", depth=4, seed=2,
                 params={"items_per_writer": 8}),
]


class TestExecuteSpec:
    def test_record_carries_identity_and_counters(self):
        record = execute_spec(SMALL_CAMPAIGN[0])
        assert record.name == "writer_reader_d2"
        assert record.workload == "writer_reader"
        assert record.mode == "smart"
        assert record.sim_end_fs > 0
        assert record.trace_digest and len(record.trace_digest) == 64
        assert record.worker_pid > 0

    def test_repeated_execution_is_deterministic(self):
        first = execute_spec(SMALL_CAMPAIGN[1]).deterministic_row()
        second = execute_spec(SMALL_CAMPAIGN[1]).deterministic_row()
        assert first == second

    def test_deterministic_row_excludes_wall_clock(self):
        row = execute_spec(SMALL_CAMPAIGN[0]).deterministic_row()
        assert "wall_seconds" not in row and "worker_pid" not in row
        json.dumps(row)  # must be JSON-serializable

    def test_verify_failures_propagate(self):
        # depth < packet_size makes SocConfig.validate raise.
        spec = ScenarioSpec("soc_bad", "soc", depth=2,
                            params={"packet_size": 4})
        with pytest.raises(Exception):
            execute_spec(spec)


class TestInlinePair:
    def test_pairable_spec_produces_empty_diff(self):
        (pair,) = CampaignRunner(workers=1).run([SMALL_CAMPAIGN[1]]).pairs
        assert pair.equivalent
        assert pair.extras_match
        assert pair.report == ""
        assert pair.reference_digest == pair.smart_digest
        assert pair.reference_lines == pair.candidate_lines > 0


class TestCampaignRunner:
    def test_rejects_bad_worker_counts_and_duplicate_names(self):
        with pytest.raises(ValueError, match="workers"):
            CampaignRunner(workers=0)
        runner = CampaignRunner()
        with pytest.raises(ValueError, match="duplicate"):
            runner.run([SMALL_CAMPAIGN[0], SMALL_CAMPAIGN[0]])

    def test_inline_run_collects_runs_and_pairs(self):
        result = CampaignRunner(workers=1).run(SMALL_CAMPAIGN)
        assert len(result.runs) == 4
        # contention is not pairable, the three others are.
        assert len(result.pairs) == 3
        assert result.all_pairs_equivalent
        assert result.workers == 1

    def test_paired_false_skips_pairs(self):
        result = CampaignRunner(workers=1, paired=False).run(SMALL_CAMPAIGN)
        assert result.pairs == []

    def test_worker_count_does_not_change_the_aggregate(self):
        inline = CampaignRunner(workers=1).run(SMALL_CAMPAIGN)
        pooled = CampaignRunner(workers=2).run(SMALL_CAMPAIGN)
        assert inline.canonical_json() == pooled.canonical_json()
        assert inline.fingerprint() == pooled.fingerprint()

    def test_pool_really_uses_other_processes(self):
        import os

        result = CampaignRunner(workers=2).run(SMALL_CAMPAIGN)
        pids = result.worker_pids()
        assert len(pids) >= 2
        assert os.getpid() not in pids

    def test_tables_and_summary_render(self):
        result = CampaignRunner(workers=1).run(SMALL_CAMPAIGN)
        assert "Campaign runs" in result.table()
        assert "equivalence" in result.pairs_table()
        summary = result.summary()
        assert "fingerprint" in summary
        assert "all pairs equivalent: True" in summary


def replicated_default_campaign(copies):
    """``default_campaign()`` repeated ``copies`` times under new names."""
    return [
        replace(spec, name=f"{spec.name}_r{copy}", params=dict(spec.params))
        for copy in range(copies)
        for spec in default_campaign()
    ]


def job_count(specs):
    """Pool jobs of a paired campaign: two per pairable spec."""
    return sum(2 if spec_is_pairable(spec) else 1 for spec in specs)


class TestBatching:
    """Pool jobs travel in batches sized from the job count."""

    def test_batch_size_is_one_up_to_sixteen_jobs_per_worker(self):
        for processes in (1, 2, 3, 8):
            for jobs in range(1, processes * 16 + 1):
                assert _batch_size(jobs, processes) == 1
            assert _batch_size(processes * 32, processes) == 2

    def test_batch_size_never_yields_fewer_batches_than_workers(self):
        for processes in (1, 2, 3, 8):
            for jobs in range(1, 5000, 7):
                size = _batch_size(jobs, processes)
                batches = -(-jobs // size)
                assert batches >= min(jobs, processes)
                assert batches >= min(jobs, processes * 16)

    def test_replicated_default_campaign_batches(self):
        # 40 replicas: 1,360 jobs on 2 workers travel 42 to a batch.
        assert _batch_size(job_count(replicated_default_campaign(40)), 2) == 42

    def test_batched_pool_matches_inline(self):
        specs = replicated_default_campaign(4)
        assert _batch_size(job_count(specs), 2) > 1
        inline = CampaignRunner(workers=1).run(specs)
        pooled = CampaignRunner(workers=2).run(specs)
        assert pooled.canonical_json() == inline.canonical_json()
        assert pooled.fingerprint() == inline.fingerprint()
        pids = pooled.worker_pids()
        assert len(pids) >= 2
        assert os.getpid() not in pids
        assert len(pooled.pairs) == len(inline.pairs) > 0
        for pair in pooled.pairs:
            assert all(pid in pids for pid in pair.worker_pids)


class TestProgress:
    def test_auto_replayed_rows_are_counted(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setattr("sys.stderr", stream)
        anchor = {spec.name: spec for spec in default_campaign()}["mixed_d3"]
        specs = [anchor] + sweep_point_specs(anchor, (1, 2, 4, 6, 16))
        result = CampaignRunner(
            workers=1, paired=False, auto_replay=True, progress=True
        ).run(specs)
        assert len(result.runs) == 6
        assert any(run.evaluator == "replay" for run in result.runs)
        final = stream.getvalue().splitlines()[-1]
        assert final.startswith("[campaign] 6/6 done")


class TestSplitPairs:
    """The two halves of a pair are independent jobs, recombined exactly."""

    def test_the_run_row_is_the_half_in_the_specs_own_mode(self):
        spec = SMALL_CAMPAIGN[1]
        (run,) = CampaignRunner(workers=1).run([spec]).runs
        direct = execute_spec(spec.with_mode(spec.mode))
        assert run.deterministic_row() == direct.deterministic_row()
        # Only the digest travels: no trace lines ride along.
        assert len(run.trace_digest) == 64

    def test_combine_pair_matches_the_campaign_pair(self):
        from repro.campaign import combine_pair

        spec = SMALL_CAMPAIGN[2]
        ref = execute_spec(spec.with_mode("reference"))
        smart = execute_spec(spec.with_mode("smart"))
        combined = combine_pair(ref, smart)
        (campaign_pair,) = CampaignRunner(workers=1).run([spec]).pairs
        assert combined.deterministic_row() == campaign_pair.deterministic_row()
        assert combined.equivalent

    def test_combine_pair_reports_mismatches(self):
        from repro.campaign import combine_pair

        spec = SMALL_CAMPAIGN[1]
        ref = execute_spec(spec.with_mode("reference"))
        smart = execute_spec(spec.with_mode("smart"))
        smart = replace(
            smart, trace_digest="0" * 64, trace_lines=smart.trace_lines - 1,
            extra={"tampered": True},
        )
        pair = combine_pair(ref, smart)
        assert not pair.equivalent
        assert not pair.extras_match
        assert "sorted-trace digests" in pair.report
        assert "extras differ" in pair.report

    def test_streaming_diff_upgrades_digest_mismatch(self):
        from repro.campaign import diff_pair_streaming

        # An equivalent pair diffs empty through the spool path too, and
        # the digests match the digest-sink halves bit for bit.
        spec = SMALL_CAMPAIGN[2]
        pair = diff_pair_streaming(spec)
        assert pair.equivalent
        assert pair.report == ""
        reference = execute_spec(spec.with_mode("reference"))
        assert pair.reference_digest == reference.trace_digest


class TestSharding:
    def test_shard_specs_partition_is_deterministic_and_complete(self):
        shards = [
            CampaignRunner.shard_specs(SMALL_CAMPAIGN, index, 3)
            for index in range(3)
        ]
        names = sorted(s.name for shard in shards for s in shard)
        assert names == sorted(s.name for s in SMALL_CAMPAIGN)
        # Round-robin: shard 0 gets specs 0 and 3.
        assert [s.name for s in shards[0]] == [
            SMALL_CAMPAIGN[0].name, SMALL_CAMPAIGN[3].name
        ]

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError, match="shard count"):
            CampaignRunner(shard=(0, 0))
        with pytest.raises(ValueError, match="shard index"):
            CampaignRunner(shard=(2, 2))
        with pytest.raises(ValueError, match="shard index"):
            CampaignRunner(shard=(-1, 2))

    def test_sharded_union_reproduces_unsharded_fingerprint(self, tmp_path):
        from repro.campaign import merge_jsonl

        unsharded = CampaignRunner(workers=1).run(SMALL_CAMPAIGN)
        paths = []
        for index in range(2):
            path = str(tmp_path / f"shard{index}.jsonl")
            result = CampaignRunner(workers=2, shard=(index, 2)).run(
                SMALL_CAMPAIGN, jsonl=path
            )
            assert result.shard == (index, 2)
            assert f"shard={index}/2" in result.summary()
            paths.append(path)
        merged = merge_jsonl(paths)
        assert merged.canonical_json() == unsharded.canonical_json()
        assert merged.fingerprint() == unsharded.fingerprint()


class TestJsonlPersistence:
    def test_jsonl_rows_cover_every_run_and_pair(self, tmp_path):
        import json as json_mod

        path = str(tmp_path / "campaign.jsonl")
        result = CampaignRunner(workers=1).run(SMALL_CAMPAIGN, jsonl=path)
        rows = [json_mod.loads(line) for line in open(path)]
        assert rows[0]["type"] == "campaign"
        assert rows[0]["schema"] == 1
        assert rows[0]["specs"] == [s.name for s in SMALL_CAMPAIGN]
        assert rows[0]["shard"] is None
        kinds = [row["type"] for row in rows[1:]]
        assert kinds.count("run") == len(result.runs)
        assert kinds.count("pair") == len(result.pairs)
        for row in rows[1:]:
            assert "wall_seconds" not in row and "worker_pid" not in row

    def test_merge_round_trips_the_fingerprint(self, tmp_path):
        from repro.campaign import merge_jsonl

        path = str(tmp_path / "campaign.jsonl")
        result = CampaignRunner(workers=2).run(SMALL_CAMPAIGN, jsonl=path)
        merged = merge_jsonl([path])
        assert merged.fingerprint() == result.fingerprint()
        assert merged.all_pairs_equivalent == result.all_pairs_equivalent

    def test_merge_rejects_duplicates_and_garbage(self, tmp_path):
        from repro.campaign import merge_jsonl

        path = str(tmp_path / "campaign.jsonl")
        CampaignRunner(workers=1).run(SMALL_CAMPAIGN[:2], jsonl=path)
        with pytest.raises(ValueError, match="duplicate run row"):
            merge_jsonl([path, path])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            merge_jsonl([str(bad)])
        unknown = tmp_path / "unknown.jsonl"
        unknown.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown type"):
            merge_jsonl([str(unknown)])


class TestMergeCompleteness:
    """Incomplete merges must fail loudly, not fingerprint a partial set."""

    def _shard_files(self, tmp_path):
        paths = []
        for index in range(2):
            path = str(tmp_path / f"shard{index}.jsonl")
            CampaignRunner(workers=1, shard=(index, 2)).run(
                SMALL_CAMPAIGN, jsonl=path
            )
            paths.append(path)
        return paths

    def test_missing_shard_is_rejected(self, tmp_path):
        from repro.campaign import merge_jsonl

        paths = self._shard_files(tmp_path)
        with pytest.raises(ValueError, match="missing shard"):
            merge_jsonl(paths[:1])
        merge_jsonl(paths)  # the full set still merges

    def test_truncated_shard_file_is_rejected(self, tmp_path):
        from repro.campaign import merge_jsonl

        paths = self._shard_files(tmp_path)
        lines = open(paths[1]).read().splitlines(keepends=True)
        # Drop the last row (a run or pair of the second shard).
        with open(paths[1], "w") as handle:
            handle.writelines(lines[:-1])
        with pytest.raises(ValueError, match="truncated|missing"):
            merge_jsonl(paths)

    def test_headerless_file_is_rejected(self, tmp_path):
        from repro.campaign import merge_jsonl

        path = str(tmp_path / "solo.jsonl")
        CampaignRunner(workers=1).run(SMALL_CAMPAIGN[:1], jsonl=path)
        lines = open(path).read().splitlines(keepends=True)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text("".join(lines[1:]))
        with pytest.raises(ValueError, match="campaign header"):
            merge_jsonl([str(headerless)])
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="no campaign rows"):
            merge_jsonl([str(empty)])

    def test_worker_pids_cover_both_pair_halves(self):
        import os

        result = CampaignRunner(workers=3).run(SMALL_CAMPAIGN)
        pids = result.worker_pids()
        assert os.getpid() not in pids
        # All pair halves ran somewhere real.
        for pair in result.pairs:
            assert all(pid in pids for pid in pair.worker_pids)

    def test_shards_of_different_campaigns_do_not_merge(self, tmp_path):
        from repro.campaign import merge_jsonl

        path_a = str(tmp_path / "a.jsonl")
        path_b = str(tmp_path / "b.jsonl")
        CampaignRunner(workers=1, shard=(0, 2)).run(
            SMALL_CAMPAIGN, jsonl=path_a
        )
        CampaignRunner(workers=1, shard=(1, 2)).run(
            SMALL_CAMPAIGN[:3], jsonl=path_b
        )
        with pytest.raises(ValueError, match="different campaigns"):
            merge_jsonl([path_a, path_b])

    def test_schema_and_missing_fields_fail_cleanly(self, tmp_path):
        import json as json_mod

        from repro.campaign import merge_jsonl

        path = str(tmp_path / "campaign.jsonl")
        CampaignRunner(workers=1).run(SMALL_CAMPAIGN[:1], jsonl=path)
        rows = [json_mod.loads(line) for line in open(path)]

        future = tmp_path / "future.jsonl"
        header = dict(rows[0], schema=99)
        future.write_text(json_mod.dumps(header) + "\n")
        with pytest.raises(ValueError, match="schema 99"):
            merge_jsonl([str(future)])

        clipped = tmp_path / "clipped.jsonl"
        run_row = {k: v for k, v in rows[1].items() if k != "trace_digest"}
        clipped.write_text(
            json_mod.dumps(rows[0]) + "\n" + json_mod.dumps(run_row) + "\n"
        )
        with pytest.raises(ValueError, match="missing field"):
            merge_jsonl([str(clipped)])


class TestAutoReplay:
    """The --auto-replay routing pass (see CampaignRunner.auto_replay)."""

    def _sweep(self, depths=(4, 6, 16)):
        from dataclasses import replace

        anchor = ScenarioSpec(
            "auto_anchor", "random_traffic", mode="smart", depth=8, seed=3
        )
        points = [
            replace(anchor, name=f"auto_anchor_d{d}", depth=d,
                    params=dict(anchor.params))
            for d in depths
        ]
        return [anchor] + points

    def test_eligible_group_is_routed_and_tagged(self):
        specs = self._sweep()
        result = CampaignRunner(
            workers=1, paired=False, auto_replay=True
        ).run(specs)
        evaluators = {r.name: r.evaluator for r in result.runs}
        assert evaluators["auto_anchor"] == "simulate"
        assert all(
            evaluators[s.name] == "replay" for s in specs[1:]
        ), evaluators

    def test_simulated_rows_byte_identical_to_no_replay_run(self):
        specs = self._sweep()
        auto = CampaignRunner(workers=1, paired=False, auto_replay=True).run(specs)
        plain = CampaignRunner(workers=1, paired=False).run(specs)
        plain_rows = {r.name: r.deterministic_row() for r in plain.runs}
        for record in auto.runs:
            if record.evaluator == "simulate":
                assert record.deterministic_row() == plain_rows[record.name]

    def test_out_of_envelope_point_falls_back_to_simulation(self):
        specs = self._sweep(depths=(1, 4))  # depth 1 is outside the envelope
        auto = CampaignRunner(workers=1, paired=False, auto_replay=True).run(specs)
        plain = CampaignRunner(workers=1, paired=False).run(specs)
        by_name = {r.name: r for r in auto.runs}
        assert by_name["auto_anchor_d1"].evaluator == "simulate"
        assert by_name["auto_anchor_d4"].evaluator == "replay"
        plain_row = next(
            r for r in plain.runs if r.name == "auto_anchor_d1"
        ).deterministic_row()
        assert by_name["auto_anchor_d1"].deterministic_row() == plain_row

    def test_poisoned_group_simulates_everything(self):
        from dataclasses import replace

        soc = ScenarioSpec(
            "soc_small", "soc", depth=8,
            params={"n_chains": 1, "items_per_chain": 16},
        )
        specs = [soc, replace(soc, name="soc_small_d4", depth=4,
                              params=dict(soc.params))]
        result = CampaignRunner(
            workers=1, paired=False, auto_replay=True
        ).run(specs)
        assert all(r.evaluator == "simulate" for r in result.runs)

    def test_a_poisoned_anchor_is_simulated_once(self, monkeypatch):
        from repro.campaign import evaluators

        anchor = next(
            spec for spec in default_campaign()
            if spec.name == "noc_stress_2x2"
        )
        specs = [anchor] + sweep_point_specs(anchor, depths=(8, 16))
        plain = CampaignRunner(workers=1, paired=False).run(specs)
        simulate = evaluators.simulate
        simulated = []

        def spy(spec, *args, **kwargs):
            simulated.append(spec.name)
            return simulate(spec, *args, **kwargs)

        monkeypatch.setattr(evaluators, "simulate", spy)
        auto = CampaignRunner(
            workers=1, paired=False, auto_replay=True
        ).run(specs)
        assert sorted(simulated) == sorted(spec.name for spec in specs)
        assert [r.deterministic_row() for r in auto.runs] == [
            r.deterministic_row() for r in plain.runs
        ]
        assert auto.fingerprint() == plain.fingerprint()

    def test_singleton_groups_and_paired_specs_not_routed(self):
        result = CampaignRunner(workers=1, auto_replay=True).run(SMALL_CAMPAIGN)
        assert all(r.evaluator == "simulate" for r in result.runs)
        assert len(result.pairs) > 0

    def test_jsonl_round_trips_replay_rows(self, tmp_path):
        from repro.campaign import merge_jsonl

        specs = self._sweep()
        path = str(tmp_path / "auto.jsonl")
        result = CampaignRunner(
            workers=1, paired=False, auto_replay=True
        ).run(specs, jsonl=path)
        merged = merge_jsonl([path])
        assert merged.fingerprint() == result.fingerprint()
        tags = {r.name: r.evaluator for r in merged.runs}
        assert tags["auto_anchor_d4"] == "replay"

    def test_validation_divergence_would_raise(self):
        # validate=0 trusts the self-check; smoke that the knob is wired.
        specs = self._sweep(depths=(4,))
        result = CampaignRunner(
            workers=1, paired=False, auto_replay=True, auto_replay_validate=0
        ).run(specs)
        assert {r.evaluator for r in result.runs} == {"simulate", "replay"}
        with pytest.raises(ValueError):
            CampaignRunner(auto_replay=True, auto_replay_validate=-1)


class TestAutoReplayScaleOut:
    """Sharding and resuming an auto-replayed sweep keep the fingerprint:
    a point whose group anchor is done, or sits in another shard, is still
    replayed from that anchor's recording."""

    def _specs(self):
        anchor = next(
            spec for spec in default_campaign() if spec.name == "streaming_d8"
        )
        return [anchor] + sweep_point_specs(anchor, depths=(1, 2, 4, 16))

    def _runner(self, **kwargs):
        return CampaignRunner(
            workers=1, paired=False, auto_replay=True, **kwargs
        )

    def test_sharded_auto_replay_reproduces_unsharded_fingerprint(
        self, tmp_path
    ):
        from repro.campaign import merge_jsonl

        specs = self._specs()
        whole = self._runner().run(specs)
        paths = [str(tmp_path / f"shard{index}.jsonl") for index in range(2)]
        for index, path in enumerate(paths):
            self._runner(shard=(index, 2)).run(specs, jsonl=path)
        merged = merge_jsonl(paths)
        assert merged.canonical_json() == whole.canonical_json()
        assert merged.fingerprint() == whole.fingerprint()

    def test_resumed_auto_replay_reproduces_uninterrupted_fingerprint(
        self, tmp_path
    ):
        from repro.campaign import merge_jsonl

        specs = self._specs()
        path = tmp_path / "sweep.jsonl"
        whole = self._runner().run(specs, jsonl=str(path))
        lines = path.read_text().splitlines(keepends=True)
        first_replayed = next(
            index for index, line in enumerate(lines)
            if json.loads(line).get("evaluator") == "replay"
        )
        path.write_text("".join(lines[:first_replayed + 1]))
        resumed = self._runner().run(specs, jsonl=str(path), resume=True)
        assert resumed.fingerprint() == whole.fingerprint()
        assert merge_jsonl([str(path)]).fingerprint() == whole.fingerprint()
