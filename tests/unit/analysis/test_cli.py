"""Unit tests for the experiment command-line interface."""

import os

import pytest

from repro.analysis import cli


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_int_list_parsing(self):
        args = cli.build_parser().parse_args(["fig5", "--depths", "1,2,8"])
        assert args.depths == [1, 2, 8]


class TestCommands:
    def test_fig2_command(self, capsys):
        assert cli.main(["fig2", "--depth", "2"]) == 0
        output = capsys.readouterr().out
        assert "Smart FIFO matches the reference: True" in output
        assert "Fig. 2/3" in output

    def test_fig5_command_with_csv(self, capsys, tmp_path):
        csv_path = os.path.join(tmp_path, "fig5.csv")
        assert (
            cli.main(
                [
                    "fig5",
                    "--depths",
                    "1,4",
                    "--blocks",
                    "2",
                    "--words",
                    "10",
                    "--csv",
                    csv_path,
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "tdfull" in output
        with open(csv_path) as handle:
            header = handle.readline()
        assert "wall_seconds" in header

    def test_case_study_command(self, capsys):
        assert (
            cli.main(["case-study", "--chains", "1", "--items", "32", "--workers", "1"])
            == 0
        )
        output = capsys.readouterr().out
        assert "Smart FIFO" in output
        assert "gain" in output

    def test_quantum_command(self, capsys):
        assert (
            cli.main(["quantum", "--quanta", "0,1000", "--blocks", "2", "--words", "10"])
            == 0
        )
        output = capsys.readouterr().out
        assert "timing_error_ns" in output

    def test_context_switches_command(self, capsys):
        assert (
            cli.main(
                ["context-switches", "--depths", "1,8", "--blocks", "2", "--words", "10"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "context_switches" in output


class TestCsvOnEverySubcommand:
    """The module docstring promises ``--csv`` for every subcommand."""

    def run_with_csv(self, tmp_path, argv):
        csv_path = os.path.join(tmp_path, "out.csv")
        assert cli.main(argv + ["--csv", csv_path]) == 0
        with open(csv_path) as handle:
            return handle.readline(), handle.read()

    def test_fig2_csv(self, capsys, tmp_path):
        header, body = self.run_with_csv(tmp_path, ["fig2", "--depth", "2"])
        assert "reference_write_ns" in header and "smart_read_ns" in header
        assert body.strip()

    def test_case_study_csv(self, capsys, tmp_path):
        header, body = self.run_with_csv(
            tmp_path, ["case-study", "--chains", "1", "--items", "32", "--workers", "1"]
        )
        assert "wall_seconds" in header and "gain_percent" in header
        assert len(body.strip().splitlines()) == 2  # sync + smart rows

    def test_quantum_csv(self, capsys, tmp_path):
        header, body = self.run_with_csv(
            tmp_path, ["quantum", "--quanta", "0,1000", "--blocks", "2", "--words", "10"]
        )
        assert "quantum_ns" in header and "timing_error_ns" in header
        assert body.strip()

    def test_context_switches_csv(self, capsys, tmp_path):
        header, body = self.run_with_csv(
            tmp_path,
            ["context-switches", "--depths", "1,8", "--blocks", "2", "--words", "10"],
        )
        assert "context_switches" in header
        assert body.strip()


class TestCampaignCommand:
    def test_list_prints_specs_without_running(self, capsys):
        assert cli.main(["campaign", "--list"]) == 0
        output = capsys.readouterr().out
        assert "Campaign specs" in output
        assert "contention_3w3r" in output
        assert "pairable" in output

    def test_spec_filter_and_csv(self, capsys, tmp_path):
        csv_path = os.path.join(tmp_path, "campaign.csv")
        assert (
            cli.main(
                [
                    "campaign",
                    "--specs",
                    "writer_reader_d4,bursty_s3_d4",
                    "--csv",
                    csv_path,
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "all pairs equivalent: True" in output
        assert "campaign fingerprint:" in output
        with open(csv_path) as handle:
            header = handle.readline()
            body = handle.read()
        assert "trace_digest" in header
        assert len(body.strip().splitlines()) == 2

    def test_unknown_spec_name_fails_cleanly(self):
        with pytest.raises(SystemExit, match="unknown spec"):
            cli.main(["campaign", "--specs", "no_such_spec"])

    def test_no_paired_skips_the_equivalence_battery(self, capsys):
        assert (
            cli.main(["campaign", "--specs", "writer_reader_d1", "--no-paired"]) == 0
        )
        output = capsys.readouterr().out
        assert "0 pairs" in output


class TestCampaignScaleOutFlags:
    """``--workers``/``--shard`` validation and ``--jsonl``/``--merge-jsonl``."""

    @pytest.mark.parametrize("argv", [
        ["campaign", "--workers", "0"],
        ["campaign", "--workers", "-3"],
        ["campaign", "--workers", "two"],
    ])
    def test_bad_workers_fail_at_the_argparse_layer(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2  # argparse usage error, no traceback
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("shard", ["2/2", "3/2", "-1/2", "0/0", "1", "a/b", "1/2/3"])
    def test_bad_shards_fail_at_the_argparse_layer(self, capsys, shard):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["campaign", "--shard", shard])
        assert excinfo.value.code == 2
        assert "--shard" in capsys.readouterr().err

    def test_shard_jsonl_merge_round_trip(self, capsys, tmp_path):
        specs = "writer_reader_d1,writer_reader_d4,bursty_s3_d4,mixed_d3"
        paths = []
        for index in range(2):
            path = os.path.join(tmp_path, f"shard{index}.jsonl")
            paths.append(path)
            assert cli.main([
                "campaign", "--specs", specs,
                "--shard", f"{index}/2", "--jsonl", path,
            ]) == 0
        shard_output = capsys.readouterr().out
        assert "shard=0/2" in shard_output and "shard=1/2" in shard_output

        assert cli.main(["campaign", "--specs", specs]) == 0
        unsharded = capsys.readouterr().out

        assert cli.main(["campaign", "--merge-jsonl", ",".join(paths)]) == 0
        merged = capsys.readouterr().out
        fingerprint = [
            line for line in unsharded.splitlines() if "fingerprint" in line
        ]
        assert fingerprint and fingerprint[0] in merged

    def test_merge_jsonl_failure_is_friendly(self, tmp_path):
        missing = os.path.join(tmp_path, "missing.jsonl")
        with pytest.raises(SystemExit, match="cannot merge campaign JSONL"):
            cli.main(["campaign", "--merge-jsonl", missing])

    def test_merge_jsonl_rejects_conflicting_flags(self, tmp_path):
        path = os.path.join(tmp_path, "s.jsonl")
        with pytest.raises(SystemExit, match="cannot be combined with --jsonl"):
            cli.main(["campaign", "--merge-jsonl", path, "--jsonl", path])
        with pytest.raises(SystemExit, match="--shard, --workers"):
            cli.main(["campaign", "--merge-jsonl", path, "--shard", "0/2",
                      "--workers", "2"])
        with pytest.raises(SystemExit, match="--spec-timeout"):
            cli.main(["campaign", "--merge-jsonl", path,
                      "--spec-timeout", "10"])


class TestCampaignBudgetFlags:
    """``--spec-timeout``/``--campaign-budget``."""

    @pytest.mark.parametrize("flag", ["--spec-timeout", "--campaign-budget"])
    @pytest.mark.parametrize("value", ["0", "-2", "soon"])
    def test_bad_budgets_fail_at_the_argparse_layer(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["campaign", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_generous_spec_timeout_wiring_exits_0_without_rows(
        self, capsys, tmp_path
    ):
        # No registry spec spins, and a tiny budget on a real spec would
        # be nondeterministic, so this only asserts the flag wiring end
        # to end with a generous timeout (exit 0, no rows); the
        # deterministic kill/exit-1 path is covered at the runner level
        # by tests/unit/campaign/test_budget.py.
        path = os.path.join(tmp_path, "out.jsonl")
        assert cli.main([
            "campaign", "--specs", "writer_reader_d1",
            "--spec-timeout", "60", "--jsonl", path,
        ]) == 0
        output = capsys.readouterr().out
        assert "budget timeouts" not in output


class TestCampaignTracePipelineFlags:
    """``--trace-sink``/``--trace-out``/``--resume``."""

    def test_trace_sink_choices_are_validated(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["campaign", "--trace-sink", "csv"])
        assert excinfo.value.code == 2
        assert "--trace-sink" in capsys.readouterr().err

    def test_trace_out_requires_spool_sink(self):
        with pytest.raises(SystemExit, match="--trace-sink spool"):
            cli.main(["campaign", "--trace-out", "traces"])

    def test_spool_sink_exports_reordered_traces(self, capsys, tmp_path):
        out_dir = os.path.join(tmp_path, "traces")
        assert cli.main([
            "campaign", "--specs", "writer_reader_d1",
            "--trace-sink", "spool", "--trace-out", out_dir,
        ]) == 0
        files = sorted(os.listdir(out_dir))
        assert files == [
            "writer_reader_d1.reference.trace",
            "writer_reader_d1.smart.trace",
        ]
        reference = open(os.path.join(out_dir, files[0])).read()
        smart = open(os.path.join(out_dir, files[1])).read()
        # The exported files are *reordered*, so the equivalent pair's
        # files are identical.
        assert reference == smart
        assert reference.count("\n") > 0

    def test_resume_requires_jsonl(self):
        with pytest.raises(SystemExit, match="--resume requires --jsonl"):
            cli.main(["campaign", "--resume"])

    def test_resume_round_trip(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "campaign.jsonl")
        specs = "writer_reader_d1,writer_reader_d4"
        assert cli.main(["campaign", "--specs", specs, "--jsonl", path]) == 0
        first = capsys.readouterr().out
        assert cli.main([
            "campaign", "--specs", specs, "--jsonl", path, "--resume",
        ]) == 0
        resumed = capsys.readouterr().out
        fingerprint = [l for l in first.splitlines() if "fingerprint" in l]
        assert fingerprint and fingerprint[0] in resumed

    def test_resume_against_foreign_header_fails_cleanly(self, tmp_path):
        path = os.path.join(tmp_path, "campaign.jsonl")
        assert cli.main([
            "campaign", "--specs", "writer_reader_d1", "--jsonl", path,
        ]) == 0
        with pytest.raises(SystemExit, match="different campaign"):
            cli.main([
                "campaign", "--specs", "writer_reader_d4",
                "--jsonl", path, "--resume",
            ])
