"""Unit tests for the experiment command-line interface."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import cli


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_int_list_parsing(self):
        args = cli.build_parser().parse_args(["fig5", "--depths", "1,2,8"])
        assert args.depths == [1, 2, 8]

    def test_context_switches_is_not_a_command(self, capsys):
        # ``fig5`` prints and writes the same counters.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["context-switches"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'context-switches'" in capsys.readouterr().err


class TestBrokenPipe:
    def test_a_reader_that_went_away_ends_the_run_quietly(self):
        """``cli ... | head -1``: the reader closes the pipe before the
        output is written.  The CLI exits 1 with nothing on stderr, not
        with a ``BrokenPipeError`` traceback."""
        src = Path(cli.__file__).resolve().parents[2]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "repro.analysis.cli", "fig2",
                 "--depth", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
            )
        finally:
            os.close(write_end)
        assert child.stderr == ""
        assert child.returncode == 1


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
        # The context-switch sweep's columns ride in the Fig. 5 rows.
        assert {"wall_seconds", "context_switches", "delta_cycles"} <= set(
            header.strip().split(",")
        )

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


class TestCampaignBurstFlag:
    """Burst transfers are the default; ``--no-burst`` is the only switch."""

    def listed_specs(self, monkeypatch, flags):
        seen = []
        describe = cli.describe_specs

        def spy(specs):
            seen.extend(specs)
            return describe(specs)

        monkeypatch.setattr(cli, "describe_specs", spy)
        assert cli.main(["campaign", "--list", *flags]) == 0
        assert seen
        return seen

    def test_burst_is_the_default(self, monkeypatch, capsys):
        assert all(spec.burst for spec in self.listed_specs(monkeypatch, []))

    def test_no_burst_selects_word_transfers(self, monkeypatch, capsys):
        specs = self.listed_specs(monkeypatch, ["--no-burst"])
        assert not any(spec.burst for spec in specs)

    def test_burst_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["campaign", "--burst"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --burst" in capsys.readouterr().err


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


def _jsonl_rows(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


class TestReplaySweepCommands:
    """``campaign --replay-sweep`` and ``fig5 --replay`` end to end."""

    @pytest.mark.parametrize("spec, grid", [
        ("streaming_d8", ["--sweep-depths", "1,2,4,16,32"]),
        ("streaming_quantum_d8", ["--sweep-quanta", "250,4000"]),
    ])
    def test_replay_sweep_is_auto_replay_spelled_short(
        self, capsys, tmp_path, spec, grid
    ):
        short = os.path.join(tmp_path, "short.jsonl")
        long = os.path.join(tmp_path, "long.jsonl")
        assert cli.main(
            ["campaign", "--replay-sweep", spec, *grid, "--jsonl", short]
        ) == 0
        assert cli.main([
            "campaign", "--auto-replay", "--no-paired", "--specs", spec,
            *grid, "--jsonl", long,
        ]) == 0
        with open(short, "rb") as a, open(long, "rb") as b:
            assert a.read() == b.read()
        tags = [row.get("evaluator") for row in _jsonl_rows(short)[1:]]
        assert tags[0] is None and set(tags[1:]) == {"replay"}

    def test_fig5_replay_simulates_the_anchor_and_replays_the_rest(
        self, capsys
    ):
        assert cli.main(["fig5", "--replay", "--depths", "1,2,4,8,16"]) == 0
        output = capsys.readouterr().out
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in output.splitlines()
            if line.count("|") == 5 and line.split("|")[0].strip().isdigit()
        ]
        assert sorted((mode, int(depth)) for depth, mode, *_ in rows) == sorted(
            (mode, depth)
            for mode in ("smart", "reference")
            for depth in (1, 2, 4, 8, 16)
        )
        for depth, mode, evaluator, *_ in rows:
            assert evaluator == ("simulate" if depth == "4" else "replay")

    def test_poisoned_anchor_falls_back_to_simulation(self, capsys, tmp_path):
        # soc packets are 4 words, so depth 4 is the smallest valid point.
        path = os.path.join(tmp_path, "soc.jsonl")
        assert cli.main([
            "campaign", "--replay-sweep", "soc_2x64", "--sweep-depths", "4,16",
            "--jsonl", path,
        ]) == 0
        rows = _jsonl_rows(path)[1:]
        assert len(rows) == 3
        assert all("evaluator" not in row for row in rows)
        assert "no point replayed" in capsys.readouterr().out

    def test_sweep_without_replays_says_so(self, capsys):
        # random_s7_d3's validity envelope refuses both points.
        assert cli.main([
            "campaign", "--replay-sweep", "random_s7_d3",
            "--sweep-depths", "1,2",
        ]) == 0
        output = capsys.readouterr().out
        assert "3 simulations + 0 replays; no point replayed" in output
        assert "nan" not in output

    @pytest.mark.parametrize("argv", [
        ["campaign", "--replay-sweep", "streaming_d8", "--validate", "-1"],
        ["campaign", "--auto-replay", "--validate", "-1"],
        ["fig5", "--replay", "--validate", "-1"],
    ])
    def test_negative_validate_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert "--validate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--replay-sweep", "streaming_d8"],
        ["--auto-replay", "--no-paired", "--specs", "streaming_d8"],
    ])
    def test_repeated_sweep_point_is_refused(self, argv):
        with pytest.raises(SystemExit, match="cannot expand.*repeat"):
            cli.main(["campaign", *argv, "--sweep-depths", "4,4"])

    @pytest.mark.parametrize("argv", [
        ["--replay-sweep", "noc_stress_2x2"],
        ["--auto-replay", "--no-paired", "--specs", "noc_stress_2x2"],
    ])
    def test_point_the_config_rejects_is_refused_by_name(self, capsys, argv):
        # Depth 1 is below noc_stress's packet size: the point's config
        # cannot be built, so the sweep is refused before anything runs.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["campaign", *argv, "--sweep-depths", "1,4"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "cannot sweep point noc_stress_2x2_d1: "
            "packet_size cannot exceed fifo_depth"
        ]
        assert captured.out == ""

    def test_replay_sweep_refusals(self):
        with pytest.raises(SystemExit, match="--specs both pick"):
            cli.main(["campaign", "--replay-sweep", "streaming_d8",
                      "--specs", "streaming_d8", "--sweep-depths", "1"])
        with pytest.raises(SystemExit, match="needs --sweep-depths"):
            cli.main(["campaign", "--replay-sweep", "streaming_d8"])

    @pytest.mark.parametrize("argv", [
        ["--replay-sweep", "streaming_d8"],
        ["--auto-replay", "--no-paired", "--specs", "streaming_d8"],
    ])
    def test_validation_divergence_exits_with_its_diff(self, monkeypatch, argv):
        from repro.campaign import evaluators

        record_spool = evaluators.record_spool
        calls = []

        def poisoned_after_anchor(spec, trace_sink):
            spool, record = record_spool(spec, trace_sink)
            calls.append(spec.name)
            if len(calls) > 1:  # the first call records the anchor
                spool.poison = "injected poison"
            return spool, record

        monkeypatch.setattr(evaluators, "record_spool", poisoned_after_anchor)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["campaign", *argv, "--sweep-depths", "1,16"])
        assert excinfo.value.code == (
            "replay sweep failed: validation run for streaming_d8_d1[smart] "
            "is not recordable: injected poison"
        )


def _readme_sweep_commands():
    """The ``repro.analysis.cli`` sweep commands quoted in the README."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    with open(os.path.join(root, "README.md")) as handle:
        text = handle.read().replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        if not line.startswith("python -m repro.analysis.cli "):
            continue
        argv = shlex.split(line, comments=True)[3:]
        if {"--replay-sweep", "--auto-replay", "--replay"} & set(argv):
            commands.append(argv)
    return commands


class TestReadmeSweepCommands:
    def test_readme_quotes_sweep_commands(self):
        assert len(_readme_sweep_commands()) >= 3

    @pytest.mark.parametrize("argv", _readme_sweep_commands(), ids=" ".join)
    def test_every_readme_sweep_replays_a_point(self, capsys, tmp_path, argv):
        if argv[0] == "campaign":
            path = os.path.join(tmp_path, "sweep.jsonl")
            assert cli.main([*argv, "--jsonl", path]) == 0
            tags = [row.get("evaluator") for row in _jsonl_rows(path)]
        else:
            assert cli.main(argv) == 0
            tags = [
                line.split("|")[2].strip()
                for line in capsys.readouterr().out.splitlines()
                if line.count("|") == 5
            ]
        assert "replay" in tags
