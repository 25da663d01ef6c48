"""Telemetry must never change what a campaign computes.

The acceptance property of the observability layer: with ``--telemetry``
(and ``--progress``) on, every deterministic artifact — fingerprints,
JSONL rows — is byte-identical to the telemetry-off run, and the
deterministic rows never contain pids or wall-clock values (those live
only in the sideband).  Exercised over the three campaign shapes that
take different code paths: default (paired, pooled workers), burst off,
and auto-replay routing.
"""

import json
import os

import pytest

from repro.campaign import CampaignRunner, default_campaign
from repro.campaign.runner import MERGED_TELEMETRY
from repro.telemetry import aggregate_telemetry, load_events

SPEC_NAMES = ["writer_reader_d1", "writer_reader_d4", "streaming_d2", "mixed_d3"]

#: Row keys that would smuggle host state into deterministic artifacts.
FORBIDDEN_ROW_KEYS = {"pid", "host", "t0", "dur_s", "self_s"}


def _specs(burst=True, names=SPEC_NAMES):
    by_name = {spec.name: spec for spec in default_campaign(burst=burst)}
    return [by_name[name] for name in names]


def _run(tmp_path, tag, telemetry=False, progress=False, burst=True,
         auto_replay=False, workers=1, jsonl=True):
    kwargs = {}
    if telemetry:
        kwargs["telemetry_dir"] = str(tmp_path / f"tele-{tag}")
    if progress:
        kwargs["progress"] = True
    runner = CampaignRunner(
        workers=workers, auto_replay=auto_replay, **kwargs
    )
    jsonl_path = str(tmp_path / f"{tag}.jsonl") if jsonl else None
    result = runner.run(_specs(burst=burst), jsonl=jsonl_path)
    return result, jsonl_path


class TestFingerprintIdentity:
    def test_default_campaign_identical_with_telemetry_on(self, tmp_path):
        off, off_jsonl = _run(tmp_path, "off")
        on, on_jsonl = _run(tmp_path, "on", telemetry=True, progress=True)
        assert on.fingerprint() == off.fingerprint()
        # Byte-identical rows, not merely equal fingerprints.
        assert open(on_jsonl).read() == open(off_jsonl).read()

    def test_no_burst_campaign_identical_with_telemetry_on(self, tmp_path):
        off, _ = _run(tmp_path, "off", burst=False, jsonl=False)
        on, _ = _run(tmp_path, "on", burst=False, telemetry=True, jsonl=False)
        assert on.fingerprint() == off.fingerprint()

    def test_auto_replay_campaign_identical_with_telemetry_on(self, tmp_path):
        names = ["streaming_d2", "streaming_d8"]
        by_name = {spec.name: spec for spec in default_campaign()}
        specs = [by_name[name] for name in names]
        off = CampaignRunner(workers=1, paired=False, auto_replay=True).run(
            specs
        )
        on_runner = CampaignRunner(
            workers=1, paired=False, auto_replay=True,
            telemetry_dir=str(tmp_path / "tele"),
        )
        on = on_runner.run(specs)
        assert on.fingerprint() == off.fingerprint()
        aggregate = aggregate_telemetry([str(tmp_path / "tele")])
        # The replay router actually ran and was observed.
        assert aggregate.counters.get("replay.groups_routed", 0) >= 1
        assert aggregate.counters.get("replay.points_replayed", 0) >= 1


class TestSidebandSeparation:
    def test_deterministic_rows_carry_no_pids_or_wall_clock(self, tmp_path):
        _, jsonl_path = _run(tmp_path, "rows", telemetry=True)
        with open(jsonl_path) as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        assert rows
        for row in rows:
            leaked = FORBIDDEN_ROW_KEYS.intersection(row)
            assert not leaked, f"deterministic row leaked {leaked}: {row}"
            assert "wall" not in json.dumps(row)

    def test_multi_worker_sideband_merges_to_one_file(self, tmp_path):
        result, _ = _run(
            tmp_path, "pool", telemetry=True, workers=3, jsonl=False
        )
        assert result.complete
        tele_dir = tmp_path / "tele-pool"
        # Per-worker parts are folded away; one merged sideband remains
        # (next to no rows file, since jsonl was off).
        assert sorted(os.listdir(tele_dir)) == [MERGED_TELEMETRY]
        events = load_events(str(tele_dir / MERGED_TELEMETRY))
        pids = {event["pid"] for event in events}
        # The parent plus all 3 workers: every started worker gets a
        # batch at start, so each runs at least one of the 8 jobs.
        parent = os.getpid()
        workers = set(result.worker_pids())
        assert parent in pids
        assert pids == {parent} | workers
        assert len(workers) == 3
        components = {
            event["component"]
            for event in events
            if event["kind"] == "meta"
        }
        assert components == {"campaign", "campaign-worker"}
        spans = {
            event["name"] for event in events if event["kind"] == "span"
        }
        assert {
            "campaign.run", "campaign.execute", "campaign.serialize",
            "campaign.queue_wait", "kernel.run", "kernel.schedule",
        } <= spans

    def test_worker_counters_include_kernel_and_fifo_activity(self, tmp_path):
        _run(tmp_path, "counters", telemetry=True, jsonl=False)
        aggregate = aggregate_telemetry([str(tmp_path / "tele-counters")])
        assert aggregate.counters.get("kernel.delta_cycles", 0) > 0
        assert aggregate.counters.get("kernel.context_switches", 0) > 0
        # The spec list includes burst-capable workloads, so the Smart
        # FIFO burst path must have been observed.
        assert aggregate.counters.get("fifo.burst_span_writes", 0) > 0
        assert aggregate.counters.get("fifo.span_words", 0) > 0
