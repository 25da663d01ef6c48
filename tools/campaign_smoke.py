#!/usr/bin/env python
"""Campaign shard/merge smoke gate (used by ``make campaign-smoke`` and CI).

Runs a small campaign, and one larger one, eleven ways and asserts the
scale-out invariant:

1. unsharded, inline (the reference fingerprint);
2. shard 0/2 and shard 1/2, each across 2 worker processes, streaming
   their rows to JSONL files;
3. the merge of the two JSONL files;
4. unsharded again with ``burst=True`` (span FIFO transfers), then word
   and burst again at depth ``MIN_SPAN_WORDS``, deep enough for bursts to
   move bulk spans rather than falling back to the word path (the
   telemetry must count span transfers);
5. a record-and-replay sweep through ``auto_replay``: one recorded
   anchor simulation, two replayed depth points, one of them
   cross-validated against a fresh simulation (must match bit for bit;
   counted from the ``replay.validate`` telemetry spans); the sweep's
   fingerprint must equal a pinned constant;
6. a periodic fast-forward sweep: a 10 x 100-word streaming anchor
   replayed at depths 1, 3, 9 and 64 must equal its check-mode replay
   (which never fast-forwards) at every point, the fast-forward must
   have skipped ops (counted from the ``replay.ops_skipped`` telemetry
   counter), and the sweep's fingerprint must equal a pinned constant;
7. an auto-routed conditional sweep: a ``get_size``-recording workload
   (random traffic) swept over depths through ``--auto-replay`` —
   the anchor simulates, every in-envelope point replays, and the
   campaign fingerprint must equal a pinned constant;
8. ``campaign --replay-sweep`` is shorthand for the ``--auto-replay``
   campaign: both spellings of one replayed depth sweep (``video_d2``)
   must write byte-identical JSONL;
9. the unsharded campaign again with telemetry enabled — the
   fingerprint must still equal the pinned PR 3 constant (telemetry is
   a sideband, never an input), and the merged ``telemetry.jsonl`` is
   left in the out dir for CI to upload;
10. a campaign large enough for the workers to batch its jobs (the
    default campaign four times over, under new names) on worker
    processes — the fingerprint must equal the inline run's byte for
    byte;
11. the same campaign under a generous run budget — the budgeted workers
    report every job yet must reproduce the inline fingerprint, and the
    campaign must reuse at most ``--workers`` worker processes.

The merged fingerprint must equal the unsharded one byte for byte — that
is the property that makes multi-machine campaigns trustworthy.  The burst
fingerprint must equal the word-mode one byte for byte as well: burst
transfers are a pure speed knob, never a semantic one.  The JSONL files
are left on disk (default ``campaign-smoke/``) so CI can upload them as
workflow artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from dataclasses import fields, replace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis import cli  # noqa: E402
from repro.campaign import (  # noqa: E402
    CampaignRunner,
    RunBudget,
    ScenarioSpec,
    default_campaign,
    merge_jsonl,
    record_spool,
    sweep_point_specs,
)
from repro.campaign.executor import _batch_size  # noqa: E402
from repro.campaign.spec import spec_is_pairable  # noqa: E402
from repro.fifo.smart_fifo import MIN_SPAN_WORDS  # noqa: E402
from repro.replay import ReplayEngine, ReplayResult  # noqa: E402
from repro.telemetry import load_events  # noqa: E402

#: A fast subset of the default campaign covering old and new workloads.
SMOKE_SPECS = (
    "writer_reader_d4",
    "streaming_d2",
    "bursty_s3_d4",
    "noc_stress_2x2",
    "packet_stream_p2",
    "mixed_d3",
)

#: Fingerprint of the SMOKE_SPECS campaign as recorded by the PR 3
#: (pre-streaming-trace) pipeline.  The DigestSink-based campaign must
#: keep reproducing it byte for byte — this is the digest-compatibility
#: guarantee of the trace refactor (see ROADMAP "Trace pipeline").
PR3_SMOKE_FINGERPRINT = (
    "3f1ed06c3a5c3b0f1b1c3ef8af147bcbc7740e6fd401e3ea717a82ed579f71a5"
)

#: Fingerprint of the phase-7 auto-routed conditional sweep (random
#: traffic, smart, depth-8 anchor swept over depths 2/4/16).  Replay rows
#: carry the simulated dates, kernel counters and per-FIFO totals of the
#: points they stand in for, so the fingerprint is stable whether a point
#: was simulated or replayed — this constant pins that property.
PR9_AUTO_REPLAY_FINGERPRINT = (
    "47846c9c8ed552bc7389aa14cfbd8cc40aca02db7fca388e013d611c7bfe0f80"
)


#: Fingerprint of the phase-5 streaming sweep (Fig. 5 pipeline, depth-4
#: anchor replayed at depths 1 and 16, one point cross-validated).  It
#: gates the recorded program format on the streaming path byte for byte,
#: as the constant above does on random traffic.
STREAMING_REPLAY_FINGERPRINT = (
    "4dc3548afd0a68bfc5e79a2343b5ef78219ac3b4452385e789aef453c2ec1a98"
)

#: Fingerprint of the phase-6 periodic sweep (10 x 100-word streaming
#: anchor at depth 8, replayed at depths 1, 3, 9 and 64).  Its depth-1
#: point reaches a periodic schedule and is fast-forwarded, so this pins
#: the jump's rows byte for byte (the same value as before the
#: fast-forward existed).
PERIODIC_REPLAY_FINGERPRINT = (
    "4c49d8351bae5a2a0d5d26348b9290fa76ace0fc3eb1d0d7779bdbae3b7a3f30"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        default=os.path.join(REPO_ROOT, "campaign-smoke"),
        help="directory receiving the per-shard JSONL files",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes per shard"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="smoke the whole default campaign instead of the fast subset",
    )
    args = parser.parse_args(argv)

    # Word-mode specs: the reference fingerprint predates the burst default,
    # and phase 4 below re-runs them with burst=True to prove bit-exactness.
    specs = default_campaign(burst=False)
    if not args.full:
        specs = [spec for spec in specs if spec.name in SMOKE_SPECS]
    os.makedirs(args.out_dir, exist_ok=True)

    print(f"[smoke] unsharded reference run ({len(specs)} specs)...")
    reference = CampaignRunner(workers=1).run(specs)
    print(f"[smoke] reference fingerprint: {reference.fingerprint()}")
    if not args.full:
        if reference.fingerprint() != PR3_SMOKE_FINGERPRINT:
            print(
                "FAIL: DigestSink fingerprint drifted from the PR 3 "
                f"recorded one ({PR3_SMOKE_FINGERPRINT})",
                file=sys.stderr,
            )
            return 1
        print("[smoke] fingerprint matches the PR 3 recorded value")

    paths = []
    for index in range(2):
        path = os.path.join(args.out_dir, f"shard{index}.jsonl")
        paths.append(path)
        print(f"[smoke] shard {index}/2 across {args.workers} workers -> {path}")
        result = CampaignRunner(
            workers=args.workers, shard=(index, 2)
        ).run(specs, jsonl=path)
        if not result.all_pairs_equivalent:
            print(result.summary())
            print("FAIL: a paired trace diff is not empty", file=sys.stderr)
            return 1

    merged = merge_jsonl(paths)
    print(f"[smoke] merged fingerprint:    {merged.fingerprint()}")
    if merged.fingerprint() != reference.fingerprint():
        print(
            "FAIL: merged shard fingerprint differs from the unsharded run",
            file=sys.stderr,
        )
        return 1
    if not merged.all_pairs_equivalent:
        print("FAIL: merged result contains a non-equivalent pair", file=sys.stderr)
        return 1
    print(
        f"[smoke] OK: {len(merged.runs)} runs + {len(merged.pairs)} pairs "
        f"merge byte-identically across 2 shards"
    )

    print("[smoke] burst=True unsharded run (span FIFO transfers)...")
    burst_specs = [
        replace(spec, burst=True, params=dict(spec.params)) for spec in specs
    ]
    burst = CampaignRunner(workers=1).run(burst_specs)
    print(f"[smoke] burst fingerprint:     {burst.fingerprint()}")
    if burst.fingerprint() != reference.fingerprint():
        print(
            "FAIL: burst-mode fingerprint differs from the word-mode run "
            "(burst transfers must be bit-exact)",
            file=sys.stderr,
        )
        return 1
    if not burst.all_pairs_equivalent:
        print(
            "FAIL: burst-mode campaign contains a non-equivalent pair",
            file=sys.stderr,
        )
        return 1
    print("[smoke] OK: burst=True reproduces the word-mode fingerprint")

    # At the smoke depths every burst span is shorter than the span-length
    # crossover and takes the word path; retargeted this deep, bursts move
    # bulk spans, so the comparison covers the span path too.
    print(f"[smoke] word vs burst at depth {MIN_SPAN_WORDS} (bulk spans)...")
    deep_word = CampaignRunner(workers=1).run([
        replace(spec, depth=MIN_SPAN_WORDS, params=dict(spec.params))
        for spec in specs
    ])
    deep_tele = os.path.join(args.out_dir, "deep-burst-telemetry")
    deep_burst = CampaignRunner(workers=1, telemetry_dir=deep_tele).run([
        replace(spec, depth=MIN_SPAN_WORDS, params=dict(spec.params))
        for spec in burst_specs
    ])
    span_ops = sum(
        event["value"]
        for event in load_events(os.path.join(deep_tele, "telemetry.jsonl"))
        if event["kind"] == "counter"
        and event["name"] in ("fifo.burst_span_writes", "fifo.burst_span_reads")
    )
    if deep_burst.fingerprint() != deep_word.fingerprint():
        print(
            f"FAIL: at depth {MIN_SPAN_WORDS} the burst-mode fingerprint "
            "differs from the word-mode run",
            file=sys.stderr,
        )
        return 1
    if span_ops == 0:
        print(
            f"FAIL: no burst moved a bulk span at depth {MIN_SPAN_WORDS}; "
            "the comparison did not reach the span path",
            file=sys.stderr,
        )
        return 1
    print(
        f"[smoke] OK: burst=True reproduces the word-mode fingerprint at "
        f"depth {MIN_SPAN_WORDS} across {span_ops} span transfers"
    )

    print("[smoke] record-and-replay sweep (1 anchor, 2 replays, 1 validated)...")
    anchor = ScenarioSpec(
        name="smoke_replay_anchor",
        workload="streaming",
        mode="smart",
        depth=4,
        params={"n_blocks": 3, "words_per_block": 10},
    )
    sweep_tele = os.path.join(args.out_dir, "sweep-telemetry")
    sweep = CampaignRunner(
        workers=1, paired=False, auto_replay=True, auto_replay_validate=1,
        telemetry_dir=sweep_tele,
    ).run([anchor] + sweep_point_specs(anchor, depths=(1, 16)))
    replayed = sum(1 for row in sweep.runs if row.evaluator == "replay")
    validated = [
        event["attrs"]["spec"]
        for event in load_events(os.path.join(sweep_tele, "telemetry.jsonl"))
        if event["kind"] == "span" and event["name"] == "replay.validate"
    ]
    if replayed != 2 or len(validated) != 1:
        print(
            "FAIL: replay sweep did not produce 2 replay rows, one of them "
            f"cross-validated (validated {validated})",
            file=sys.stderr,
        )
        return 1
    print(f"[smoke] replay sweep fingerprint: {sweep.fingerprint()}")
    if sweep.fingerprint() != STREAMING_REPLAY_FINGERPRINT:
        print(
            "FAIL: streaming replay sweep fingerprint drifted from the "
            f"recorded one ({STREAMING_REPLAY_FINGERPRINT})",
            file=sys.stderr,
        )
        return 1
    print(
        f"[smoke] OK: {replayed} replayed points, "
        f"{len(validated)} cross-validated against a fresh simulation, "
        "fingerprint matches the recorded value"
    )

    print("[smoke] periodic fast-forward sweep (depths 1, 3, 9, 64)...")
    periodic = ScenarioSpec(
        name="smoke_periodic_anchor",
        workload="streaming",
        mode="smart",
        depth=8,
        params={"n_blocks": 10, "words_per_block": 100},
    )
    periodic_depths = (1, 3, 9, 64)
    periodic_tele = os.path.join(args.out_dir, "periodic-telemetry")
    periodic_sweep = CampaignRunner(
        workers=1, paired=False, auto_replay=True,
        telemetry_dir=periodic_tele,
    ).run([periodic] + sweep_point_specs(periodic, depths=periodic_depths))
    skipped = sum(
        event["value"]
        for event in load_events(
            os.path.join(periodic_tele, "telemetry.jsonl")
        )
        if event["kind"] == "counter" and event["name"] == "replay.ops_skipped"
    )
    engine = ReplayEngine(record_spool(periodic)[0])
    compared = [f.name for f in fields(ReplayResult) if f.name != "mismatches"]
    for depth in periodic_depths:
        depths = engine.retarget_depths(periodic.depth, depth)
        fast = engine.replay(depths=depths)
        check = engine.replay(depths=depths, check_dates=True)
        differ = [
            name for name in compared
            if getattr(fast, name) != getattr(check, name)
        ]
        if differ:
            print(
                f"FAIL: at depth {depth} the fast-forwarded replay differs "
                f"from its check-mode replay in {differ}",
                file=sys.stderr,
            )
            return 1
    if skipped == 0:
        print(
            "FAIL: the periodic sweep skipped no ops; the fast-forward "
            "never engaged",
            file=sys.stderr,
        )
        return 1
    print(f"[smoke] periodic sweep fingerprint: {periodic_sweep.fingerprint()}")
    if periodic_sweep.fingerprint() != PERIODIC_REPLAY_FINGERPRINT:
        print(
            "FAIL: periodic replay sweep fingerprint drifted from the "
            f"recorded one ({PERIODIC_REPLAY_FINGERPRINT})",
            file=sys.stderr,
        )
        return 1
    print(
        f"[smoke] OK: {len(periodic_depths)} points equal their check-mode "
        f"replays, {skipped} ops fast-forwarded, fingerprint matches the "
        "recorded value"
    )

    print("[smoke] auto-routed conditional sweep (--auto-replay)...")
    cond_anchor = ScenarioSpec(
        name="smoke_auto_anchor",
        workload="random_traffic",
        mode="smart",
        depth=8,
        seed=3,
    )
    cond_specs = [cond_anchor] + sweep_point_specs(
        cond_anchor, depths=(2, 4, 16)
    )
    auto = CampaignRunner(
        workers=1, paired=False, auto_replay=True
    ).run(cond_specs)
    tags = {row.name: row.evaluator for row in auto.runs}
    auto_replayed = sum(1 for tag in tags.values() if tag == "replay")
    if tags[cond_anchor.name] != "simulate" or auto_replayed != 3:
        print(
            "FAIL: auto-replay routing did not produce 1 simulated anchor "
            f"+ 3 replayed points (got {tags})",
            file=sys.stderr,
        )
        return 1
    print(f"[smoke] auto-replay fingerprint: {auto.fingerprint()}")
    if auto.fingerprint() != PR9_AUTO_REPLAY_FINGERPRINT:
        print(
            "FAIL: auto-routed sweep fingerprint drifted from the PR 9 "
            f"recorded one ({PR9_AUTO_REPLAY_FINGERPRINT})",
            file=sys.stderr,
        )
        return 1
    plain = CampaignRunner(workers=1, paired=False).run(
        [cond_anchor]
    )
    anchor_row = next(r for r in auto.runs if r.name == cond_anchor.name)
    if anchor_row.deterministic_row() != plain.runs[0].deterministic_row():
        print(
            "FAIL: auto-replay anchor row differs from a plain simulation",
            file=sys.stderr,
        )
        return 1
    print(
        f"[smoke] OK: anchor simulated once, {auto_replayed} points replayed, "
        "fingerprint matches the PR 9 recorded value"
    )

    print("[smoke] --replay-sweep is --auto-replay spelled short...")
    grid = ["--sweep-depths", "4,8,16"]
    spellings = {
        "short": ["--replay-sweep", "video_d2"],
        "long": ["--auto-replay", "--no-paired", "--specs", "video_d2"],
    }
    written = {}
    for label, spelling in spellings.items():
        path = os.path.join(args.out_dir, f"sweep-{label}.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["campaign", *spelling, *grid, "--jsonl", path])
        with open(path, "rb") as handle:
            written[label] = handle.read()
        if code != 0:
            print(f"FAIL: the {label} sweep exited {code}", file=sys.stderr)
            return 1
    tags = [
        json.loads(line).get("evaluator", "simulate")
        for line in written["short"].splitlines()[1:]
    ]
    if written["short"] != written["long"] or tags.count("replay") != 3:
        print(
            "FAIL: --replay-sweep and --auto-replay wrote different JSONL "
            f"for the same spec and grid, or did not replay its 3 points "
            f"({tags})",
            file=sys.stderr,
        )
        return 1
    print(f"[smoke] OK: both spellings wrote the same {len(tags)} rows")

    print("[smoke] telemetry-on run (sideband only, fingerprint pinned)...")
    tele_dir = os.path.join(args.out_dir, "telemetry")
    observed = CampaignRunner(
        workers=args.workers, telemetry_dir=tele_dir
    ).run(specs)
    print(f"[smoke] telemetry fingerprint: {observed.fingerprint()}")
    if observed.fingerprint() != reference.fingerprint():
        print(
            "FAIL: telemetry-on fingerprint differs from the telemetry-off "
            "run (the sideband leaked into deterministic rows)",
            file=sys.stderr,
        )
        return 1
    merged_telemetry = os.path.join(tele_dir, "telemetry.jsonl")
    events = load_events(merged_telemetry)
    pids = {event["pid"] for event in events}
    if len(pids) < 2:
        print(
            f"FAIL: merged telemetry carries {len(pids)} pid(s); expected "
            "the parent plus its pool workers",
            file=sys.stderr,
        )
        return 1
    print(
        f"[smoke] OK: fingerprint unchanged with telemetry on; "
        f"{len(events)} events from {len(pids)} processes in "
        f"{merged_telemetry}"
    )

    large = [
        replace(spec, name=f"{spec.name}_r{copy}", params=dict(spec.params))
        for copy in range(4)
        for spec in default_campaign()
    ]
    jobs = sum(2 if spec_is_pairable(spec) else 1 for spec in large)
    batch = _batch_size(jobs, args.workers)
    print(
        f"[smoke] batched pool run ({len(large)} specs, {jobs} jobs, "
        f"{batch} per batch on {args.workers} workers)..."
    )
    if batch < 2:
        print(
            "FAIL: the batched-pool phase is too small to batch",
            file=sys.stderr,
        )
        return 1
    large_inline = CampaignRunner(workers=1).run(large)
    large_pooled = CampaignRunner(workers=args.workers).run(large)
    print(f"[smoke] batched fingerprint:   {large_pooled.fingerprint()}")
    if large_pooled.fingerprint() != large_inline.fingerprint():
        print(
            "FAIL: batched pool fingerprint differs from the inline run "
            f"({large_inline.fingerprint()})",
            file=sys.stderr,
        )
        return 1
    if not large_pooled.all_pairs_equivalent:
        print(
            "FAIL: batched pool campaign contains a non-equivalent pair",
            file=sys.stderr,
        )
        return 1
    print("[smoke] OK: batched pool reproduces the inline fingerprint")

    print("[smoke] budgeted batched run (spec timeout 600 s, budget 3600 s)...")
    budgeted = CampaignRunner(
        workers=args.workers,
        budget=RunBudget(spec_timeout_s=600, campaign_budget_s=3600),
    ).run(large)
    print(f"[smoke] budgeted fingerprint:  {budgeted.fingerprint()}")
    if budgeted.fingerprint() != large_inline.fingerprint():
        print(
            "FAIL: budgeted fingerprint differs from the inline run "
            f"({large_inline.fingerprint()})",
            file=sys.stderr,
        )
        return 1
    pids = budgeted.worker_pids()
    if len(pids) > args.workers:
        print(
            f"FAIL: the budgeted campaign used {len(pids)} worker processes; "
            f"expected at most {args.workers} long-lived workers",
            file=sys.stderr,
        )
        return 1
    print(
        f"[smoke] OK: budgeted run reproduces the inline fingerprint on "
        f"{len(pids)} worker processes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
