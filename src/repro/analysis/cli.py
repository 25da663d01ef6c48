"""Command-line interface to the experiment drivers.

Lets a user regenerate any table or figure of the paper without writing
code::

    python -m repro.analysis.cli fig2
    python -m repro.analysis.cli fig5 --depths 1,2,4,8,16 --blocks 50 --words 100
    python -m repro.analysis.cli case-study --chains 4 --items 512
    python -m repro.analysis.cli quantum --quanta 0,100,1000
    python -m repro.analysis.cli context-switches --depths 1,4,16
    python -m repro.analysis.cli fig5 --csv fig5.csv
    python -m repro.analysis.cli campaign --workers 4

Every subcommand prints the corresponding ASCII table; ``--csv`` also dumps
the raw rows for external plotting.

The ``campaign`` subcommand runs the declarative scenario campaign of
:mod:`repro.campaign`: every spec once (sharded over ``--workers``
processes) plus the paired reference/Smart trace-equivalence battery; the
printed fingerprint is byte-identical for any worker count.  Multi-machine
campaigns split the spec list with ``--shard i/N`` and stream deterministic
result rows with ``--jsonl out.jsonl``; the shard files are recombined with
``--merge-jsonl a.jsonl,b.jsonl``, whose fingerprint is byte-identical to
the unsharded run::

    python -m repro.analysis.cli campaign --shard 0/2 --jsonl s0.jsonl
    python -m repro.analysis.cli campaign --shard 1/2 --jsonl s1.jsonl
    python -m repro.analysis.cli campaign --merge-jsonl s0.jsonl,s1.jsonl

An interrupted campaign is picked up with ``--resume`` (skips the specs
whose rows already sit in the JSONL file and reproduces the uninterrupted
fingerprint); ``--trace-sink`` selects the worker trace pipeline (the
default ``digest`` sink streams traces into their digests with bounded
memory) and ``--trace-sink spool --trace-out DIR`` exports the reordered
per-run trace files::

    python -m repro.analysis.cli campaign --jsonl out.jsonl --resume
    python -m repro.analysis.cli campaign --trace-sink spool --trace-out traces/

Production-scale campaigns use the orchestrator layer
(:mod:`repro.campaign.orchestrator`): ``--record-costs`` writes observed
per-spec wall times to a ``COSTS.json`` sideband (never into the
deterministic rows), ``--shard-by-cost i/N`` partitions the campaign with
the cost-balanced LPT partitioner instead of round-robin, and
``--spec-timeout`` / ``--campaign-budget`` kill overrunning jobs,
persisting deterministic ``timeout`` rows that ``--resume`` re-runs::

    python -m repro.analysis.cli campaign --record-costs COSTS.json
    python -m repro.analysis.cli campaign --shard-by-cost 0/2 --costs COSTS.json \
        --jsonl s0.jsonl --spec-timeout 120 --campaign-budget 3600

The ``orchestrate`` subcommand drives the whole flow across N hosts (local
subprocesses by default, ssh hosts via ``--hosts-file``), each running one
cost-balanced shard, then collects and merges the shard JSONLs — the
merged fingerprint is byte-identical to an unsharded single-pool run::

    python -m repro.analysis.cli orchestrate --hosts 2 --workers-per-host 2
    python -m repro.analysis.cli orchestrate --hosts-file hosts.json \
        --costs COSTS.json --record-costs COSTS.json --merged-jsonl merged.jsonl

Observability: ``campaign`` and ``orchestrate`` accept ``--telemetry DIR``
(write the spans/counters sideband described in :mod:`repro.telemetry` to
``DIR/telemetry.jsonl``; deterministic rows and fingerprints are
byte-identical with it on or off) and ``--progress`` (a live stderr
ticker).  ``telemetry-report`` renders a collected sideband::

    python -m repro.analysis.cli campaign --telemetry tele/ --progress
    python -m repro.analysis.cli telemetry-report tele/
"""

from __future__ import annotations

import argparse
import os
import re
import socket
from typing import List, Optional, Sequence, Tuple

from ..campaign import (
    DEFAULT_TRACE_SINK,
    CampaignResumeError,
    CampaignRunner,
    CostModel,
    JsonlSink,
    RunBudget,
    default_campaign,
    describe_specs,
    merge_jsonl,
    run_replay_sweep,
    sweep_point_specs,
)
from ..replay import ReplayError
from ..campaign.orchestrator import (
    Orchestrator,
    OrchestratorError,
    local_hosts,
    parse_hosts_file,
)
from ..kernel.tracing import SINK_KINDS
from ..soc import SocConfig
from ..telemetry import NULL_TELEMETRY, Telemetry, render_report
from ..workloads import StreamingConfig
from . import experiments
from .reporting import dict_rows_table, write_csv


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1 (e.g. ``--workers``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type for wall-clock limits (seconds, must be > 0)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {value}"
        )
    return value


def _shard(text: str) -> Tuple[int, int]:
    """argparse type for ``--shard i/N`` (0 <= i < N, N >= 1)."""
    parts = text.split("/")
    try:
        if len(parts) != 2:
            raise ValueError
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected i/N (e.g. 0/2), got {text!r}"
        )
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"shard count must be >= 1, got {count}"
        )
    if not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return index, count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.cli",
        description="Regenerate the evaluation tables/figures of the DATE 2013 "
        "Smart FIFO paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_csv_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--csv", default=None, help="also write the rows to a CSV file"
        )

    fig2 = subparsers.add_parser("fig2", help="Fig. 2/3 writer/reader traces")
    fig2.add_argument("--depth", type=int, default=4, help="FIFO depth of the example")
    add_csv_flag(fig2)

    fig5 = subparsers.add_parser("fig5", help="Fig. 5 depth sweep")
    fig5.add_argument("--depths", type=_int_list, default=[1, 2, 4, 8, 16, 64])
    fig5.add_argument("--blocks", type=int, default=20)
    fig5.add_argument("--words", type=int, default=50)
    fig5.add_argument(
        "--replay",
        action="store_true",
        help="compute the sweep by record-and-replay: one simulation per "
        "curve (smart and reference), every other depth replayed from its "
        "dependency spool, with --validate sampled points re-simulated and "
        "compared exactly (simulated observables only — no wall clock)",
    )
    fig5.add_argument(
        "--anchor-depth",
        type=_positive_int,
        default=None,
        metavar="DEPTH",
        help="with --replay: the depth to simulate and record (default: "
        "the middle of --depths)",
    )
    fig5.add_argument(
        "--validate",
        type=int,
        default=2,
        metavar="N",
        help="with --replay: cross-validate N replayed points per curve "
        "against fresh simulations (0 = trust the anchor self-check); the "
        "N are evenly spaced over the depths, each taken at the first "
        "replayed depth at or after its position, and checked as they "
        "replay, so at most N+1 replays' per-word dates are held",
    )
    add_csv_flag(fig5)

    case = subparsers.add_parser("case-study", help="Section IV-C SoC case study")
    case.add_argument("--chains", type=int, default=4)
    case.add_argument("--items", type=int, default=512)
    case.add_argument("--workers", type=int, default=3)
    add_csv_flag(case)

    quantum = subparsers.add_parser("quantum", help="global-quantum ablation")
    quantum.add_argument("--quanta", type=_int_list, default=[0, 100, 1000, 10000])
    quantum.add_argument("--blocks", type=int, default=20)
    quantum.add_argument("--words", type=int, default=50)
    add_csv_flag(quantum)

    csw = subparsers.add_parser("context-switches", help="context-switch sweep")
    csw.add_argument("--depths", type=_int_list, default=[1, 2, 4, 8, 32])
    csw.add_argument("--blocks", type=int, default=20)
    csw.add_argument("--words", type=int, default=50)
    add_csv_flag(csw)

    campaign = subparsers.add_parser(
        "campaign", help="parallel scenario campaign + paired equivalence"
    )
    campaign.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes (1 = inline; must be >= 1)",
    )
    campaign.add_argument(
        "--specs",
        default=None,
        help="comma-separated spec names (default: the whole default campaign)",
    )
    campaign.add_argument(
        "--no-paired",
        action="store_true",
        help="skip the paired reference/Smart equivalence runs",
    )
    campaign.add_argument(
        "--shard",
        type=_shard,
        default=None,
        metavar="i/N",
        help="run only the i-th of N deterministic spec shards (for "
        "multi-machine campaigns; merge the per-shard --jsonl files with "
        "--merge-jsonl to reproduce the unsharded fingerprint)",
    )
    campaign.add_argument(
        "--shard-by-cost",
        type=_shard,
        default=None,
        metavar="i/N",
        help="like --shard, but partition with the cost-balanced LPT "
        "partitioner over the estimates in --costs (cold start falls back "
        "to a static per-workload heuristic); shard files still merge to "
        "the byte-identical unsharded fingerprint",
    )
    campaign.add_argument(
        "--costs",
        default=None,
        metavar="COSTS.JSON",
        help="with --shard-by-cost: the recorded wall-time sideband to "
        "partition by (ship the same file to every shard of a campaign)",
    )
    campaign.add_argument(
        "--record-costs",
        default=None,
        metavar="COSTS.JSON",
        help="after the campaign, fold the observed per-spec wall times "
        "into this COSTS.json sideband (created if missing; wall clock "
        "never enters the deterministic JSONL rows)",
    )
    campaign.add_argument(
        "--spec-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="kill any single worker job (one spec in one mode) running "
        "longer than this and persist a deterministic timeout row; "
        "--resume re-runs timed-out specs",
    )
    campaign.add_argument(
        "--campaign-budget",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="abandon the whole campaign once it has run this long; every "
        "incomplete spec gets a timeout row (heal with --resume)",
    )
    campaign.add_argument(
        "--jsonl",
        default=None,
        metavar="OUT.JSONL",
        help="stream one deterministic JSONL row per completed run/pair "
        "(plus a campaign header row) to this file",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="with --jsonl: re-read the file, skip the specs whose rows "
        "are already present and append only the missing ones (the file "
        "must carry the same campaign header; the final fingerprint is "
        "identical to an uninterrupted run)",
    )
    campaign.add_argument(
        "--merge-jsonl",
        default=None,
        metavar="A.JSONL,B.JSONL",
        help="merge previously written campaign JSONL files (e.g. one per "
        "shard) and print the merged tables/fingerprint instead of running",
    )
    campaign.add_argument(
        "--trace-sink",
        choices=SINK_KINDS,
        default=DEFAULT_TRACE_SINK,
        help="trace sink every worker simulation emits into: 'digest' "
        "(default) streams the trace into its digest with bounded memory, "
        "'list' materializes records (historical behaviour), 'spool' keeps "
        "a sorted on-disk spool (enables --trace-out), 'null' disables "
        "tracing and with it trace validation",
    )
    campaign.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="with --trace-sink spool: export one reordered trace file "
        "per run to DIR (<spec>.<mode>.trace)",
    )
    campaign.add_argument(
        "--burst",
        action="store_true",
        dest="burst",
        default=True,
        help="run every spec with burst (span) FIFO transfers where the "
        "workload supports them; bit-exact with word-by-word accesses, so "
        "the campaign fingerprint is identical — a pure speed knob (now "
        "the default; kept for compatibility)",
    )
    campaign.add_argument(
        "--no-burst",
        action="store_false",
        dest="burst",
        help="run the historical word-by-word FIFO transfers instead of "
        "burst spans (bit-exact either way)",
    )
    campaign.add_argument(
        "--replay-sweep",
        default=None,
        metavar="SPEC",
        help="record the named campaign spec once and price every "
        "--sweep-depths / --sweep-quanta point by replaying its dependency "
        "spool (rows tagged evaluator=replay; --validate points are "
        "re-simulated and compared exactly)",
    )
    campaign.add_argument(
        "--sweep-depths",
        type=_int_list,
        default=None,
        metavar="D1,D2,...",
        help="with --replay-sweep or --auto-replay: the FIFO depths to "
        "evaluate (with --auto-replay, every selected spec is expanded "
        "into one point per depth)",
    )
    campaign.add_argument(
        "--sweep-quanta",
        type=_int_list,
        default=None,
        metavar="Q1,Q2,...",
        help="with --replay-sweep: global quanta (ns) to evaluate "
        "(needs a timing=quantum anchor spec)",
    )
    campaign.add_argument(
        "--validate",
        type=int,
        default=1,
        metavar="N",
        help="with --replay-sweep / --auto-replay: cross-validate N "
        "replayed points per anchor against fresh simulations (0 = trust "
        "the anchor self-check); the N are evenly spaced over the points, "
        "each taken at the first replayed point at or after its position, "
        "and checked as they replay, so at most N+1 replays' per-word "
        "dates are held",
    )
    campaign.add_argument(
        "--auto-replay",
        action="store_true",
        help="route specs sharing an anchor (same identity modulo "
        "depth/quantum) through record-and-replay: the group's first "
        "spec is simulated once with a recorder, every other member is "
        "priced by replay (rows tagged evaluator=replay); poisoned "
        "recordings and out-of-envelope points fall back to plain "
        "simulation; paired specs are never routed (pairs diff traces); "
        "combine with --sweep-depths/--sweep-quanta to expand each "
        "selected spec into a sweep grid first",
    )
    campaign.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="write the spans/counters telemetry sideband to "
        "DIR/telemetry.jsonl (parent + per-worker events, merged after "
        "the run; deterministic rows and fingerprints are byte-identical "
        "with telemetry on or off)",
    )
    campaign.add_argument(
        "--progress",
        action="store_true",
        help="live single-line progress ticker on stderr (specs done, "
        "rate, ETA; cost-weighted when --costs is given); display only, "
        "never touches stdout or deterministic outputs",
    )
    campaign.add_argument(
        "--list", action="store_true", help="list the specs and exit"
    )
    add_csv_flag(campaign)

    orchestrate = subparsers.add_parser(
        "orchestrate",
        help="drive a cost-sharded campaign across N hosts and merge the "
        "shard JSONLs (fingerprint identical to an unsharded run)",
    )
    orchestrate.add_argument(
        "--hosts",
        type=_positive_int,
        default=2,
        help="number of local-subprocess hosts (ignored with --hosts-file)",
    )
    orchestrate.add_argument(
        "--hosts-file",
        default=None,
        metavar="HOSTS.JSON",
        help="JSON host declarations (local and/or ssh hosts; see "
        "repro.campaign.orchestrator.hosts)",
    )
    orchestrate.add_argument(
        "--workers-per-host",
        type=_positive_int,
        default=1,
        help="worker processes each shard campaign runs with",
    )
    orchestrate.add_argument(
        "--specs",
        default=None,
        help="comma-separated spec names (default: the whole default "
        "campaign; hosts rebuild specs by name)",
    )
    orchestrate.add_argument(
        "--no-paired",
        action="store_true",
        help="skip the paired reference/Smart equivalence runs",
    )
    orchestrate.add_argument(
        "--out-dir",
        default="orchestrate-out",
        metavar="DIR",
        help="local directory for host workdirs, logs and collected shard "
        "JSONLs",
    )
    orchestrate.add_argument(
        "--costs",
        default=None,
        metavar="COSTS.JSON",
        help="wall-time sideband shipped to every host so they compute "
        "the identical cost partition (missing file = cold-start "
        "heuristic)",
    )
    orchestrate.add_argument(
        "--record-costs",
        default=None,
        metavar="COSTS.JSON",
        help="have every host record its shard's wall times; the per-host "
        "cost files are collected and merged into this local path",
    )
    orchestrate.add_argument(
        "--round-robin",
        action="store_true",
        help="partition round-robin (--shard) instead of by cost — for "
        "comparing shard makespans against --shard-by-cost",
    )
    orchestrate.add_argument(
        "--spec-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="forwarded to every shard campaign (see campaign "
        "--spec-timeout)",
    )
    orchestrate.add_argument(
        "--campaign-budget",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="forwarded to every shard campaign (see campaign "
        "--campaign-budget)",
    )
    orchestrate.add_argument(
        "--merged-jsonl",
        default=None,
        metavar="OUT.JSONL",
        help="also write the merged rows as one unsharded campaign JSONL "
        "(itself re-mergeable; what CI uploads as an artifact)",
    )
    orchestrate.add_argument(
        "--expect-fingerprint",
        default=None,
        metavar="SHA256",
        help="fail unless the merged fingerprint equals this value (the "
        "pinned-fingerprint gate of the orchestrator smoke)",
    )
    orchestrate.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="write the orchestrator's own launch/poll/collect telemetry "
        "and every host's collected campaign telemetry to "
        "DIR/telemetry.jsonl (sideband only; merged rows are unchanged)",
    )
    orchestrate.add_argument(
        "--progress",
        action="store_true",
        help="live single-line progress ticker on stderr (local shards "
        "report per-row progress; remote shards on host completion)",
    )
    add_csv_flag(orchestrate)

    report = subparsers.add_parser(
        "telemetry-report",
        help="aggregate one or more telemetry sidebands (files or "
        "directories of *.jsonl) into top-span / worker-utilization / "
        "per-host tables",
    )
    report.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="telemetry JSONL files or directories holding them (e.g. "
        "the --telemetry DIR of a campaign or orchestrate run)",
    )
    report.add_argument(
        "--top",
        type=_positive_int,
        default=15,
        metavar="N",
        help="rows in the top-spans table (default 15)",
    )

    return parser


def _streaming_config(args: argparse.Namespace) -> StreamingConfig:
    return StreamingConfig(n_blocks=args.blocks, words_per_block=args.words)


def run_fig2(args: argparse.Namespace) -> str:
    result = experiments.fig2_fig3_example(fifo_depth=args.depth)
    if args.csv:
        write_csv(result.rows(), args.csv)
    lines = [
        result.table(),
        "",
        f"Smart FIFO matches the reference: {result.smart_matches_reference}",
        f"Naive decoupling differs (Fig. 3 error): {result.naive_differs_from_reference}",
    ]
    return "\n".join(lines)


def run_fig5(args: argparse.Namespace):
    if args.replay:
        try:
            result = experiments.fig5_replay_sweep(
                depths=args.depths,
                base_config=_streaming_config(args),
                anchor_depth=args.anchor_depth,
                validate=args.validate,
            )
        except ReplayError as exc:
            raise SystemExit(f"fig5 --replay failed: {exc}")
        if args.csv:
            write_csv(result.rows(), args.csv)
        output = "\n\n".join([result.table(), result.summary()])
        return output, 0 if result.all_validated else 1
    rows = experiments.fig5_depth_sweep(
        depths=args.depths, base_config=_streaming_config(args)
    )
    if args.csv:
        write_csv(rows, args.csv)
    return "\n\n".join(
        [experiments.fig5_table(rows), experiments.fig5_speedup_table(rows)]
    )


def run_case_study(args: argparse.Namespace) -> str:
    config = SocConfig.benchmark(n_chains=args.chains, items_per_chain=args.items)
    config.workers_per_chain = args.workers
    config.validate()
    result = experiments.case_study(config)
    if args.csv:
        write_csv(result.rows(), args.csv)
    sections = [result.table()]
    # The per-process activation breakdown behind the context-switch
    # totals: which processes the scheduler actually woke, per policy.
    top_rows = []
    for label, run in (("sync-per-access", result.sync),
                       ("Smart FIFO", result.smart)):
        for name, activations in run.top_processes:
            top_rows.append(
                {"policy": label, "process": name,
                 "activations": activations}
            )
    if top_rows:
        sections.append(
            dict_rows_table(
                top_rows,
                ["policy", "process", "activations"],
                title="Most-activated processes",
            )
        )
    return "\n\n".join(sections)


def run_quantum(args: argparse.Namespace) -> str:
    rows = experiments.quantum_ablation(
        quanta_ns=args.quanta, config=_streaming_config(args)
    )
    if args.csv:
        write_csv(rows, args.csv)
    return experiments.quantum_table(rows)


def run_context_switches(args: argparse.Namespace) -> str:
    rows = experiments.context_switch_sweep(
        depths=args.depths, base_config=_streaming_config(args)
    )
    if args.csv:
        write_csv(rows, args.csv)
    return experiments.context_switch_table(rows)


def _campaign_output(result) -> tuple:
    sections = [result.table()]
    if result.pairs:
        sections.append(result.pairs_table())
    sections.append(result.summary())
    output = "\n\n".join(sections)
    ok = result.all_pairs_equivalent and result.complete
    return (output, 0) if ok else (output, 1)


def _run_replay_sweep(args: argparse.Namespace) -> tuple:
    """The ``campaign --replay-sweep`` body: record once, replay the sweep."""
    specs = default_campaign(burst=args.burst)
    by_name = {spec.name: spec for spec in specs}
    if args.replay_sweep not in by_name:
        raise SystemExit(
            f"unknown spec name: {args.replay_sweep}; "
            f"known: {', '.join(sorted(by_name))}"
        )
    anchor = by_name[args.replay_sweep]
    depths = args.sweep_depths or []
    quanta = args.sweep_quanta or []
    if not depths and not quanta:
        raise SystemExit(
            "--replay-sweep needs --sweep-depths and/or --sweep-quanta"
        )
    telemetry = NULL_TELEMETRY
    if args.telemetry:
        os.makedirs(args.telemetry, exist_ok=True)
        telemetry = Telemetry(
            "replay-sweep",
            path=os.path.join(args.telemetry, "telemetry.jsonl"),
        )
    try:
        sweep = run_replay_sweep(
            anchor,
            depths=depths,
            quanta_ns=quanta,
            validate=args.validate,
            trace_sink=args.trace_sink,
            telemetry=telemetry,
        )
    except ReplayError as exc:
        telemetry.close()
        poisoned = re.match(
            r"recording is not replayable: (?P<construct>.+?)"
            r"(?: \[in process (?P<process>.+?)\])?$",
            str(exc),
        )
        if poisoned is not None:
            construct = poisoned.group("construct")
            process = poisoned.group("process") or "<unknown>"
            raise SystemExit(
                f"spec {anchor.name!r} cannot be replay-swept: its "
                f"recording was poisoned by `{construct}` in process "
                f"{process!r}.  That construct's behaviour depends on "
                f"state the recorder cannot pin, so replayed sweeps would "
                f"be unsound.  Price this spec by plain simulation "
                f"(drop --replay-sweep), or use --auto-replay, which "
                f"falls back to simulation for exactly these specs."
            )
        raise SystemExit(f"replay sweep failed: {exc}")
    telemetry.close()
    if args.jsonl:
        row_specs = [anchor] + sweep_point_specs(anchor, depths, quanta)
        with open(args.jsonl, "w") as stream:
            sink = JsonlSink(stream, row_specs, workers=1, paired=False)
            for record in sweep.rows:
                sink.run_completed(record)
    rows = sweep.summary_rows()
    if args.csv:
        write_csv(rows, args.csv)
    table = dict_rows_table(
        rows,
        ["name", "evaluator", "depth", "quantum_ns", "sim_end_fs",
         "context_switches", "delta_cycles"],
        title=f"Replay sweep — {anchor.name}",
    )
    replayed = sum(1 for r in sweep.rows if r.evaluator == "replay")
    validated = sum(1 for v in sweep.validations if v.ok)
    per_replay = sweep.replay_seconds / replayed if replayed else float("nan")
    speedup = sweep.record_seconds / per_replay if replayed else float("nan")
    summary = (
        f"1 simulation + {replayed} replays; {sweep.points_per_s:.0f} "
        f"points/s ({speedup:.0f}x per point vs simulate); validated "
        f"{validated}/{len(sweep.validations)} sampled points exactly"
    )
    return "\n\n".join([table, summary]), 0 if sweep.all_validated else 1


def run_campaign(args: argparse.Namespace) -> str:
    if (args.sweep_depths or args.sweep_quanta) and not (
        args.replay_sweep or args.auto_replay
    ):
        raise SystemExit(
            "--sweep-depths/--sweep-quanta are only read by "
            "--replay-sweep and --auto-replay"
        )
    if args.replay_sweep and args.auto_replay:
        raise SystemExit(
            "--replay-sweep (one explicit anchor) and --auto-replay "
            "(grouping over the campaign) are two drivers of the same "
            "engine; pick one"
        )
    if args.replay_sweep:
        conflicting = [
            flag for flag, active in (
                ("--resume", args.resume),
                ("--merge-jsonl", args.merge_jsonl is not None),
                ("--shard", args.shard is not None),
                ("--shard-by-cost", args.shard_by_cost is not None),
                ("--record-costs", args.record_costs is not None),
                ("--spec-timeout", args.spec_timeout is not None),
                ("--campaign-budget", args.campaign_budget is not None),
                ("--specs", args.specs is not None),
                ("--workers", args.workers != 1),
                ("--no-paired", args.no_paired),
                ("--list", args.list),
                ("--trace-out", args.trace_out is not None),
                ("--progress", args.progress),
            ) if active
        ]
        if conflicting:
            raise SystemExit(
                f"--replay-sweep records one spec and replays the sweep "
                f"in-process; it cannot be combined with "
                f"{', '.join(conflicting)}"
            )
        return _run_replay_sweep(args)
    if args.resume and not args.jsonl:
        raise SystemExit("--resume requires --jsonl (the file to resume from)")
    if args.trace_out and args.trace_sink != "spool":
        raise SystemExit("--trace-out requires --trace-sink spool")
    if args.shard and args.shard_by_cost:
        raise SystemExit(
            "--shard and --shard-by-cost are two partitioners of the same "
            "campaign; pick one"
        )
    if args.costs and not (args.shard_by_cost or args.progress):
        raise SystemExit(
            "--costs is only read by --shard-by-cost (partitioning) and "
            "--progress (cost-weighted ETA)"
        )
    if args.merge_jsonl:
        conflicting = [
            flag for flag, active in (
                ("--jsonl", args.jsonl is not None),
                ("--resume", args.resume),
                ("--shard", args.shard is not None),
                ("--shard-by-cost", args.shard_by_cost is not None),
                ("--record-costs", args.record_costs is not None),
                ("--spec-timeout", args.spec_timeout is not None),
                ("--campaign-budget", args.campaign_budget is not None),
                ("--specs", args.specs is not None),
                ("--workers", args.workers != 1),
                ("--no-paired", args.no_paired),
                ("--list", args.list),
                ("--trace-out", args.trace_out is not None),
                ("--telemetry", args.telemetry is not None),
                ("--progress", args.progress),
            ) if active
        ]
        if conflicting:
            raise SystemExit(
                f"--merge-jsonl only merges previously written files and "
                f"cannot be combined with {', '.join(conflicting)}"
            )
        paths = [p.strip() for p in args.merge_jsonl.split(",") if p.strip()]
        try:
            result = merge_jsonl(paths)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot merge campaign JSONL: {exc}")
        if args.csv:
            write_csv(result.run_rows(), args.csv)
        return _campaign_output(result)
    specs = default_campaign(burst=args.burst)
    if args.specs:
        wanted = [name.strip() for name in args.specs.split(",") if name.strip()]
        by_name = {spec.name: spec for spec in specs}
        unknown = [name for name in wanted if name not in by_name]
        if unknown:
            raise SystemExit(
                f"unknown spec name(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(by_name))}"
            )
        specs = [by_name[name] for name in wanted]
    if args.auto_replay and (args.sweep_depths or args.sweep_quanta):
        # Expand each selected spec into its sweep grid; the runner's
        # auto-replay pass then records each spec once and replays its
        # grid points.
        expanded = []
        for spec in specs:
            expanded.append(spec)
            try:
                expanded.extend(
                    sweep_point_specs(
                        spec,
                        depths=args.sweep_depths or (),
                        quanta_ns=args.sweep_quanta or (),
                    )
                )
            except ReplayError as exc:
                raise SystemExit(f"cannot expand {spec.name!r}: {exc}")
        specs = expanded
    if args.list:
        rows = describe_specs(specs)
        if args.csv:
            write_csv(rows, args.csv)
        return dict_rows_table(
            rows,
            ["name", "workload", "mode", "depth", "quantum_ns", "seed",
             "timing", "pairable", "params"],
            title="Campaign specs",
        )
    budget = None
    if args.spec_timeout is not None or args.campaign_budget is not None:
        budget = RunBudget(
            spec_timeout_s=args.spec_timeout,
            campaign_budget_s=args.campaign_budget,
        )
    cost_model = None
    if args.shard_by_cost is not None or (args.progress and args.costs):
        try:
            cost_model = CostModel.load(args.costs)
        except ValueError as exc:
            raise SystemExit(f"cannot read --costs: {exc}")
    runner = CampaignRunner(
        workers=args.workers, paired=not args.no_paired,
        shard=args.shard if args.shard else args.shard_by_cost,
        shard_by_cost=args.shard_by_cost is not None,
        cost_model=cost_model, budget=budget,
        trace_sink=args.trace_sink, trace_out=args.trace_out,
        auto_replay=args.auto_replay,
        auto_replay_validate=args.validate,
        telemetry_dir=args.telemetry,
        progress=args.progress,
    )
    try:
        result = runner.run(specs, jsonl=args.jsonl, resume=args.resume)
    except CampaignResumeError as exc:
        # Only resume problems get the friendly one-liner; a ValueError
        # from inside a simulation is a real bug and keeps its traceback.
        raise SystemExit(f"cannot resume campaign: {exc}")
    if args.record_costs:
        try:
            recorded = CostModel.load(args.record_costs)
        except ValueError as exc:
            raise SystemExit(f"cannot read --record-costs: {exc}")
        recorded.observe_result(result)
        if result.wall_seconds > 0 and specs:
            # Advisory whole-host throughput for capacity planning; the
            # LPT partitioner never reads it (see orchestrator/costs.py).
            recorded.observe_host(
                socket.gethostname(),
                len(specs) / result.wall_seconds,
            )
        recorded.save(args.record_costs)
    if args.csv:
        write_csv(result.run_rows(), args.csv)
    return _campaign_output(result)


def run_orchestrate(args: argparse.Namespace) -> tuple:
    if args.round_robin and args.costs:
        raise SystemExit(
            "--costs is only read by the cost partitioner and has no "
            "effect with --round-robin"
        )
    if args.hosts_file:
        try:
            hosts = parse_hosts_file(args.hosts_file)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read --hosts-file: {exc}")
    else:
        hosts = local_hosts(args.hosts)
    spec_names = None
    if args.specs:
        spec_names = [
            name.strip() for name in args.specs.split(",") if name.strip()
        ]
    orchestrator = Orchestrator(
        hosts,
        args.out_dir,
        workers_per_host=args.workers_per_host,
        paired=not args.no_paired,
        shard_by_cost=not args.round_robin,
        costs_path=args.costs,
        spec_timeout_s=args.spec_timeout,
        campaign_budget_s=args.campaign_budget,
        record_costs_path=args.record_costs,
        telemetry_dir=args.telemetry,
        progress=args.progress,
    )
    try:
        outcome = orchestrator.run(spec_names, merged_jsonl=args.merged_jsonl)
    except OrchestratorError as exc:
        raise SystemExit(f"orchestrated campaign failed: {exc}")
    result = outcome.result
    if args.csv:
        write_csv(result.run_rows(), args.csv)
    sections = [outcome.hosts_table(), result.table()]
    if result.pairs:
        sections.append(result.pairs_table())
    sections.append(outcome.summary())
    code = 0 if result.all_pairs_equivalent and result.complete else 1
    if args.expect_fingerprint and outcome.fingerprint() != args.expect_fingerprint:
        sections.append(
            f"FINGERPRINT MISMATCH: merged {outcome.fingerprint()} != "
            f"expected {args.expect_fingerprint}"
        )
        code = 1
    return "\n\n".join(sections), code


def run_telemetry_report(args: argparse.Namespace) -> str:
    try:
        return render_report(args.paths, top=args.top)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read telemetry: {exc}")


_COMMANDS = {
    "fig2": run_fig2,
    "fig5": run_fig5,
    "case-study": run_case_study,
    "quantum": run_quantum,
    "context-switches": run_context_switches,
    "campaign": run_campaign,
    "orchestrate": run_orchestrate,
    "telemetry-report": run_telemetry_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point.  Command handlers return either the output string
    (exit code 0) or an ``(output, exit_code)`` tuple."""
    parser = build_parser()
    args = parser.parse_args(argv)
    result = _COMMANDS[args.command](args)
    output, code = result if isinstance(result, tuple) else (result, 0)
    print(output)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised through main()
    raise SystemExit(main())
