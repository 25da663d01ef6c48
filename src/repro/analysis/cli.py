"""Command-line interface to the experiment drivers.

Lets a user regenerate any table or figure of the paper without writing
code::

    python -m repro.analysis.cli fig2
    python -m repro.analysis.cli fig5 --depths 1,2,4,8,16 --blocks 50 --words 100
    python -m repro.analysis.cli case-study --chains 4 --items 512
    python -m repro.analysis.cli quantum --quanta 0,100,1000
    python -m repro.analysis.cli fig5 --csv fig5.csv
    python -m repro.analysis.cli campaign --workers 4

Every subcommand prints the corresponding ASCII table; ``--csv`` also dumps
the raw rows for external plotting.  Importing this module loads the
simulation layers and the table code; the replay engine loads in the
handlers that can replay (``fig5 --replay`` and ``campaign``).

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

Wall-clock run budgets (:mod:`repro.campaign.executor`):
``--spec-timeout`` / ``--campaign-budget`` kill overrunning jobs,
persisting deterministic ``timeout`` rows that ``--resume`` re-runs::

    python -m repro.analysis.cli campaign --shard 0/2 --jsonl s0.jsonl \
        --spec-timeout 120 --campaign-budget 3600

Observability: ``campaign`` accepts ``--telemetry DIR``
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
import sys
from typing import List, Optional, Sequence, Tuple

from ..campaign import (
    DEFAULT_TRACE_SINK,
    CampaignResumeError,
    CampaignRunner,
    RunBudget,
    default_campaign,
    describe_specs,
    merge_jsonl,
    sweep_point_specs,
)
from ..campaign.evaluators import unbuildable_points
from ..kernel.errors import BlockedRunError
from ..kernel.tracing import SINK_KINDS
from ..telemetry.report import render_report
from ..workloads import StreamingConfig
from . import experiments
from .reporting import dict_rows_table, write_csv


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _int_at_least(minimum: int, what: str):
    """argparse type for integer flags that must be >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            )
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be {what} integer, got {value}"
            )
        return value

    return parse


#: For counts that must be >= 1 (e.g. ``--workers``).
_positive_int = _int_at_least(1, "a positive")
#: For counts that may be 0 (e.g. ``--validate``).
_non_negative_int = _int_at_least(0, "a non-negative")


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
        type=_non_negative_int,
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
        "--no-burst",
        action="store_false",
        dest="burst",
        help="run word-by-word FIFO transfers instead of the default burst "
        "(span) transfers; bit-exact either way, so the campaign "
        "fingerprint is identical — a pure speed knob",
    )
    campaign.add_argument(
        "--replay-sweep",
        default=None,
        metavar="SPEC",
        help="shorthand for --specs SPEC --auto-replay --no-paired: record "
        "the named campaign spec once and price every --sweep-depths / "
        "--sweep-quanta point by replaying its dependency spool (rows "
        "tagged evaluator=replay), then print the sweep table",
    )
    campaign.add_argument(
        "--sweep-depths",
        type=_int_list,
        default=None,
        metavar="D1,D2,...",
        help="with --replay-sweep or --auto-replay: expand every selected "
        "spec into one point per FIFO depth",
    )
    campaign.add_argument(
        "--sweep-quanta",
        type=_int_list,
        default=None,
        metavar="Q1,Q2,...",
        help="with --replay-sweep or --auto-replay: expand every selected "
        "spec into one point per global quantum (ns; needs timing=quantum "
        "specs)",
    )
    campaign.add_argument(
        "--validate",
        type=_non_negative_int,
        default=1,
        metavar="N",
        help="with --replay-sweep or --auto-replay: cross-validate N "
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
        "simulation; paired specs are never routed (pairs diff traces; "
        "add --no-paired); combine with --sweep-depths/--sweep-quanta to "
        "expand each selected spec into a sweep grid first",
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
        "rate, ETA); display only, "
        "never touches stdout or deterministic outputs",
    )
    campaign.add_argument(
        "--list", action="store_true", help="list the specs and exit"
    )
    add_csv_flag(campaign)

    report = subparsers.add_parser(
        "telemetry-report",
        help="aggregate one or more telemetry sidebands (files or "
        "directories of *.jsonl) into top-span / worker-utilization / "
        "replay tables",
    )
    report.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="telemetry JSONL files or directories holding them (e.g. "
        "the --telemetry DIR of a campaign run)",
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
        from ..replay import ReplayError  # loads the replay engine

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
        return "\n\n".join([result.table(), result.summary()])
    rows = experiments.fig5_rows(experiments.fig5_depth_sweep(
        depths=args.depths, base_config=_streaming_config(args)
    ))
    if args.csv:
        write_csv(rows, args.csv)
    return "\n\n".join(
        [experiments.fig5_table(rows), experiments.fig5_speedup_table(rows)]
    )


def run_case_study(args: argparse.Namespace) -> str:
    result = experiments.case_study(
        n_chains=args.chains, items_per_chain=args.items,
        workers_per_chain=args.workers,
    )
    if args.csv:
        write_csv(result.rows(), args.csv)
    # The per-process activation breakdown behind the context-switch
    # totals: which processes the scheduler actually woke, per policy.
    top_rows = [
        {"policy": label, "process": name, "activations": activations}
        for label, mode in (("sync-per-access", "reference"),
                            ("Smart FIFO", "smart"))
        for name, activations in result.top_processes[mode]
    ]
    return "\n\n".join([
        result.table(),
        dict_rows_table(
            top_rows,
            ["policy", "process", "activations"],
            title="Most-activated processes",
        ),
    ])


def run_quantum(args: argparse.Namespace) -> str:
    rows = experiments.quantum_rows(experiments.quantum_ablation(
        quanta_ns=args.quanta, config=_streaming_config(args)
    ))
    if args.csv:
        write_csv(rows, args.csv)
    return experiments.quantum_table(rows)


def _campaign_output(result) -> tuple:
    sections = [result.table()]
    if result.pairs:
        sections.append(result.pairs_table())
    sections.append(result.summary())
    output = "\n\n".join(sections)
    ok = result.all_pairs_equivalent and result.complete
    return (output, 0) if ok else (output, 1)


def run_campaign(args: argparse.Namespace) -> str:
    if args.replay_sweep:
        if args.specs is not None:
            raise SystemExit(
                "--replay-sweep SPEC and --specs both pick the specs; use one"
            )
        if not (args.sweep_depths or args.sweep_quanta):
            raise SystemExit(
                "--replay-sweep needs --sweep-depths and/or --sweep-quanta"
            )
    elif (args.sweep_depths or args.sweep_quanta) and not args.auto_replay:
        raise SystemExit(
            "--sweep-depths/--sweep-quanta are only read by "
            "--replay-sweep and --auto-replay"
        )
    if args.resume and not args.jsonl:
        raise SystemExit("--resume requires --jsonl (the file to resume from)")
    if args.trace_out and args.trace_sink != "spool":
        raise SystemExit("--trace-out requires --trace-sink spool")
    if args.merge_jsonl:
        conflicting = [
            flag for flag, active in (
                ("--jsonl", args.jsonl is not None),
                ("--resume", args.resume),
                ("--shard", args.shard is not None),
                ("--spec-timeout", args.spec_timeout is not None),
                ("--campaign-budget", args.campaign_budget is not None),
                ("--specs", args.specs is not None),
                ("--replay-sweep", args.replay_sweep is not None),
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
    # A merge never replays; from here on, a sweep or a run may.
    from ..replay import ReplayError  # loads the replay engine

    if args.replay_sweep:
        args.specs, args.auto_replay, args.no_paired = (
            args.replay_sweep, True, True
        )
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
        refused = []
        for spec in specs:
            try:
                points = sweep_point_specs(
                    spec,
                    depths=args.sweep_depths or (),
                    quanta_ns=args.sweep_quanta or (),
                )
            except ReplayError as exc:
                raise SystemExit(f"cannot expand {spec.name!r}: {exc}")
            # A point its workload config rejects is refused by name
            # before anything is recorded, replayed or simulated.
            refused.extend(unbuildable_points(points))
            expanded.append(spec)
            expanded.extend(points)
        if refused:
            sys.stderr.write(
                "".join(f"cannot sweep point {line}\n" for line in refused)
            )
            raise SystemExit(2)
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
    runner = CampaignRunner(
        workers=args.workers, paired=not args.no_paired,
        shard=args.shard, budget=budget,
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
    except ReplayError as exc:
        # A replayed point diverged from its fresh cross-validation run.
        raise SystemExit(f"replay sweep failed: {exc}")
    except BlockedRunError as exc:
        # A simulation lost a wakeup: its row would price an unfinished run.
        raise SystemExit(f"campaign run refused: {exc}")
    if args.csv:
        write_csv(result.run_rows(), args.csv)
    output, code = _campaign_output(result)
    if args.replay_sweep:
        order = {spec.name: index for index, spec in enumerate(specs)}
        records = sorted(result.runs, key=lambda record: order[record.name])
        columns = ["name", "evaluator", "depth", "quantum_ns", "sim_end_fs",
                   "context_switches", "delta_cycles"]
        table = dict_rows_table(
            [{col: getattr(r, col) for col in columns} for r in records],
            columns,
            title=f"Replay sweep — {args.replay_sweep}",
        )
        output = "\n\n".join(
            [output, table, experiments.sweep_summary(records)]
        )
    return output, code


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
    "campaign": run_campaign,
    "telemetry-report": run_telemetry_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point.  Command handlers return either the output string
    (exit code 0) or an ``(output, exit_code)`` tuple."""
    parser = build_parser()
    args = parser.parse_args(argv)
    result = _COMMANDS[args.command](args)
    output, code = result if isinstance(result, tuple) else (result, 0)
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``... | head``).  Point stdout at devnull
        # so the interpreter's flush at exit cannot raise again, and exit
        # 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised through main()
    raise SystemExit(main())
