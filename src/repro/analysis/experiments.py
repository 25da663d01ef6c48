"""Experiment drivers.

One driver per table/figure of the paper.  The CLI
(``python -m repro.analysis.cli``) and ``examples/streaming_pipeline.py``
call these functions; they can also be used interactively::

    from repro.analysis import experiments
    result = experiments.fig5_depth_sweep(depths=[1, 2, 4, 8, 16])
    print(experiments.fig5_table(experiments.fig5_rows(result)))

Each driver but the Fig. 2/3 example (which compares per-value dates and
builds its models directly) describes its runs as
:class:`~repro.campaign.spec.ScenarioSpec` objects and simulates them
through :func:`repro.campaign.evaluators.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign.evaluators import simulate, sweep_point_specs
from ..campaign.rows import CampaignResult, SpecRunRecord
from ..campaign.runner import CampaignRunner
from ..campaign.spec import MODE_REFERENCE, MODE_SMART, ScenarioSpec
from ..kernel.simtime import SimTime
from ..kernel.simulator import Simulator
from ..soc.platform import SocConfig
from ..workloads.streaming import (
    ExampleMode,
    PipelineModel,
    StreamingConfig,
    WriterReaderExample,
)
from .reporting import ascii_table, dict_rows_table


# ---------------------------------------------------------------------------
# EXP-FIG2 / EXP-FIG3 — execution traces of the writer/reader example
# ---------------------------------------------------------------------------
@dataclass
class ExampleResult:
    """Dates produced by the three executions of the Fig. 1 model."""

    reference: List[tuple]
    naive_decoupled: List[tuple]
    smart: List[tuple]

    @property
    def smart_matches_reference(self) -> bool:
        return self.smart == self.reference

    @property
    def naive_differs_from_reference(self) -> bool:
        return self.naive_decoupled != self.reference

    def rows(self) -> List[Dict[str, object]]:
        """One dict row per transferred value (CSV-friendly counterpart of
        :meth:`table`)."""
        rows: List[Dict[str, object]] = []
        for (value, ref_w, ref_r), (_, naive_w, naive_r), (_, smart_w, smart_r) in zip(
            self.reference, self.naive_decoupled, self.smart
        ):
            rows.append(
                {
                    "value": value,
                    "reference_write_ns": ref_w,
                    "reference_read_ns": ref_r,
                    "naive_write_ns": naive_w,
                    "naive_read_ns": naive_r,
                    "smart_write_ns": smart_w,
                    "smart_read_ns": smart_r,
                }
            )
        return rows

    def table(self) -> str:
        headers = ["value", "reference wr/rd (ns)", "naive wr/rd (ns)", "smart wr/rd (ns)"]
        rows = []
        for (value, ref_w, ref_r), (_, naive_w, naive_r), (_, smart_w, smart_r) in zip(
            self.reference, self.naive_decoupled, self.smart
        ):
            rows.append(
                [
                    value,
                    f"{ref_w:g} / {ref_r:g}",
                    f"{naive_w:g} / {naive_r:g}",
                    f"{smart_w:g} / {smart_r:g}",
                ]
            )
        return ascii_table(headers, rows, title="Fig. 2/3 — write/read dates per value")


def fig2_fig3_example(fifo_depth: int = 4) -> ExampleResult:
    """Run the Fig. 1 example in the three modes and collect the dates."""

    def run(mode: ExampleMode) -> List[tuple]:
        sim = Simulator(f"example_{mode.value}")
        example = WriterReaderExample(sim, mode=mode, fifo_depth=fifo_depth)
        example.run()
        return example.dates_ns()

    return ExampleResult(
        reference=run(ExampleMode.REFERENCE),
        naive_decoupled=run(ExampleMode.DECOUPLED_NO_SYNC),
        smart=run(ExampleMode.SMART),
    )


# ---------------------------------------------------------------------------
# EXP-FIG5 — execution duration versus FIFO depth
# ---------------------------------------------------------------------------
DEFAULT_FIG5_DEPTHS = (1, 2, 4, 8, 16, 32, 64, 128)
DEFAULT_FIG5_MODELS = (
    PipelineModel.UNTIMED,
    PipelineModel.TDLESS,
    PipelineModel.TDFULL,
)


def _streaming_spec(
    name: str, config: StreamingConfig, depth: int, **fields
) -> ScenarioSpec:
    """A ``streaming`` spec of ``config``'s size (the builder's own
    default is 10x25, so the size is always spelled out)."""
    return ScenarioSpec(
        name=name,
        workload="streaming",
        depth=depth,
        params={
            "n_blocks": config.n_blocks,
            "words_per_block": config.words_per_block,
        },
        **fields,
    )


def _run_specs(specs: Sequence[ScenarioSpec]) -> CampaignResult:
    """Simulate each spec once, inline, in spec order."""
    return CampaignRunner(workers=1, paired=False).run(specs)


def _model(record: SpecRunRecord) -> PipelineModel:
    """The pipeline model the ``streaming`` builder ran for ``record``."""
    if record.timing is not None:  # "untimed" or "quantum"
        return PipelineModel(record.timing)
    if record.mode == MODE_SMART:
        return PipelineModel.TDFULL
    return PipelineModel.TDLESS


def _row(record: SpecRunRecord, label: str) -> Dict[str, object]:
    """The table row of one simulated run (its wall clock is informative)."""
    return {
        "label": label,
        "wall_seconds": round(record.wall_seconds, 4),
        "context_switches": record.context_switches,
        "method_invocations": record.method_invocations,
        "delta_cycles": record.delta_cycles,
        "sim_end": str(SimTime.from_femtoseconds(record.sim_end_fs)),
    }


def _streaming_row(record: SpecRunRecord) -> Dict[str, object]:
    row = _row(record, record.name)
    row["completion_ns"] = record.extra["completion_ns"]
    row["fifo_depth"] = record.depth
    row["model"] = _model(record).value
    return row


def fig5_depth_sweep(
    depths: Sequence[int] = DEFAULT_FIG5_DEPTHS,
    base_config: Optional[StreamingConfig] = None,
    models: Sequence[PipelineModel] = DEFAULT_FIG5_MODELS,
) -> CampaignResult:
    """Reproduce the Fig. 5 sweep: one ``streaming`` spec per (depth,
    model), named ``{model}_d{depth}``; :func:`fig5_rows` tabulates it.

    Untimed runs ``timing="untimed"``, TDless the reference mode and
    TDfull the Smart mode.  Only ``base_config``'s size (blocks, words)
    is read.
    """
    base = base_config or StreamingConfig()
    fields = {
        PipelineModel.UNTIMED: {"timing": "untimed"},
        PipelineModel.TDLESS: {"mode": MODE_REFERENCE},
        PipelineModel.TDFULL: {"mode": MODE_SMART},
    }
    return _run_specs([
        _streaming_spec(f"{model.value}_d{depth}", base, depth, **fields[model])
        for depth in depths
        for model in models
    ])


def fig5_rows(result: CampaignResult) -> List[Dict[str, object]]:
    """One dict row per (depth, model) of :func:`fig5_depth_sweep`."""
    rows = []
    for record in result.runs:
        row = _streaming_row(record)
        row["depth"] = record.depth
        rows.append(row)
    return rows


def fig5_table(rows: Sequence[Dict[str, object]]) -> str:
    columns = ["depth", "model", "wall_seconds", "context_switches", "completion_ns"]
    return dict_rows_table(rows, columns, title="Fig. 5 — execution duration vs FIFO depth")


def fig5_series(rows: Sequence[Dict[str, object]]) -> Dict[str, Dict[int, float]]:
    """Pivot the sweep rows into {model: {depth: wall_seconds}}."""
    series: Dict[str, Dict[int, float]] = {}
    for row in rows:
        series.setdefault(str(row["model"]), {})[int(row["depth"])] = float(
            row["wall_seconds"]
        )
    return series


def fig5_speedup_table(rows: Sequence[Dict[str, object]]) -> str:
    """TDfull speed-up over TDless per depth (the paper's headline numbers)."""
    series = fig5_series(rows)
    tdless = series.get(PipelineModel.TDLESS.value, {})
    tdfull = series.get(PipelineModel.TDFULL.value, {})
    untimed = series.get(PipelineModel.UNTIMED.value, {})
    table_rows = []
    for depth in sorted(tdfull):
        row = [depth]
        if depth in tdless and tdfull[depth] > 0:
            row.append(f"{tdless[depth] / tdfull[depth]:.2f}x")
        else:
            row.append("-")
        if depth in untimed and untimed[depth] > 0:
            row.append(f"{tdfull[depth] / untimed[depth]:.2f}x")
        else:
            row.append("-")
        table_rows.append(row)
    return ascii_table(
        ["depth", "TDfull speedup vs TDless", "TDfull slowdown vs untimed"],
        table_rows,
        title="Fig. 5 — derived ratios",
    )


# ---------------------------------------------------------------------------
# EXP-FIG5-REPLAY — the same sweep from one simulation per curve
# ---------------------------------------------------------------------------
def sweep_summary(records: Sequence[SpecRunRecord]) -> str:
    """One line pricing a sweep's replays against its simulations.

    Works from the rows' ``wall_seconds`` alone: simulated rows (anchors
    and refused points) against replayed ones.
    """
    simulated = [r.wall_seconds for r in records if r.evaluator != "replay"]
    replayed = [r.wall_seconds for r in records if r.evaluator == "replay"]
    plural = "" if len(simulated) == 1 else "s"
    line = f"{len(simulated)} simulation{plural} + {len(replayed)} replays"
    if not replayed:
        return f"{line}; no point replayed"
    replay_s = sum(replayed)
    if replay_s <= 0.0 or sum(simulated) <= 0.0:
        return line  # rows recovered from a file carry no wall clock
    speedup = (sum(simulated) / len(simulated)) / (replay_s / len(replayed))
    return (
        f"{line}; {len(replayed) / replay_s:.0f} points/s "
        f"({speedup:.0f}x per point vs simulate)"
    )


@dataclass
class Fig5ReplayResult:
    """Fig. 5 depth curves computed by record-and-replay.

    One full simulation per mode (the recording anchor); every other depth
    is priced by :class:`~repro.replay.ReplayEngine` replaying the anchor's
    dependency spool, with a sampled subset cross-validated against fresh
    simulations.  Wall-clock columns are absent by design — replay
    reproduces the *simulated* observables (end dates, context switches,
    delta cycles), which are the machine-independent Fig. 5 companions.
    """

    #: Campaign rows (see :class:`~repro.campaign.rows.SpecRunRecord`)
    #: per mode.
    runs: Dict[str, List[SpecRunRecord]]

    def rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for mode, records in self.runs.items():
            for record in sorted(records, key=lambda r: r.depth):
                rows.append(
                    {
                        "depth": record.depth,
                        "mode": mode,
                        "evaluator": record.evaluator,
                        "sim_end_ns": record.sim_end_fs / 1e6,
                        "context_switches": record.context_switches,
                        "delta_cycles": record.delta_cycles,
                    }
                )
        return rows

    def table(self) -> str:
        return dict_rows_table(
            self.rows(),
            ["depth", "mode", "evaluator", "sim_end_ns", "context_switches",
             "delta_cycles"],
            title="Fig. 5 (replay) — simulated duration vs FIFO depth",
        )

    def summary(self) -> str:
        return "\n".join(
            f"{mode}: {sweep_summary(records)}"
            for mode, records in self.runs.items()
        )


def fig5_replay_sweep(
    depths: Sequence[int] = DEFAULT_FIG5_DEPTHS,
    base_config: Optional[StreamingConfig] = None,
    anchor_depth: Optional[int] = None,
    validate: int = 2,
    modes: Sequence[str] = (MODE_SMART, MODE_REFERENCE),
) -> Fig5ReplayResult:
    """Reproduce the Fig. 5 depth sweep with one simulation per curve.

    Records the streaming pipeline once per mode at ``anchor_depth``
    (default: the middle of ``depths``) and replays the recording at every
    other depth, as one auto-replayed campaign (one routing group per
    mode); ``validate`` sampled points per curve are re-simulated and
    compared exactly, and a divergence raises
    :class:`~repro.replay.ReplayError` (see
    :func:`repro.campaign.evaluators.route_group`).
    """
    base = base_config or StreamingConfig()
    if anchor_depth is None:
        anchor_depth = sorted(depths)[len(depths) // 2]
    specs: List[ScenarioSpec] = []
    for mode in modes:
        anchor = ScenarioSpec(
            name=f"fig5_replay_{mode}",
            workload="streaming",
            mode=mode,
            depth=anchor_depth,
            params={
                "n_blocks": base.n_blocks,
                "words_per_block": base.words_per_block,
            },
        )
        specs += [anchor] + sweep_point_specs(anchor, depths=depths)
    result = CampaignRunner(
        workers=1, paired=False, auto_replay=True,
        auto_replay_validate=validate,
    ).run(specs)
    return Fig5ReplayResult(
        runs={
            mode: [run for run in result.runs if run.mode == mode]
            for mode in modes
        }
    )


# ---------------------------------------------------------------------------
# EXP-CASE — the heterogeneous many-core case study
# ---------------------------------------------------------------------------
#: Row label of each case-study policy.
_POLICY_LABELS = {MODE_REFERENCE: "sync_per_access", MODE_SMART: "smart_fifo"}


@dataclass
class CaseStudyResult:
    """Comparison of the two FIFO policies on the same SoC and job."""

    #: The reference (sync-per-access) and Smart runs of the ``soc`` spec.
    sync: SpecRunRecord
    smart: SpecRunRecord
    #: The most-activated processes of each run as ``(name, activations)``
    #: keyed by mode: the per-process breakdown behind the switch counts.
    top_processes: Dict[str, List[Tuple[str, int]]]

    @property
    def timing_identical(self) -> bool:
        """Every consumer finishes on the same date under both policies."""
        return (self.sync.extra["consumer_finish_ns"]
                == self.smart.extra["consumer_finish_ns"])

    @property
    def gain_percent(self) -> float:
        """Wall-clock gain of Smart over sync-per-access (the paper's
        38.0 s -> 21.9 s is a gain of 42.3 %)."""
        if self.sync.wall_seconds == 0:
            return 0.0
        return 100.0 * (
            self.sync.wall_seconds - self.smart.wall_seconds
        ) / self.sync.wall_seconds

    def rows(self) -> List[Dict[str, object]]:
        """One dict row per policy (CSV-friendly counterpart of :meth:`table`)."""
        rows = []
        for record in (self.sync, self.smart):
            row = _row(record, _POLICY_LABELS[record.mode])
            row["fifo_blocking_waits"] = record.extra["fifo_blocking_waits"]
            row["noc_packets"] = record.extra["noc_packets"]
            row["gain_percent"] = round(self.gain_percent, 2)
            row["timing_identical"] = self.timing_identical
            rows.append(row)
        return rows

    def table(self) -> str:
        rows = [
            [
                policy,
                f"{record.wall_seconds:.4f}",
                record.context_switches,
                record.extra["fifo_blocking_waits"],
            ]
            for policy, record in (("sync-per-access", self.sync),
                                   ("Smart FIFO", self.smart))
        ]
        table = ascii_table(
            ["policy", "wall seconds", "context switches", "fifo blocking waits"],
            rows,
            title="Case study (Section IV-C) — Smart FIFO vs sync-per-access",
        )
        return (
            f"{table}\n"
            f"gain: {self.gain_percent:.1f}% "
            f"(timing identical: {self.timing_identical})"
        )


def case_study(
    n_chains: int = 4, items_per_chain: int = 512, workers_per_chain: int = 3
) -> CaseStudyResult:
    """Run the case-study SoC (:meth:`SocConfig.benchmark`, with
    ``workers_per_chain`` workers per chain) as a ``soc`` spec under both
    FIFO policies and compare."""
    config = SocConfig.benchmark(n_chains=n_chains, items_per_chain=items_per_chain)
    spec = ScenarioSpec(
        name="case_study",
        workload="soc",
        depth=config.fifo_depth,
        params={
            "n_chains": n_chains,
            "workers_per_chain": workers_per_chain,
            "items_per_chain": items_per_chain,
            "monitor_repetitions": config.monitor_repetitions,
            "monitor_period_ns": config.monitor_period_ns,
        },
    )
    records, top = {}, {}
    for mode in (MODE_REFERENCE, MODE_SMART):
        sim, records[mode] = simulate(spec.with_mode(mode))
        sim.trace.close()
        top[mode] = sim.stats.top_processes(8)
    return CaseStudyResult(
        sync=records[MODE_REFERENCE], smart=records[MODE_SMART],
        top_processes=top,
    )


# ---------------------------------------------------------------------------
# EXP-QUANTUM — global-quantum decoupling ablation
# ---------------------------------------------------------------------------
def quantum_ablation(
    quanta_ns: Sequence[int] = (0, 100, 1000, 10000),
    config: Optional[StreamingConfig] = None,
) -> CampaignResult:
    """Compare quantum-based decoupling against TDless and the Smart FIFO.

    For each quantum the pipeline runs with regular FIFOs and quantum-keeper
    decoupling (``timing="quantum"``); :func:`quantum_rows` compares its
    completion date with the TDless reference run (``tdless_reference``)
    to quantify the timing error, while the wall time and context switches
    show the speed side of the trade-off.  The Smart FIFO run
    (``smart_fifo``: exact timing, no quantum to tune) comes last.
    """
    config = config or StreamingConfig()
    depth = config.fifo_depth
    return _run_specs(
        [_streaming_spec("tdless_reference", config, depth, mode=MODE_REFERENCE)]
        + [
            _streaming_spec(f"quantum_{quantum_ns}ns", config, depth,
                            timing="quantum", quantum_ns=quantum_ns)
            for quantum_ns in quanta_ns
        ]
        + [_streaming_spec("smart_fifo", config, depth, mode=MODE_SMART)]
    )


def quantum_rows(result: CampaignResult) -> List[Dict[str, object]]:
    """One dict row per run of :func:`quantum_ablation`, with its timing
    error against the TDless reference."""
    rows = [_streaming_row(record) for record in result.runs]
    reference = next(row for row in rows if row["label"] == "tdless_reference")
    for row, record in zip(rows, result.runs):
        if record.timing == "quantum":
            row["quantum_ns"] = record.quantum_ns
        else:
            row["quantum_ns"] = "-" if row is reference else "none needed"
        row["timing_error_ns"] = abs(
            row["completion_ns"] - reference["completion_ns"]
        )
    return rows


def quantum_table(rows: Sequence[Dict[str, object]]) -> str:
    columns = [
        "label",
        "quantum_ns",
        "wall_seconds",
        "context_switches",
        "completion_ns",
        "timing_error_ns",
    ]
    return dict_rows_table(
        rows, columns, title="Quantum ablation — accuracy/speed trade-off"
    )
