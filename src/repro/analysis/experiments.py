"""Experiment drivers.

One driver per table/figure of the paper.  The CLI
(``python -m repro.analysis.cli``) and ``examples/streaming_pipeline.py``
call these functions; they can also be used interactively::

    from repro.analysis import experiments
    rows = experiments.fig5_depth_sweep(depths=[1, 2, 4, 8, 16])
    print(experiments.fig5_table(rows))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..campaign.evaluators import sweep_point_specs
from ..campaign.rows import SpecRunRecord
from ..campaign.runner import CampaignRunner
from ..campaign.spec import MODE_REFERENCE, MODE_SMART, ScenarioSpec
from ..kernel.simtime import SimTime, TimeUnit, ns
from ..kernel.simulator import Simulator
from ..soc.platform import FifoPolicy, SocConfig, SocPlatform
from ..td.quantum import GlobalQuantum
from ..workloads.streaming import (
    ExampleMode,
    PipelineModel,
    StreamingConfig,
    StreamingPipeline,
    WriterReaderExample,
)
from .reporting import ascii_table, dict_rows_table
from .stats import RunResult, measure_run


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


def run_pipeline(
    model: PipelineModel, config: StreamingConfig, label: Optional[str] = None
) -> RunResult:
    """Measure one pipeline run (wall time + kernel counters)."""

    def setup(sim: Simulator) -> StreamingPipeline:
        return StreamingPipeline(sim, model, config)

    def extras(sim: Simulator, pipeline: StreamingPipeline) -> Dict[str, float]:
        pipeline.verify()
        completion = pipeline.completion_time
        return {
            "completion_ns": completion.to(TimeUnit.NS) if completion else 0.0,
            "fifo_depth": config.fifo_depth,
            "model": model.value,
        }

    return measure_run(label or model.value, setup, extras)


def fig5_depth_sweep(
    depths: Sequence[int] = DEFAULT_FIG5_DEPTHS,
    base_config: Optional[StreamingConfig] = None,
    models: Sequence[PipelineModel] = DEFAULT_FIG5_MODELS,
) -> List[Dict[str, object]]:
    """Reproduce the Fig. 5 sweep; returns one dict row per (depth, model)."""
    base = base_config or StreamingConfig()
    rows: List[Dict[str, object]] = []
    for depth in depths:
        config = StreamingConfig(
            n_blocks=base.n_blocks,
            words_per_block=base.words_per_block,
            fifo_depth=depth,
            source_word_time=base.source_word_time,
            transmitter_word_time=base.transmitter_word_time,
            sink_word_time=base.sink_word_time,
            block_overhead=base.block_overhead,
        )
        for model in models:
            result = run_pipeline(model, config, label=f"{model.value}_d{depth}")
            row = result.as_row()
            row["depth"] = depth
            row["model"] = model.value
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
@dataclass
class CaseStudyResult:
    """Comparison of the two FIFO policies on the same SoC and job."""

    smart: RunResult
    sync: RunResult
    timing_identical: bool
    consumer_dates_ns: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def gain_percent(self) -> float:
        return self.smart.gain_percent_vs(self.sync)

    def rows(self) -> List[Dict[str, object]]:
        """One dict row per policy (CSV-friendly counterpart of :meth:`table`)."""
        rows = []
        for result in (self.sync, self.smart):
            row = result.as_row()
            row["gain_percent"] = round(self.gain_percent, 2)
            row["timing_identical"] = self.timing_identical
            rows.append(row)
        return rows

    def table(self) -> str:
        rows = [
            [
                "sync-per-access",
                f"{self.sync.wall_seconds:.4f}",
                self.sync.context_switches,
                self.sync.extra.get("fifo_blocking_waits", ""),
            ],
            [
                "Smart FIFO",
                f"{self.smart.wall_seconds:.4f}",
                self.smart.context_switches,
                self.smart.extra.get("fifo_blocking_waits", ""),
            ],
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


def case_study(config: Optional[SocConfig] = None) -> CaseStudyResult:
    """Run the case-study SoC with both FIFO policies and compare."""
    config = config or SocConfig.benchmark()
    finishes: Dict[str, Dict[str, float]] = {}

    def make_setup(policy: FifoPolicy):
        def setup(sim: Simulator) -> SocPlatform:
            return SocPlatform(sim, policy=policy, config=config)

        return setup

    def extras(sim: Simulator, platform: SocPlatform) -> Dict[str, float]:
        platform.verify()
        dates = {
            name: time.to(TimeUnit.NS) if time is not None else -1.0
            for name, time in platform.consumer_finish_times().items()
        }
        finishes[platform.policy.value] = dates
        return {
            "fifo_blocking_waits": platform.fifo_blocking_waits(),
            "noc_packets": platform.mesh.total_packets_routed,
        }

    sync_result = measure_run(
        "sync_per_access", make_setup(FifoPolicy.SYNC_PER_ACCESS), extras
    )
    smart_result = measure_run("smart_fifo", make_setup(FifoPolicy.SMART), extras)
    timing_identical = finishes.get("smart") == finishes.get("sync")
    return CaseStudyResult(
        smart=smart_result,
        sync=sync_result,
        timing_identical=timing_identical,
        consumer_dates_ns=finishes,
    )


# ---------------------------------------------------------------------------
# EXP-QUANTUM — global-quantum decoupling ablation
# ---------------------------------------------------------------------------
def quantum_ablation(
    quanta_ns: Sequence[int] = (0, 100, 1000, 10000),
    config: Optional[StreamingConfig] = None,
) -> List[Dict[str, object]]:
    """Compare quantum-based decoupling against TDless and the Smart FIFO.

    For each quantum the pipeline runs with regular FIFOs and quantum-keeper
    decoupling; the completion date is compared with the TDless reference to
    quantify the timing error, while the wall time and context switches show
    the speed side of the trade-off.  The Smart FIFO row (exact timing, no
    quantum to tune) is appended for comparison.
    """
    config = config or StreamingConfig()
    rows: List[Dict[str, object]] = []

    reference = run_pipeline(PipelineModel.TDLESS, config, label="tdless_reference")
    reference_completion = reference.extra["completion_ns"]
    reference_row = reference.as_row()
    reference_row.update({"quantum_ns": "-", "timing_error_ns": 0.0})
    rows.append(reference_row)

    for quantum_ns in quanta_ns:
        def setup(sim: Simulator, quantum_ns=quantum_ns) -> StreamingPipeline:
            GlobalQuantum.instance(sim).set(quantum_ns, TimeUnit.NS)
            return StreamingPipeline(sim, PipelineModel.QUANTUM, config)

        def extras(sim: Simulator, pipeline: StreamingPipeline) -> Dict[str, float]:
            pipeline.verify()
            completion = pipeline.completion_time
            return {
                "completion_ns": completion.to(TimeUnit.NS) if completion else 0.0,
            }

        result = measure_run(f"quantum_{quantum_ns}ns", setup, extras)
        row = result.as_row()
        row["quantum_ns"] = quantum_ns
        row["timing_error_ns"] = abs(
            result.extra["completion_ns"] - reference_completion
        )
        rows.append(row)

    smart = run_pipeline(PipelineModel.TDFULL, config, label="smart_fifo")
    smart_row = smart.as_row()
    smart_row.update(
        {
            "quantum_ns": "none needed",
            "timing_error_ns": abs(smart.extra["completion_ns"] - reference_completion),
        }
    )
    rows.append(smart_row)
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


# ---------------------------------------------------------------------------
# EXP-CSW — context-switch accounting (machine-independent Fig. 5 companion)
# ---------------------------------------------------------------------------
def context_switch_sweep(
    depths: Sequence[int] = (1, 2, 4, 8, 16, 32),
    base_config: Optional[StreamingConfig] = None,
) -> List[Dict[str, object]]:
    """Context-switch counts per model and FIFO depth (no wall-clock noise)."""
    rows = fig5_depth_sweep(depths, base_config)
    return [
        {
            "depth": row["depth"],
            "model": row["model"],
            "context_switches": row["context_switches"],
            "delta_cycles": row["delta_cycles"],
        }
        for row in rows
    ]


def context_switch_table(rows: Sequence[Dict[str, object]]) -> str:
    return dict_rows_table(
        rows,
        ["depth", "model", "context_switches", "delta_cycles"],
        title="Context switches vs FIFO depth",
    )


Iterable  # typing convenience re-export
SimTime
ns
