"""Workloads of the perfbench benchmark and the process that measures them.

``run.py`` starts this file in a fresh interpreter for every measurement,
so each workload runs in a process of its own::

    python3 perfbench/suite.py probe WORKLOAD SEED SCALE
    python3 perfbench/suite.py measure WORKLOAD SEED SECONDS TRACE SCALE WORKDIR

``probe`` builds the first simulation of an iteration and prints
``ready``; the parent times it from spawn, so it covers interpreter start,
imports and elaboration; the paired campaign workload instead runs its
first spec's pair on a fresh pool.
``measure`` runs one unmeasured warm-up iteration, then whole iterations
until SECONDS have passed, then (TRACE=1) one more iteration with the
telemetry sideband on, and prints one JSON document as its last line.

Every workload calls public entry points of ``repro`` only:
``StreamingPipeline.run``, ``SocPlatform.run`` and ``CampaignRunner.run``
for the work, ``sim.stats`` and the FIFO counters (through
``sim.walk_modules()``) for the counts, and ``Simulator.telemetry``,
``CampaignRunner(telemetry_dir=...)`` and ``load_events`` for the layers.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.campaign import (
    CampaignRunner,
    ScenarioSpec,
    build_scenario,
    default_campaign,
    spec_is_pairable,
    sweep_point_specs,
)
from repro.campaign.runner import MERGED_TELEMETRY
from repro.kernel import Simulator
from repro.kernel.errors import SimulationError
from repro.soc import FifoPolicy, SocConfig, SocPlatform
from repro.telemetry import NULL_TELEMETRY, Telemetry, load_events
from repro.workloads import PipelineModel, StreamingConfig, StreamingPipeline

#: Depths of the Fig. 5 sweep: enough points to fit the paper's cost model
#: (Smart context switches fall 67x from depth 1 to depth 64).
FIG5_DEPTHS = (1, 4, 16, 64)
#: The three Fig. 5 variants: (label, model, burst).
FIG5_VARIANTS = (
    ("reference", PipelineModel.TDLESS, False),
    ("word", PipelineModel.TDFULL, False),
    ("burst", PipelineModel.TDFULL, True),
)
#: The two Section IV-C policies: (label, policy).
SOC_POLICIES = (
    ("reference", FifoPolicy.SYNC_PER_ACCESS),
    ("smart", FifoPolicy.SMART),
)
#: Pool size of the equivalence campaign; the benchmark box has 2 cores.
CAMPAIGN_WORKERS = 2
#: Dense depth grid of the replay sweep (43 points over the Fig. 5 axis).
SWEEP_DEPTHS = tuple(sorted(set(range(1, 17)) | {
    20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256,
    320, 384, 448, 512, 576, 640, 704, 768, 896, 960, 1024,
}))

#: Work per iteration.  "full" is what BENCHMARK.json measures; "smoke"
#: is the tiny size the smoke test runs in a few seconds.
SCALES = {
    "full": {
        "fig5_blocks": 100, "fig5_words": 100,
        "soc_chains": 4, "soc_items": 2048,
        "replicas": 40,
        "sweep_blocks": 100, "sweep_depths": SWEEP_DEPTHS,
    },
    "smoke": {
        "fig5_blocks": 4, "fig5_words": 25,
        "soc_chains": 1, "soc_items": 64,
        "replicas": 1,
        "sweep_blocks": 4, "sweep_depths": (1, 2, 64),
    },
}

#: Every per-layer metric, in BENCHMARK.json order.  A workload that does
#: not exercise a layer reports 0 for that layer's metrics.
LAYER_METRICS = (
    "kernel.ns_per_context_switch", "kernel.ns_per_word_floor",
    "kernel.delta_cycles", "kernel.timed_phases", "kernel.method_invocations",
    "kernel.build_s", "kernel.elaborate_s", "kernel.schedule_s",
    "kernel.delta_loop_s", "kernel.timed_loop_s",
    "smart_ns_per_word", "reference_ns_per_word",
    "fifo.words", "fifo.blocking_waits",
    "fifo.word_ns_per_word", "fifo.span_ns_per_word",
    "fifo.span_over_word_d1", "fifo.span_over_word_d4",
    "fifo.span_over_word_d16", "fifo.span_over_word_d64",
    "fifo.span_fraction", "fifo.words_per_mutation",
    "trace.lines", "trace.sink_share",
    "campaign.jobs", "campaign.execute_s", "campaign.serialize_s",
    "campaign.queue_wait_s", "campaign.recombine_s", "campaign.sink_write_s",
    "campaign.worker_utilization", "campaign.overhead_ms_per_job",
    "replay.points_replayed", "replay.fallback_points",
    "replay.replayed_fraction", "replay.record_s", "replay.us_per_point",
    "replay.validate_s", "replay.fallback_s",
    "telemetry.overhead", "cli.import_s", "unattributed_s",
)


# ---------------------------------------------------------------------------
# Iteration results
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    """What one iteration produced.

    ``counts`` are deterministic for a seed: every iteration, traced or
    not, must repeat the warm-up's counts exactly.  ``attempted`` and
    ``failed`` count the correctness oracles the iteration checked.
    """

    counts: Dict[str, object]
    attempted: int
    failed: int
    #: Process CPU seconds and context switches of each single-process
    #: simulation, by run label (W1, W2).
    cpu: Dict[str, float] = field(default_factory=dict)
    switches: Dict[str, int] = field(default_factory=dict)
    #: Seconds spent building models, outside any kernel span.
    build_s: float = 0.0
    #: ``(run label, FifoCount)`` for every FIFO of every simulation.
    fifos: List[Tuple[str, "FifoCount"]] = field(default_factory=list)
    #: The ``CampaignResult`` of the campaign workloads (W3, W4).
    result: object = None
    #: Set by :func:`timed_iteration`: wall seconds, and CPU seconds of this
    #: process plus the children it reaped (the campaign pool).
    wall_s: float = 0.0
    cpu_s: float = 0.0


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed_iteration(iteration: Callable[[], Sample]) -> Sample:
    cpu_start = _cpu_seconds()
    wall_start = time.perf_counter()
    sample = iteration()
    sample.wall_s = time.perf_counter() - wall_start
    sample.cpu_s = _cpu_seconds() - cpu_start
    return sample


class FifoCount(NamedTuple):
    """Traffic counters of one FIFO after a run.  Regular FIFOs have no
    blocking-wait or burst counters and report 0 for them."""

    fifo: str
    words: int
    blocking_waits: int
    #: Bursts moved as one span, and bursts that fell back to per-word.
    span_ops: int
    word_ops: int


def fifo_counts(sim: Simulator) -> List[FifoCount]:
    """The counters of every FIFO, reached through the module hierarchy."""
    counts = []
    for module in sim.walk_modules():
        if not hasattr(module, "total_written"):
            continue
        counts.append(FifoCount(
            module.full_name,
            module.total_written,
            getattr(module, "blocking_waits", 0),
            getattr(module, "burst_span_writes", 0)
            + getattr(module, "burst_span_reads", 0),
            getattr(module, "burst_word_writes", 0)
            + getattr(module, "burst_word_reads", 0),
        ))
    return sorted(counts)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares line ``y = intercept + slope * x``: (slope, intercept)."""
    mean_x, mean_y = statistics.mean(xs), statistics.mean(ys)
    var_x = sum((x - mean_x) ** 2 for x in xs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
    return slope, mean_y - slope * mean_x


# ---------------------------------------------------------------------------
# Single-process simulations (W1, W2)
# ---------------------------------------------------------------------------
@dataclass
class _SimRun:
    cpu_s: float
    build_s: float
    verified: bool
    completion: object
    context_switches: int
    fifos: List[FifoCount]
    #: What a burst twin must reproduce: kernel counters, completion
    #: date(s), and the words and blocking waits of every FIFO.
    observed: Tuple[object, ...]


def _simulate(sim: Simulator, build: Callable, completion: Callable) -> _SimRun:
    """Build a model with ``build()``, run it, verify it, read its counters.

    ``completion(model)`` returns the simulated date(s) that the paper's
    equivalence claim is about."""
    start = time.perf_counter()
    model = build()
    build_s = time.perf_counter() - start
    start = time.process_time()
    model.run()
    cpu_s = time.process_time() - start
    try:
        model.verify()
        verified = True
    except (AssertionError, SimulationError) as exc:
        print(f"verify() failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        verified = False
    stats = sim.stats
    fifos = fifo_counts(sim)
    done = completion(model)
    return _SimRun(
        cpu_s=cpu_s,
        build_s=build_s,
        verified=verified,
        completion=done,
        context_switches=stats.context_switches,
        fifos=fifos,
        observed=(
            stats.context_switches, stats.delta_cycles, stats.timed_phases,
            done, tuple(count[:3] for count in fifos),
        ),
    )


def _sideband(telemetry_dir: Optional[str]):
    """The telemetry W1 and W2 hand to their simulators: off, or a
    sideband file in ``telemetry_dir``."""
    if telemetry_dir is None:
        return NULL_TELEMETRY
    return Telemetry("perfbench", path=os.path.join(telemetry_dir, MERGED_TELEMETRY))


def _simulation_sample(runs: Dict[str, _SimRun], checks: List[bool]) -> Sample:
    smart = [run for label, run in runs.items() if not label.startswith("reference")]
    return Sample(
        counts={
            "context_switches": sum(run.context_switches for run in smart),
            "observed": {label: run.observed for label, run in runs.items()},
        },
        attempted=len(checks),
        failed=checks.count(False),
        cpu={label: run.cpu_s for label, run in runs.items()},
        switches={label: run.context_switches for label, run in runs.items()},
        build_s=sum(run.build_s for run in runs.values()),
        fifos=[
            (label, count) for label, run in sorted(runs.items()) for count in run.fifos
        ],
    )


def _median_cpu_ns(untraced: List[Sample]) -> Dict[str, float]:
    return {
        label: statistics.median(sample.cpu[label] for sample in untraced) * 1e9
        for label in untraced[0].cpu
    }


def _simulation_layers(traced: Sample) -> Tuple[Dict[str, float], Dict[str, object]]:
    """FIFO-layer counts of a traced W1/W2 iteration, from the modules."""
    counts = [count for _, count in traced.fifos]
    span_ops = sum(count.span_ops for count in counts)
    word_ops = sum(count.word_ops for count in counts)
    ranked = sorted(traced.fifos, key=lambda row: (-row[1].blocking_waits, row))
    layers = {
        "fifo.words": sum(count.words for count in counts),
        "fifo.blocking_waits": sum(count.blocking_waits for count in counts),
        "fifo.span_fraction": _ratio(span_ops, span_ops + word_ops),
        "kernel.build_s": traced.build_s,
    }
    detail = {
        # The FIFOs whose blocking waits caused the most context switches.
        "top_blocking_fifos": [
            {"run": run, "fifo": count.fifo, "blocking_waits": count.blocking_waits,
             "words": count.words}
            for run, count in ranked[:3]
        ],
        "context_switches": dict(sorted(traced.switches.items())),
    }
    return layers, detail


class _Simulations:
    """W1 and W2: a few single-process simulations per iteration."""

    def attributed_s(self, traced: Sample, spans, counters) -> float:
        return spans.get("kernel.run", 0.0) + traced.build_s


class Fig5Sweep(_Simulations):
    """W1: the Fig. 5 pipeline at four depths, in three variants."""

    name = "fig5_sweep"

    def __init__(self, seed: int, size: Dict[str, object]):
        self.config = StreamingConfig(
            n_blocks=size["fig5_blocks"], words_per_block=size["fig5_words"]
        )
        self.words = self.config.total_words
        self.order = [(d, v) for d in FIG5_DEPTHS for v in FIG5_VARIANTS]
        # The pipeline takes no random input: the seed permutes run order.
        random.Random(seed).shuffle(self.order)

    def _build(self, sim: Simulator, depth: int, variant) -> StreamingPipeline:
        _, model, burst = variant
        config = replace(self.config, fifo_depth=depth)
        return StreamingPipeline(sim, model, config, burst=burst)

    def probe(self) -> None:
        sim = Simulator("probe")
        self._build(sim, *self.order[0])
        sim.elaborate()

    def iteration(self, workdir: str, telemetry_dir: Optional[str] = None) -> Sample:
        telemetry = _sideband(telemetry_dir)
        runs: Dict[str, _SimRun] = {}
        for depth, variant in self.order:
            sim = Simulator(f"fig5_{variant[0]}_d{depth}")
            sim.telemetry = telemetry
            runs[f"{variant[0]}_d{depth}"] = _simulate(
                sim,
                lambda: self._build(sim, depth, variant),
                lambda pipeline: pipeline.completion_time,
            )
        telemetry.close()
        checks = []
        for depth in FIG5_DEPTHS:
            ref, word, burst = (runs[f"{v[0]}_d{depth}"] for v in FIG5_VARIANTS)
            checks += [
                ref.verified,
                word.verified,
                burst.verified,
                # Smart dates equal reference dates.
                ref.completion is not None and word.completion == ref.completion,
                # Burst equals word in counters and dates.
                burst.observed == word.observed,
            ]
        return _simulation_sample(runs, checks)

    def layers(self, traced: Sample, untraced: List[Sample], spans, counters, workdir):
        """The paper's cost model (host CPU = floor per word + cost per
        context switch) and the burst/word CPU ratios, from the median
        untraced CPU of every (variant, depth) run."""
        words = self.words
        cpu_ns = _median_cpu_ns(untraced)
        slope, intercept = _fit(
            [traced.switches[f"word_d{d}"] for d in FIG5_DEPTHS],
            [cpu_ns[f"word_d{d}"] for d in FIG5_DEPTHS],
        )
        layers, detail = _simulation_layers(traced)
        layers.update({
            "kernel.ns_per_context_switch": slope,
            "kernel.ns_per_word_floor": intercept / words,
            "smart_ns_per_word": statistics.mean(
                cpu_ns[f"word_d{d}"] for d in FIG5_DEPTHS) / words,
            "reference_ns_per_word": statistics.mean(
                cpu_ns[f"reference_d{d}"] for d in FIG5_DEPTHS) / words,
            "fifo.word_ns_per_word": cpu_ns["word_d64"] / words,
            "fifo.span_ns_per_word": cpu_ns["burst_d64"] / words,
        })
        for depth in FIG5_DEPTHS:
            layers[f"fifo.span_over_word_d{depth}"] = (
                cpu_ns[f"burst_d{depth}"] / cpu_ns[f"word_d{depth}"]
            )
        detail["cpu_ns_per_word"] = {
            label: cpu_ns[label] / words for label in sorted(cpu_ns)
        }
        return layers, detail


# ---------------------------------------------------------------------------
# W2: the Section IV-C case study
# ---------------------------------------------------------------------------
class SocCaseStudy(_Simulations):
    """W2: the SoC with sync-per-access FIFOs versus Smart FIFOs."""

    name = "soc_case_study"

    def __init__(self, seed: int, size: Dict[str, object]):
        self.config = SocConfig.benchmark(
            n_chains=size["soc_chains"], items_per_chain=size["soc_items"]
        )
        self.words = self.config.n_chains * self.config.items_per_chain
        self.order = list(SOC_POLICIES)
        # The platform takes no random input: the seed permutes run order.
        random.Random(seed).shuffle(self.order)

    def probe(self) -> None:
        sim = Simulator("probe")
        SocPlatform(sim, policy=self.order[0][1], config=self.config)
        sim.elaborate()

    def iteration(self, workdir: str, telemetry_dir: Optional[str] = None) -> Sample:
        telemetry = _sideband(telemetry_dir)
        runs: Dict[str, _SimRun] = {}
        for label, policy in self.order:
            sim = Simulator(f"soc_{label}")
            sim.telemetry = telemetry
            runs[label] = _simulate(
                sim,
                lambda: SocPlatform(sim, policy=policy, config=self.config),
                lambda platform: sorted(
                    (name, None if date is None else date.femtoseconds)
                    for name, date in platform.consumer_finish_times().items()
                ),
            )
        telemetry.close()
        reference, smart = runs["reference"], runs["smart"]
        dates_equal = smart.completion == reference.completion and all(
            date is not None for _, date in reference.completion
        )
        return _simulation_sample(
            runs, [reference.verified, smart.verified, dates_equal]
        )

    def layers(self, traced: Sample, untraced: List[Sample], spans, counters, workdir):
        cpu_ns = _median_cpu_ns(untraced)
        layers, detail = _simulation_layers(traced)
        layers["smart_ns_per_word"] = cpu_ns["smart"] / self.words
        layers["reference_ns_per_word"] = cpu_ns["reference"] / self.words
        return layers, detail


# ---------------------------------------------------------------------------
# Campaign workloads (W3, W4)
# ---------------------------------------------------------------------------
def _trace_lines(result) -> int:
    """Trace lines of every simulation of a campaign: both halves of each
    pair plus the runs that were not paired."""
    paired = {pair.name for pair in result.pairs}
    return sum(
        pair.reference_lines + pair.candidate_lines for pair in result.pairs
    ) + sum(run.trace_lines for run in result.runs if run.name not in paired)


def equivalence_specs(seed: int, replicas: int) -> List[ScenarioSpec]:
    """``default_campaign()`` replicated; every replica's specs get their
    own names and seeds, derived from ``seed``."""
    specs = []
    for replica in range(replicas):
        for spec in default_campaign():
            rng = random.Random(f"{seed}/{replica}/{spec.name}")
            specs.append(replace(
                spec,
                name=f"{spec.name}_r{replica}",
                seed=rng.randrange(1, 2 ** 31),
                params=dict(spec.params),
            ))
    return specs


def run_equivalence(
    specs: Sequence[ScenarioSpec],
    workdir: str,
    telemetry_dir: Optional[str] = None,
    trace_sink: str = "digest",
) -> Sample:
    """One paired campaign over ``specs``, rows streamed to a JSONL file.

    Oracles: every spec has its run row (each run passed its ``verify()``
    in a worker) and every pairable spec's reference/Smart pair is
    equivalent."""
    result = CampaignRunner(
        workers=CAMPAIGN_WORKERS, trace_sink=trace_sink, telemetry_dir=telemetry_dir
    ).run(specs, jsonl=os.path.join(workdir, "rows.jsonl"))
    ran = {run.name for run in result.runs}
    equivalent = {pair.name: pair.equivalent for pair in result.pairs}
    checks = [spec.name in ran for spec in specs] + [
        equivalent.get(spec.name, False) for spec in specs if spec_is_pairable(spec)
    ]
    return Sample(
        counts={
            "context_switches": sum(run.context_switches for run in result.runs),
            "fingerprint": result.fingerprint(),
        },
        attempted=len(checks),
        failed=checks.count(False),
        result=result,
    )


class EquivalenceCampaign:
    """W3: the default campaign, replicated, paired on a 2-worker pool."""

    name = "equivalence_campaign"

    def __init__(self, seed: int, size: Dict[str, object]):
        self.specs = equivalence_specs(seed, size["replicas"])

    def probe(self) -> None:
        CampaignRunner(workers=CAMPAIGN_WORKERS).run(self.specs[:1])

    def iteration(self, workdir: str, telemetry_dir: Optional[str] = None) -> Sample:
        return run_equivalence(self.specs, workdir, telemetry_dir)

    def layers(self, traced: Sample, untraced: List[Sample], spans, counters, workdir):
        null_twin = timed_iteration(
            lambda: run_equivalence(self.specs, workdir, trace_sink="null")
        )
        digest_cpu = statistics.median(sample.cpu_s for sample in untraced)
        execute = spans.get("campaign.execute", 0.0)
        layers = {
            "campaign.worker_utilization": _ratio(
                execute, spans.get("campaign.run", 0.0) * CAMPAIGN_WORKERS
            ),
            "campaign.overhead_ms_per_job": _ratio(
                (traced.wall_s * CAMPAIGN_WORKERS - execute) * 1e3,
                counters.get("campaign.jobs_done", 0),
            ),
            "trace.lines": _trace_lines(traced.result),
            "trace.sink_share": 1.0 - null_twin.cpu_s / digest_cpu,
        }
        return layers, {"null_sink_cpu_s": null_twin.cpu_s, "digest_cpu_s": digest_cpu}

    def attributed_s(self, traced: Sample, spans, counters) -> float:
        pool = spans.get("campaign.execute", 0.0) + spans.get("campaign.serialize", 0.0)
        return (
            pool / CAMPAIGN_WORKERS
            + counters.get("campaign.recombine_s", 0.0)
            + counters.get("campaign.sink_write_s", 0.0)
        )


class DenseSweep:
    """W4: auto-routed record-and-replay over a dense depth grid."""

    name = "dense_sweep"

    def __init__(self, seed: int, size: Dict[str, object]):
        campaign = {spec.name: spec for spec in default_campaign()}
        blocks = size["sweep_blocks"]
        self.anchors = [
            ScenarioSpec(
                f"streaming_{blocks}x100", "streaming", depth=8, burst=True,
                params={"n_blocks": blocks, "words_per_block": 100},
            ),
            campaign["mixed_d3"],
            campaign["video_d8"],
            # Occupancy probes make this recording conditional: its validity
            # envelope refuses part of the grid, which falls back to simulation.
            ScenarioSpec(
                "random_anchor", "random_traffic", depth=8, burst=True,
                seed=random.Random(seed).randrange(1, 2 ** 31),
            ),
        ]
        self.specs = []
        for anchor in self.anchors:
            self.specs += [anchor] + sweep_point_specs(anchor, size["sweep_depths"])

    def probe(self) -> None:
        sim = Simulator("probe")
        build_scenario(sim, self.anchors[0])
        sim.elaborate()

    def iteration(self, workdir: str, telemetry_dir: Optional[str] = None) -> Sample:
        result = CampaignRunner(
            workers=1, paired=False, auto_replay=True,
            telemetry_dir=telemetry_dir,
        ).run(self.specs)
        rows = {run.name: run for run in result.runs}
        replayed = [run for run in result.runs if run.evaluator == "replay"]
        # Every simulated row passed its verify(); a routed group whose
        # sampled replay differs from a fresh simulation raises instead.
        checks = [spec.name in rows for spec in self.specs] + [
            run.extra.get("all_terminated") is True for run in replayed
        ]
        return Sample(
            counts={
                "context_switches": sum(run.context_switches for run in result.runs),
                "replayed": len(replayed),
                "fingerprint": result.fingerprint(),
            },
            attempted=len(checks),
            failed=checks.count(False),
            result=result,
        )

    def layers(self, traced: Sample, untraced: List[Sample], spans, counters, workdir):
        points = counters.get("replay.points_replayed", 0)
        refusals = {
            name[len("replay.refusals."):]: value
            for name, value in sorted(counters.items())
            if name.startswith("replay.refusals.")
        }
        layers = {
            # The queue-wait span also covers the inline routing pass here.
            "campaign.queue_wait_s": 0,
            "replay.fallback_points": sum(refusals.values()),
            "replay.replayed_fraction": _ratio(
                points, len(self.specs) - len(self.anchors)
            ),
            # Jobs left after routing are the refused points.
            "replay.fallback_s": spans.get("campaign.execute", 0.0),
            "trace.lines": _trace_lines(traced.result),
        }
        return layers, {"refusals_by_construct": refusals}

    def attributed_s(self, traced: Sample, spans, counters) -> float:
        return sum(
            spans.get(name, 0.0) for name in (
                "replay.record", "replay.point", "replay.validate",
                "campaign.execute", "campaign.serialize",
            )
        ) + counters.get("campaign.sink_write_s", 0.0)


WORKLOADS = {
    cls.name: cls
    for cls in (Fig5Sweep, SocCaseStudy, EquivalenceCampaign, DenseSweep)
}


def make_workload(name: str, seed: int, scale: str):
    return WORKLOADS[name](seed, SCALES[scale])


# ---------------------------------------------------------------------------
# The traced pass
# ---------------------------------------------------------------------------
def sideband_totals(events) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Summed span durations and counter values, by name."""
    spans: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for event in events:
        name = event.get("name")
        if event["kind"] == "span":
            spans[name] = spans.get(name, 0.0) + event["dur_s"]
        elif event["kind"] == "counter":
            counters[name] = counters.get(name, 0) + event["value"]
    return spans, counters


def sideband_layers(spans, counters) -> Dict[str, float]:
    """Every per-layer metric the sideband alone defines; 0 elsewhere."""
    span_ops = counters.get("fifo.burst_span_writes", 0) + counters.get(
        "fifo.burst_span_reads", 0)
    word_ops = counters.get("fifo.burst_word_writes", 0) + counters.get(
        "fifo.burst_word_reads", 0)
    points = counters.get("replay.points_replayed", 0)
    layers = dict.fromkeys(LAYER_METRICS, 0)
    layers.update({
        "kernel.delta_cycles": counters.get("kernel.delta_cycles", 0),
        "kernel.timed_phases": counters.get("kernel.timed_phases", 0),
        "kernel.method_invocations": counters.get("kernel.method_invocations", 0),
        "kernel.elaborate_s": spans.get("kernel.elaborate", 0.0),
        "kernel.schedule_s": spans.get("kernel.schedule", 0.0),
        "kernel.delta_loop_s": counters.get("kernel.delta_loop_s", 0.0),
        "kernel.timed_loop_s": counters.get("kernel.timed_loop_s", 0.0),
        "fifo.span_fraction": _ratio(span_ops, span_ops + word_ops),
        "fifo.words_per_mutation": _ratio(
            counters.get("fifo.span_words", 0), counters.get("fifo.cell_mutations", 0)
        ),
        "campaign.jobs": counters.get("campaign.jobs_done", 0),
        "campaign.execute_s": spans.get("campaign.execute", 0.0),
        "campaign.serialize_s": spans.get("campaign.serialize", 0.0),
        "campaign.queue_wait_s": spans.get("campaign.queue_wait", 0.0),
        "campaign.recombine_s": counters.get("campaign.recombine_s", 0.0),
        "campaign.sink_write_s": counters.get("campaign.sink_write_s", 0.0),
        "replay.points_replayed": points,
        "replay.record_s": spans.get("replay.record", 0.0),
        "replay.validate_s": spans.get("replay.validate", 0.0),
        "replay.us_per_point": _ratio(spans.get("replay.point", 0.0) * 1e6, points),
    })
    return layers


def traced_iteration(workload, workdir: str) -> Tuple[Sample, Dict[str, float], Dict[str, float]]:
    """One iteration with telemetry on; returns it with its span and
    counter totals."""
    telemetry_dir = tempfile.mkdtemp(prefix="telemetry-", dir=workdir)
    path = os.path.join(telemetry_dir, MERGED_TELEMETRY)
    sample = timed_iteration(lambda: workload.iteration(workdir, telemetry_dir))
    spans, counters = sideband_totals(load_events(path))
    return sample, spans, counters


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
def measure(workload, seconds: float, trace: bool, workdir: str) -> Dict[str, object]:
    """Warm up, run whole iterations for ``seconds``, optionally trace one.

    Every iteration, the traced one included, must reproduce the warm-up's
    deterministic counts; that is one more oracle per iteration."""
    warmup = workload.iteration(workdir)
    samples: List[Sample] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        # Every iteration starts from a collected heap, so the garbage of
        # the previous one neither costs it time nor lifts its peak RSS.
        gc.collect()
        samples.append(timed_iteration(lambda: workload.iteration(workdir)))
    checked = [warmup] + samples
    # Read before the traced pass, which is not part of the measurement.
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    layers = detail = None
    if trace:
        gc.collect()
        traced, spans, counters = traced_iteration(workload, workdir)
        checked.append(traced)
        layers = sideband_layers(spans, counters)
        extra, detail = workload.layers(traced, samples, spans, counters, workdir)
        layers.update(extra)
        layers["telemetry.overhead"] = traced.wall_s / statistics.median(
            sample.wall_s for sample in samples
        )
        layers["unattributed_s"] = traced.wall_s - workload.attributed_s(
            traced, spans, counters
        )
    deterministic = [sample.counts == warmup.counts for sample in checked[1:]]
    return {
        "iterations": len(samples),
        "wall_s": [sample.wall_s for sample in samples],
        "cpu_s": [sample.cpu_s for sample in samples],
        "context_switches": [sample.counts["context_switches"] for sample in samples],
        "attempted": sum(s.attempted for s in checked) + len(deterministic),
        "failed": sum(s.failed for s in checked) + deterministic.count(False),
        "peak_rss_mb": peak_kb / 1024.0,
        "layers": layers,
        "detail": detail,
    }


def main(argv: List[str]) -> int:
    command, name, seed = argv[0], argv[1], int(argv[2])
    if command == "probe":
        make_workload(name, seed, argv[3]).probe()
        print("ready", flush=True)
        return 0
    if command == "measure":
        seconds, trace, scale, workdir = float(argv[3]), argv[4] == "1", argv[5], argv[6]
        document = measure(make_workload(name, seed, scale), seconds, trace, workdir)
        print(json.dumps(document))
        return 0
    raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
