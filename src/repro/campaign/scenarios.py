"""Workload builders of the campaign registry, plus the default campaign.

Each builder turns a :class:`~repro.campaign.spec.ScenarioSpec` into a
ready-to-run scenario inside a caller-provided
:class:`~repro.kernel.simulator.Simulator`.  All builders honour the same
contract:

* ``mode="reference"`` builds the regular-FIFO, non-decoupled twin and
  ``mode="smart"`` the Smart-FIFO, temporally decoupled one;
* every randomized knob derives from ``spec.seed`` only;
* the ``extras`` hook returns *deterministic* JSON-serializable values
  (dates, checksums, counters — never wall-clock), because the campaign
  guarantees byte-identical aggregated results regardless of worker count.

``params`` keys per workload:

* ``writer_reader`` — ``values`` (count of transferred values);
* ``streaming`` — ``n_blocks``, ``words_per_block``;
* ``video`` — ``n_frames``, ``macroblocks_per_frame``;
* ``random_traffic`` — any :class:`RandomTrafficConfig` field except
  ``seed``/``fifo_depth`` (taken from the spec);
* ``bursty`` — any :class:`BurstyConfig` field except ``seed``/``fifo_depth``;
* ``contention`` — any :class:`ContentionConfig` field except
  ``seed``/``fifo_depth``;
* ``soc`` — ``n_chains``, ``workers_per_chain``, ``items_per_chain``,
  ``packet_size``, ``monitor_repetitions``, ``monitor_period_ns`` (the
  mesh height follows ``n_chains`` as in :meth:`SocConfig.benchmark`);
* ``noc_stress`` — any :class:`NocStressConfig` field except
  ``seed``/``fifo_depth``;
* ``packet_stream`` — any :class:`PacketStreamConfig` field except
  ``seed``/``fifo_depth``;
* ``mixed`` — any :class:`MixedTopologyConfig` field except
  ``seed``/``fifo_depth``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..kernel.simtime import TimeUnit
from ..kernel.simulator import Simulator
from ..soc.platform import FifoPolicy, SocConfig, SocPlatform
from ..td.quantum import GlobalQuantum
from ..workloads.bursty import BurstyConfig, BurstyScenario
from ..workloads.contention import ArbiterContentionScenario, ContentionConfig
from ..workloads.fault_drop import FaultDropConfig, FaultDropScenario
from ..workloads.mixed import MixedTopologyConfig, MixedTopologyScenario
from ..workloads.noc_stress import NocStressConfig, NocStressScenario
from ..workloads.packet_stream import PacketStreamConfig, PacketStreamScenario
from ..workloads.random_traffic import RandomTrafficConfig, RandomTrafficScenario
from ..workloads.streaming import (
    ExampleMode,
    PipelineModel,
    StreamingConfig,
    StreamingPipeline,
    WriterReaderExample,
)
from ..workloads.video import VideoConfig, VideoPipeline
from .spec import (
    MODE_SMART,
    BuiltScenario,
    ScenarioSpec,
    register_workload,
    workload_entry,
)


def _ns(time) -> float:
    return time.to(TimeUnit.NS) if time is not None else -1.0


def _reject_timing_override(spec: ScenarioSpec) -> None:
    if spec.timing is not None:
        raise ValueError(
            f"spec {spec.name}: workload {spec.workload!r} does not support "
            f"the timing override {spec.timing!r}"
        )


def _config_param_keys(config_cls) -> tuple:
    """Param keys for config-dataclass workloads: every field except the
    ones the spec itself carries (seed, fifo_depth)."""
    return tuple(
        key
        for key in config_cls.__dataclass_fields__
        if key not in ("seed", "fifo_depth")
    )


def _config_from_spec(config_cls, spec: ScenarioSpec):
    """Build a seed/depth-carrying workload config from the spec params."""
    fields = {
        key: int(value)
        for key, value in spec.params.items()
        if key in _config_param_keys(config_cls)
    }
    return config_cls(seed=spec.seed, fifo_depth=spec.depth, **fields)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
@register_workload(
    "writer_reader",
    description="Fig. 1/2/3 didactic writer/reader example",
    param_keys=("values",),
)
def build_writer_reader(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    mode = ExampleMode.SMART if spec.mode == MODE_SMART else ExampleMode.REFERENCE
    count = int(spec.params.get("values", 3))
    example = WriterReaderExample(
        sim, mode=mode, fifo_depth=spec.depth, values=tuple(range(1, count + 1))
    )
    return BuiltScenario(
        scenario=example,
        extras=lambda: {
            "dates_ns": [list(row) for row in example.dates_ns()],
        },
    )


@register_workload(
    "streaming",
    description="Fig. 5 source -> transmitter -> sink pipeline",
    param_keys=("n_blocks", "words_per_block"),
)
def build_streaming(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    config = StreamingConfig(
        n_blocks=int(spec.params.get("n_blocks", 10)),
        words_per_block=int(spec.params.get("words_per_block", 25)),
        fifo_depth=spec.depth,
    )
    if spec.timing == "untimed":
        model = PipelineModel.UNTIMED
    elif spec.timing == "quantum":
        GlobalQuantum.instance(sim).set(spec.quantum_ns, TimeUnit.NS)
        model = PipelineModel.QUANTUM
    elif spec.mode == MODE_SMART:
        model = PipelineModel.TDFULL
    else:
        model = PipelineModel.TDLESS
    pipeline = StreamingPipeline(sim, model, config, burst=spec.burst)
    return BuiltScenario(
        scenario=pipeline,
        verify=pipeline.verify,
        extras=lambda: {
            "completion_ns": _ns(pipeline.completion_time),
            "checksum": pipeline.checksum,
        },
    )


@register_workload(
    "video",
    description="video-decoder-like accelerator chain",
    param_keys=("n_frames", "macroblocks_per_frame"),
)
def build_video(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = VideoConfig(
        n_frames=int(spec.params.get("n_frames", 2)),
        macroblocks_per_frame=int(spec.params.get("macroblocks_per_frame", 12)),
        fifo_depth=spec.depth,
    )
    pipeline = VideoPipeline(
        sim, decoupled=spec.mode == MODE_SMART, config=config, burst=spec.burst
    )

    def verify() -> None:
        assert pipeline.display.items_processed == config.total_items

    return BuiltScenario(
        scenario=pipeline,
        verify=verify,
        extras=lambda: {
            "completion_ns": _ns(pipeline.completion_time),
            "frame_dates_ns": [_ns(date) for date in pipeline.frame_dates],
        },
    )


@register_workload(
    "random_traffic",
    description="seeded random producer/consumer + monitor",
    param_keys=_config_param_keys(RandomTrafficConfig),
)
def build_random_traffic(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(RandomTrafficConfig, spec)
    scenario = RandomTrafficScenario(
        sim, decoupled=spec.mode == MODE_SMART, config=config, burst=spec.burst
    )

    def verify() -> None:
        assert len(scenario.consumed_values) == config.item_count

    return BuiltScenario(
        scenario=scenario,
        verify=verify,
        extras=lambda: {
            "consumed_checksum": sum(scenario.consumed_values),
            "monitor_samples": [
                [_ns(date), size] for date, size in scenario.monitor_samples
            ],
        },
    )


@register_workload(
    "bursty",
    description="seeded bursty producer, steady consumer",
    param_keys=_config_param_keys(BurstyConfig),
)
def build_bursty(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(BurstyConfig, spec)
    scenario = BurstyScenario(
        sim, decoupled=spec.mode == MODE_SMART, config=config, burst=spec.burst
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "total_items": config.total_items,
            "consumed_checksum": sum(scenario.consumed_values),
        },
    )


@register_workload(
    "contention",
    pairable=False,
    description="multi-writer/multi-reader Smart FIFO arbiter contention",
    param_keys=_config_param_keys(ContentionConfig),
)
def build_contention(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    if spec.mode != MODE_SMART:
        raise ValueError(
            f"spec {spec.name}: the contention scenario has no reference twin "
            "(arbitration delays are a property of the decoupled schedule); "
            "its oracle is ArbiterContentionScenario.verify"
        )
    config = _config_from_spec(ContentionConfig, spec)
    scenario = ArbiterContentionScenario(sim, config, burst=spec.burst)

    def verify() -> None:
        scenario.verify()
        assert scenario.arbitration_happened

    return BuiltScenario(
        scenario=scenario,
        verify=verify,
        extras=lambda: {
            "write_arbitrated": scenario.write_arbiter.arbitrated_accesses,
            "read_arbitrated": scenario.read_arbiter.arbitrated_accesses,
            "last_write_grant_fs": scenario.write_arbiter.last_grant_fs,
            "last_read_grant_fs": scenario.read_arbiter.last_grant_fs,
        },
    )


@register_workload(
    "fault_drop",
    description="seeded dropped-packet fault the paired diff must flag",
    param_keys=_config_param_keys(FaultDropConfig),
)
def build_fault_drop(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    """Negative-path coverage for the Section IV-A methodology.

    Pairable on purpose: the smart run drops one seeded value, so a paired
    campaign containing a ``fault_drop`` spec must come back with
    ``equivalent=False`` for it (trace diff *and* checksum extras) — if it
    ever reports equivalence, the validation pipeline itself is broken.
    Not part of :func:`default_campaign` for exactly that reason.
    """
    _reject_timing_override(spec)
    config = _config_from_spec(FaultDropConfig, spec)
    scenario = FaultDropScenario(
        sim, decoupled=spec.mode == MODE_SMART, config=config,
        burst=spec.burst,
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "consumed_checksum": scenario.checksum(),
            "consumed_count": len(scenario.consumer.values),
        },
    )


@register_workload(
    "noc_stress",
    description="NoC-only router stress: mesh cross-traffic, arbitration oracle",
    param_keys=_config_param_keys(NocStressConfig),
)
def build_noc_stress(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(NocStressConfig, spec)
    scenario = NocStressScenario(
        sim, config, sync_on_access=spec.mode != MODE_SMART, burst=spec.burst
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "packets_routed": scenario.total_packets_routed,
            "router_packets": {
                f"{x}_{y}": router.packets_routed
                for (x, y), router in sorted(scenario.mesh.routers.items())
            },
            "checksums": scenario.checksums(),
            "finish_dates_ns": scenario.consumer_finish_dates_ns(),
        },
    )


@register_workload(
    "packet_stream",
    description="packet-granularity Smart FIFO API vs a word-level oracle",
    param_keys=_config_param_keys(PacketStreamConfig),
)
def build_packet_stream(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(PacketStreamConfig, spec)
    scenario = PacketStreamScenario(
        sim, config, sync_on_access=spec.mode != MODE_SMART,
        burst=spec.burst,
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "checksum": scenario.checksum(),
            "packet_dates_ns": list(scenario.consumer.packet_dates_ns),
            "packets_relayed": scenario.relay.packets_relayed,
        },
    )


@register_workload(
    "mixed",
    description="mixed smart/regular topology with one domain boundary",
    param_keys=_config_param_keys(MixedTopologyConfig),
)
def build_mixed(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    config = _config_from_spec(MixedTopologyConfig, spec)
    scenario = MixedTopologyScenario(
        sim, decoupled=spec.mode == MODE_SMART, config=config,
        burst=spec.burst,
    )
    return BuiltScenario(
        scenario=scenario,
        verify=scenario.verify,
        extras=lambda: {
            "checksum": scenario.checksum(),
            "completion_ns": scenario.completion_ns(),
        },
    )


@register_workload(
    "soc",
    pairable=False,
    description="Section IV-C heterogeneous many-core SoC case study",
    param_keys=("n_chains", "workers_per_chain", "items_per_chain", "packet_size",
                "monitor_repetitions", "monitor_period_ns"),
)
def build_soc(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    _reject_timing_override(spec)
    # The case study's platform (its mesh grows with n_chains), resized.
    config = replace(
        SocConfig.benchmark(
            n_chains=int(spec.params.get("n_chains", 2)),
            items_per_chain=int(spec.params.get("items_per_chain", 64)),
        ),
        workers_per_chain=int(spec.params.get("workers_per_chain", 2)),
        packet_size=int(spec.params.get("packet_size", 4)),
        fifo_depth=spec.depth,
        monitor_repetitions=int(spec.params.get("monitor_repetitions", 2)),
        monitor_period_ns=int(spec.params.get("monitor_period_ns", 1500)),
    )
    config.validate()
    policy = FifoPolicy.SMART if spec.mode == MODE_SMART else FifoPolicy.SYNC_PER_ACCESS
    platform = SocPlatform(sim, policy=policy, config=config)
    return BuiltScenario(
        scenario=platform,
        verify=platform.verify,
        extras=lambda: {
            "consumer_finish_ns": {
                name: _ns(date)
                for name, date in sorted(platform.consumer_finish_times().items())
            },
            "noc_packets": platform.mesh.total_packets_routed,
            "fifo_blocking_waits": platform.fifo_blocking_waits(),
        },
    )


def build_scenario(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    """Validate ``spec`` (including its params keys) and build it in ``sim``."""
    spec.validate()
    entry = workload_entry(spec.workload)
    unknown = sorted(set(spec.params) - set(entry.param_keys))
    if unknown:
        raise ValueError(
            f"spec {spec.name}: unknown param(s) {', '.join(unknown)} for "
            f"workload {spec.workload!r}; accepted: "
            f"{', '.join(entry.param_keys) or '(none)'}"
        )
    return entry.builder(sim, spec)


# ---------------------------------------------------------------------------
# The default campaign
# ---------------------------------------------------------------------------
def default_campaign(burst: bool = True) -> List[ScenarioSpec]:
    """The stock sweep: every registered workload, several depths/seeds.

    ``burst=True`` (the default since every workload honours the span
    helpers) runs the specs with burst FIFO transfers — bit-exact with the
    word-by-word schedule, so fingerprints are unchanged; pass
    ``burst=False`` (CLI: ``--no-burst``) for the historical word loops.

    19 specs; the 15 pairable ones double as the Section IV-A equivalence
    battery (reference vs Smart trace diff) — including the NoC router
    stress, the packet-granularity FIFO stream and the mixed smart/regular
    topology, which cover the case-study half of the paper.  The four
    non-pairable ones carry their own oracles: the contention specs are
    checked by the arbiter invariants, the quantum spec by its completion
    bookkeeping, and the SoC spec by ``SocPlatform.verify`` (its
    cross-policy timing equivalence is asserted by the integration suite
    and the case-study benchmark, which compare finish dates rather than
    traces).
    """
    specs = [
        ScenarioSpec("writer_reader_d1", "writer_reader", depth=1),
        ScenarioSpec("writer_reader_d4", "writer_reader", depth=4,
                     params={"values": 6}),
        ScenarioSpec("streaming_d2", "streaming", depth=2,
                     params={"n_blocks": 6, "words_per_block": 25}),
        ScenarioSpec("streaming_d8", "streaming", depth=8,
                     params={"n_blocks": 6, "words_per_block": 25}),
        ScenarioSpec("streaming_quantum_d8", "streaming", depth=8,
                     timing="quantum", quantum_ns=1000,
                     params={"n_blocks": 6, "words_per_block": 25}),
        ScenarioSpec("video_d2", "video", depth=2,
                     params={"n_frames": 2, "macroblocks_per_frame": 12}),
        ScenarioSpec("video_d8", "video", depth=8,
                     params={"n_frames": 3, "macroblocks_per_frame": 16}),
        ScenarioSpec("random_s7_d3", "random_traffic", depth=3, seed=7),
        ScenarioSpec("random_s11_d1", "random_traffic", depth=1, seed=11),
        ScenarioSpec("bursty_s3_d4", "bursty", depth=4, seed=3),
        ScenarioSpec("bursty_s5_d2", "bursty", depth=2, seed=5),
        ScenarioSpec("contention_3w3r", "contention", depth=8, seed=5),
        ScenarioSpec("contention_4w3r", "contention", depth=6, seed=9,
                     params={"n_writers": 4, "items_per_writer": 15}),
        ScenarioSpec("noc_stress_2x2", "noc_stress", depth=4, seed=5,
                     params={"packets_per_stream": 4}),
        ScenarioSpec("noc_stress_3x2", "noc_stress", depth=4, seed=11,
                     params={"mesh_width": 3, "packets_per_stream": 4}),
        ScenarioSpec("packet_stream_p2", "packet_stream", depth=4, seed=7),
        ScenarioSpec("packet_stream_p4", "packet_stream", depth=4, seed=13,
                     params={"packet_size": 4, "n_packets": 8}),
        ScenarioSpec("mixed_d3", "mixed", depth=3, seed=6,
                     params={"item_count": 24}),
        ScenarioSpec("soc_2x64", "soc", depth=8,
                     params={"n_chains": 2, "items_per_chain": 64}),
    ]
    if burst:
        specs = [
            replace(spec, burst=True, params=dict(spec.params))
            for spec in specs
        ]
    return specs
