"""Parallel experiment-campaign engine.

The paper validates the Smart FIFO by running every scenario in two modes
(regular FIFO without temporal decoupling, Smart FIFO with temporal
decoupling) and diffing the locally-timestamped traces (Section IV-A).
This package turns that one-simulation-at-a-time methodology into a
campaign-scale engine:

* :mod:`repro.campaign.spec` — declarative :class:`ScenarioSpec`
  descriptions (workload kind, FIFO policy/mode, depth, quantum, seed,
  timing mode, workload params; the field reference lives in that module's
  docstring) and the workload registry;
* :mod:`repro.campaign.scenarios` — builders for every repository workload
  (writer/reader, streaming, video, random traffic, bursty, arbiter
  contention, SoC case study) plus :func:`default_campaign`;
* :mod:`repro.campaign.runner` — the :class:`CampaignRunner`, which shards
  specs across a :mod:`multiprocessing` pool (each worker owns a private
  :class:`~repro.kernel.simulator.Simulator`), and the paired
  reference/Smart equivalence campaign built on
  :mod:`repro.analysis.trace_diff`;
* :mod:`repro.campaign.orchestrator` — the distributed layer: the
  ``COSTS.json`` wall-time cost model, the cost-balanced
  ``--shard-by-cost`` partitioner, wall-clock run budgets with
  deterministic ``timeout`` rows, and the multi-host
  :class:`~repro.campaign.orchestrator.Orchestrator` driving local or
  ssh hosts through the same launch/poll/collect protocol.

The aggregated result is **byte-identical for any worker count** — the
deterministic rows carry simulated dates, kernel counters and trace digests
only — so ``CampaignResult.fingerprint()`` is a stable handle for
regression tracking.

Entry points: ``python -m repro.analysis.cli campaign --workers 4`` and the
``campaign.*`` metric of ``benchmarks/bench_harness.py``.
"""

from .evaluators import (
    ReplayEvaluator,
    ReplaySweepResult,
    ValidationRecord,
    compare_replay_to_spool,
    record_spool,
    replay_group_key,
    run_replay_sweep,
    sweep_point_specs,
)
from .orchestrator.budget import RunBudget, TimeoutRecord
from .orchestrator.costs import CostModel
from .runner import (
    DEFAULT_TRACE_SINK,
    CampaignResumeError,
    CampaignResult,
    CampaignRunner,
    JsonlSink,
    PairHalf,
    PairRecord,
    SpecRunRecord,
    combine_pair,
    diff_pair_streaming,
    execute_half,
    execute_pair,
    execute_paired_spec,
    execute_spec,
    load_resume_state,
    merge_jsonl,
    parse_jsonl_rows,
)
from .scenarios import build_scenario, default_campaign
from .spec import (
    MODE_REFERENCE,
    MODE_SMART,
    BuiltScenario,
    ScenarioSpec,
    WorkloadEntry,
    describe_specs,
    register_workload,
    registered_workloads,
    spec_is_pairable,
    workload_entry,
)

__all__ = [
    "BuiltScenario",
    "CampaignResumeError",
    "CampaignResult",
    "CampaignRunner",
    "CostModel",
    "JsonlSink",
    "ReplayEvaluator",
    "ReplaySweepResult",
    "ValidationRecord",
    "compare_replay_to_spool",
    "record_spool",
    "replay_group_key",
    "run_replay_sweep",
    "sweep_point_specs",
    "RunBudget",
    "TimeoutRecord",
    "MODE_REFERENCE",
    "MODE_SMART",
    "PairHalf",
    "PairRecord",
    "ScenarioSpec",
    "SpecRunRecord",
    "WorkloadEntry",
    "build_scenario",
    "DEFAULT_TRACE_SINK",
    "combine_pair",
    "default_campaign",
    "describe_specs",
    "diff_pair_streaming",
    "execute_half",
    "load_resume_state",
    "execute_pair",
    "execute_paired_spec",
    "execute_spec",
    "merge_jsonl",
    "parse_jsonl_rows",
    "register_workload",
    "registered_workloads",
    "spec_is_pairable",
    "workload_entry",
]
