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
* :mod:`repro.campaign.runner` — the :class:`CampaignRunner`, which runs
  specs inline or on long-lived worker processes, one job per spec and
  mode, and recombines the reference and Smart records of each pairable
  spec into the paired Section IV-A check;
* :mod:`repro.campaign.evaluators` — how one spec is evaluated: simulated
  in a private :class:`~repro.kernel.simulator.Simulator`
  (:func:`execute_spec`), or priced by the record-and-replay router behind
  the runner's ``auto_replay`` pass, the one route of every sweep
  (``--auto-replay``, its ``--replay-sweep SPEC`` shorthand and
  ``fig5 --replay``);
* :mod:`repro.campaign.rows` — the deterministic run, pair and timeout
  records, their JSONL format, ``--resume``, :func:`merge_jsonl` and the
  aggregated :class:`CampaignResult`;
* :mod:`repro.campaign.executor` — the process executor of long-lived,
  killable workers behind every multi-worker campaign, and the wall-clock
  run budgets (``--spec-timeout`` / ``--campaign-budget``).

Importing the package loads the simulation layers only.  Each heavier
layer loads where a run first uses it: the replay engine with the first
routed sweep group, :mod:`multiprocessing` with the first pooled or
budgeted run, OpenSSL (:mod:`hashlib`) with the first trace digest or
``fingerprint()``, and the trace differ with the first mismatching pair.

The aggregated result is **byte-identical for any worker count** — the
deterministic rows carry simulated dates, kernel counters and trace digests
only — so ``CampaignResult.fingerprint()`` is a stable handle for
regression tracking.

Entry points: ``python -m repro.analysis.cli campaign --workers 4`` and
the ``equivalence_campaign`` / ``dense_sweep`` workloads of ``perfbench/``.
"""

from .evaluators import (
    DEFAULT_TRACE_SINK,
    ReplayEvaluator,
    ReplaySweepResult,
    compare_replay_to_spool,
    execute_spec,
    record_spool,
    replay_group_key,
    sweep_point_specs,
)
from .executor import RunBudget
from .rows import (
    CampaignResult,
    CampaignResumeError,
    PairRecord,
    SpecRunRecord,
    TimeoutRecord,
    merge_jsonl,
)
from .runner import CampaignRunner, combine_pair, diff_pair_streaming
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
    "ReplayEvaluator",
    "ReplaySweepResult",
    "compare_replay_to_spool",
    "record_spool",
    "replay_group_key",
    "sweep_point_specs",
    "RunBudget",
    "TimeoutRecord",
    "MODE_REFERENCE",
    "MODE_SMART",
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
    "execute_spec",
    "merge_jsonl",
    "register_workload",
    "registered_workloads",
    "spec_is_pairable",
    "workload_entry",
]
