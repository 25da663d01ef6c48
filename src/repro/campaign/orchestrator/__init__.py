"""Distributed campaign orchestrator.

Turns the single-pool :class:`~repro.campaign.runner.CampaignRunner` into
a multi-host campaign engine, in four parts:

* :mod:`~repro.campaign.orchestrator.costs` — per-spec wall-time
  estimates learned from the ``COSTS.json`` sideband (wall clock stays
  out of the deterministic JSONL rows) with a static heuristic fallback;
* :mod:`~repro.campaign.orchestrator.partition` — the deterministic LPT
  cost-balanced partitioner behind ``--shard-by-cost i/N``;
* :mod:`~repro.campaign.orchestrator.budget` — per-spec and per-campaign
  wall-clock limits (``--spec-timeout`` / ``--campaign-budget``), the
  process executor of long-lived, killable workers and the deterministic
  ``timeout`` JSONL row;
* :mod:`~repro.campaign.orchestrator.hosts` /
  :mod:`~repro.campaign.orchestrator.transport` — host descriptions and
  the pluggable launch/poll/collect protocol
  (:class:`LocalSubprocessTransport`, :class:`SshTransport`) driven by
  the :class:`Orchestrator`, which merges the collected shard JSONLs to
  the byte-identical unsharded fingerprint.

Entry points: ``python -m repro.analysis.cli orchestrate`` and
``make orchestrate-smoke``.
"""

from .budget import (
    SCOPE_CAMPAIGN,
    SCOPE_SPEC,
    RunBudget,
    TimeoutRecord,
    run_with_budget,
)
from .costs import HEURISTIC_WEIGHTS, CostModel
from .hosts import HostSpec, local_hosts, parse_hosts_file
from .partition import cost_shards, estimated_makespans, makespan_spread
from .transport import (
    HostRun,
    HostTransport,
    LocalSubprocessTransport,
    Orchestrator,
    OrchestratorError,
    OrchestratorResult,
    SshTransport,
    make_transport,
)

__all__ = [
    "CostModel",
    "HEURISTIC_WEIGHTS",
    "HostRun",
    "HostSpec",
    "HostTransport",
    "LocalSubprocessTransport",
    "Orchestrator",
    "OrchestratorError",
    "OrchestratorResult",
    "RunBudget",
    "SCOPE_CAMPAIGN",
    "SCOPE_SPEC",
    "SshTransport",
    "TimeoutRecord",
    "cost_shards",
    "estimated_makespans",
    "local_hosts",
    "make_transport",
    "makespan_spread",
    "parse_hosts_file",
    "run_with_budget",
]
