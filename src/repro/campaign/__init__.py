"""Campaign API v2: declarative specs, a unified planner, and a
streaming Session facade.

The campaign layer turns experiment sweeps into data plus one execution
seam:

* :class:`~repro.campaign.spec.CampaignSpec` — a frozen,
  JSON-round-trippable description of a campaign (benchmarks, Table III
  configurations, fault-map count, fidelity fields, figure tag).
* :class:`~repro.campaign.plan.Planner` /
  :class:`~repro.campaign.plan.Plan` — the single place a spec is
  resolved against a result store into explicit work: pending items,
  dedup holes, and ``(trace, batch signature)`` mega-batch groups that
  the serial and process-pool executors consume identically.
* :class:`~repro.campaign.session.Session` — opens store, trace cache,
  and fault maps once; ``session.run(spec)`` streams typed
  :mod:`~repro.campaign.events` with schedule-pass counters through a
  pluggable :class:`~repro.campaign.executors.Executor`.

The ``campaign`` smoke (``benchmarks/ci_smokes.py campaign``) pins a
Session's figure JSON byte-for-byte against a committed golden.
"""

from repro.campaign.events import (
    BatchProposed,
    Converged,
    Event,
    PlanReady,
    PointResult,
    Progress,
    SurrogateFit,
    TaskFailed,
    TaskRetried,
    WorkerCrashed,
    signature_digest,
)
from repro.campaign.executors import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    adaptive_chunksize,
)
from repro.campaign.plan import Plan, PlanGroup, Planner, Task, WorkItem
from repro.campaign.resilience import CampaignError, Quarantined, RetryPolicy
from repro.campaign.session import NormalizedSeries, Session
from repro.campaign.spec import (
    CampaignSpec,
    RunnerSettings,
    config_from_dict,
    config_to_dict,
)

__all__ = [
    "CampaignSpec",
    "RunnerSettings",
    "config_to_dict",
    "config_from_dict",
    "Plan",
    "PlanGroup",
    "Planner",
    "Task",
    "WorkItem",
    "Session",
    "NormalizedSeries",
    "Event",
    "PlanReady",
    "PointResult",
    "Progress",
    "TaskRetried",
    "TaskFailed",
    "WorkerCrashed",
    "SurrogateFit",
    "BatchProposed",
    "Converged",
    "signature_digest",
    "RetryPolicy",
    "Quarantined",
    "CampaignError",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "adaptive_chunksize",
]
