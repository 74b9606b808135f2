"""The unified campaign planner: spec + store -> explicit Plan.

:class:`Planner` is the single place campaign work is resolved:

1. enumerate every (benchmark, config, map_index) point the
   :class:`~repro.campaign.spec.CampaignSpec` needs,
2. collapse duplicate content-hash keys and drop points already in the
   result store (*dedup holes* — a resumed campaign plans only its
   missing lanes),
3. group the remainder into :class:`PlanGroup`\\ s keyed by
   ``(trace, batch signature)`` — cross-point mega-batches.

The resulting :class:`Plan` is a frozen value consumed *identically* by
the serial and process-pool executors (the pool ships each group to a
worker as one dispatch unit), rendered by the CLI's ``--dry-run``, and
asserted on by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments.configs import RunConfig

from repro.campaign.spec import CampaignSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session plans us)
    from repro.campaign.session import Session

#: One pool dispatch task: (benchmark, config, map_index-or-None).
Task = tuple[str, RunConfig, "int | None"]


@dataclass(frozen=True)
class WorkItem:
    """One pending simulation point, resolved to its store key."""

    benchmark: str
    config: RunConfig
    map_index: int | None
    key: str

    @property
    def task(self) -> Task:
        return (self.benchmark, self.config, self.map_index)


@dataclass(frozen=True)
class PlanGroup:
    """One executable unit of a plan: pending work items sharing a
    benchmark trace.

    ``merged`` groups are cross-point mega-batches — every lane shares
    one non-``None`` batch ``signature`` and is driven through a single
    schedule pass.  The unmerged group (``signature`` ``None``) holds a
    trace's unvectorisable lanes, which run sequentially, one pass each.
    """

    benchmark: str
    merged: bool
    items: tuple[WorkItem, ...]
    #: Session-local batch signature tuple — or, on a plan decoded from
    #: the event wire, its content-hash digest string (see
    #: ``repro.campaign.events.signature_digest``).
    signature: "tuple | str | None" = None

    def __len__(self) -> int:
        return len(self.items)

    @property
    def labels(self) -> tuple[str, ...]:
        """Distinct config labels in the group, first-seen order."""
        return tuple(dict.fromkeys(item.config.label for item in self.items))


@dataclass(frozen=True)
class Plan:
    """A resolved campaign: what will run, what the store already holds,
    and how the work is grouped into schedule passes."""

    spec: CampaignSpec
    groups: tuple[PlanGroup, ...]
    #: Distinct content-hash points the spec needs (store hits included).
    total_points: int
    #: Of those, already in the result store when the plan was resolved.
    dedup_hits: int
    #: Schedule passes the groups will cost as planned (mirrors the
    #: executors' pass accounting; store races can only lower it).
    predicted_passes: int

    @property
    def pending(self) -> int:
        """Simulations the plan will actually execute."""
        return sum(len(group) for group in self.groups)

    def describe(self) -> str:
        """Multi-line human rendering (the CLI's ``--dry-run`` output)."""
        lines = [self.spec.describe()]
        lines.append(
            f"  work items : {self.total_points} "
            f"({self.dedup_hits} already in store, {self.pending} to simulate)"
        )
        merged = sum(1 for g in self.groups if g.merged)
        lines.append(
            f"  groups     : {len(self.groups)} "
            f"({merged} mega-batched, {len(self.groups) - merged} per-point)"
        )
        lines.append(f"  predicted schedule passes: {self.predicted_passes}")
        for i, group in enumerate(self.groups, 1):
            kind = "mega" if group.merged else "point"
            labels = ", ".join(group.labels)
            lines.append(
                f"  [{i:>3}] {group.benchmark}: {len(group)} lane(s) "
                f"[{kind}] {labels}"
            )
        if not self.groups:
            lines.append("  nothing to simulate (pure store hits)")
        return "\n".join(lines)


class Planner:
    """Resolves :class:`CampaignSpec`\\ s against a session's result store.

    The planner borrows the session's key/signature caches (content-hash
    task keys, per-config batch signatures) but never simulates:
    resolving a plan costs a store lookup per work item plus one
    representative pipeline build per new configuration."""

    def __init__(self, session: "Session") -> None:
        self.session = session

    def resolve(self, spec: CampaignSpec) -> Plan:
        """The explicit :class:`Plan` for ``spec`` against the session's
        store, grouped exactly as the executors will run it."""
        session = self.session
        groups: dict[tuple, list[WorkItem]] = {}
        order: list[tuple] = []
        seen_keys: set[str] = set()
        total = 0
        dedup = 0
        # Enumeration is single-sourced: the spec's work_items() order is
        # the plan order (and the task_keys() order the store contract
        # pins); the planner only adds store dedup and grouping.
        for benchmark, config, m in spec.work_items():
            key = session.task_key(benchmark, config, m)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            total += 1
            if key in session.store:
                dedup += 1
                continue
            group_key = (benchmark, session.batch_signature(config))
            if group_key not in groups:
                groups[group_key] = []
                order.append(group_key)
            groups[group_key].append(WorkItem(benchmark, config, m, key))
        plan_groups = tuple(
            PlanGroup(
                benchmark=benchmark,
                merged=signature is not None,
                items=tuple(groups[benchmark, signature]),
                signature=signature,
            )
            for benchmark, signature in order
        )
        return Plan(
            spec=spec,
            groups=plan_groups,
            total_points=total,
            dedup_hits=dedup,
            predicted_passes=sum(
                self._group_passes(group) for group in plan_groups
            ),
        )

    @staticmethod
    def _group_passes(group: PlanGroup) -> int:
        """Schedule passes executing ``group`` will cost, mirroring
        ``Session.run_group``: one per mega-batch, one per lane of the
        sequential group."""
        return len(group) if group.signature is None else 1
