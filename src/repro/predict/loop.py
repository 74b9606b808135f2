"""The active-learning driver: propose -> plan -> run -> retrain -> converge.

:class:`ActiveCampaign` wraps one reference
:class:`~repro.campaign.spec.CampaignSpec` (typically a paper figure's
full benchmarks x configs x ``n_fault_maps`` grid) and fills only as
much of it as the figure needs:

1. **Seed** — round 0 simulates the mandatory skeleton: every
   fault-independent cell (the normalisation baselines among them) and
   a short ``initial_maps`` prefix of every fault-dependent cell.
2. **Fit** — a :class:`~repro.predict.surrogate.Surrogate` learns
   normalized performance from the labeled items; unlabeled items get
   (mean, std) predictions; the mixed simulated+predicted figure
   estimate is computed.
3. **Propose** — an acquisition strategy
   (:mod:`~repro.predict.acquisition`) turns the uncertainty field into
   per-cell map-prefix extensions, emitted as ordinary campaign specs.
4. **Run** — each proposed spec streams through the Session surface
   (serial, pool, or a :meth:`Session.connect` remote — the driver
   never looks behind it).  Store task keys exclude ``n_fault_maps``,
   so partial-depth specs dedup exactly against the full grid and a
   follow-up full run is pure dedup.
5. **Converge** — the loop stops when the estimate moves less than
   ``tolerance`` for ``patience`` consecutive fits, the simulation
   budget is spent, the grid is exhausted, or a round yields nothing
   new (a stall, e.g. a read-only remote refusing work).

Everything is deterministic: given (store contents, spec, settings),
``run`` proposes byte-identical batches and reports byte-identical
estimates — locked by the hypothesis suite in ``tests/predict``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from repro.campaign.events import (
    BatchProposed,
    Converged,
    PointResult,
    SurrogateFit,
)
from repro.campaign.spec import CampaignSpec
from repro.experiments.configs import RunConfig
from repro.experiments.results import FigureResult

from repro.predict.acquisition import (
    STRATEGIES,
    CellView,
    Proposal,
    proposal_specs,
    propose_batch,
)
from repro.predict.features import Featurizer
from repro.predict.surrogate import Surrogate

#: Bump when PredictSettings' JSON shape changes incompatibly.
PREDICT_SCHEMA_VERSION = 1

#: One grid work item, in work-item canonical form.
Item = "tuple[str, RunConfig, int | None]"


@dataclass(frozen=True)
class PredictSettings:
    """Frozen, JSON-round-trippable knobs of one active campaign."""

    #: Stop once this fraction of the grid has been labeled.
    budget: float = 0.5
    #: New work items proposed per round.
    batch: int = 24
    #: Convergence threshold on the figure estimate's max movement.
    tolerance: float = 0.02
    #: Consecutive fits under tolerance before stopping.
    patience: int = 2
    strategy: str = "figure-error"
    #: Fault-map prefix every fault-dependent cell gets in the seed round.
    #: The CI smoke's fig8 slice measured this knob as the accuracy
    #: lever: 4 seeds every cell well enough that acquisition beats
    #: random sampling at equal budget (2 leaves cells the surrogate
    #: extrapolates badly from, and the std field never flags the bias).
    initial_maps: int = 4
    #: Largest per-cell extension one round may propose.
    maps_step: int = 3
    # Surrogate knobs (see repro.predict.surrogate.Surrogate).
    members: int = 8
    ridge: float = 1e-2
    knn: int = 5
    knn_weight: float = 0.6
    #: Seed for the surrogate's bootstrap and the random strategy —
    #: independent of the campaign's fault/trace seed.
    seed: int = 2010

    def __post_init__(self) -> None:
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r} (have: {STRATEGIES})"
            )
        if self.initial_maps < 1:
            raise ValueError("initial_maps must be >= 1")
        if self.maps_step < 1:
            raise ValueError("maps_step must be >= 1")
        # Surrogate constructor revalidates, but fail at settings time.
        Surrogate(self.members, self.ridge, self.knn, self.knn_weight, self.seed)

    def surrogate(self) -> Surrogate:
        return Surrogate(
            members=self.members,
            ridge=self.ridge,
            knn=self.knn,
            knn_weight=self.knn_weight,
            seed=self.seed,
        )

    # ----- JSON round-trip ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": PREDICT_SCHEMA_VERSION,
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PredictSettings":
        schema = data.get("schema", PREDICT_SCHEMA_VERSION)
        if schema != PREDICT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported predict settings schema {schema!r} "
                f"(this build reads {PREDICT_SCHEMA_VERSION})"
            )
        kwargs = {
            f.name: data[f.name]
            for f in dataclasses.fields(cls)
            if f.name in data
        }
        return cls(**kwargs)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PredictSettings":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class PredictReport:
    """What one active campaign concluded: the mixed figure estimate,
    how much of the grid it cost, and why the loop stopped."""

    spec: CampaignSpec
    settings: PredictSettings
    baseline_label: str
    benchmarks: tuple[str, ...]
    #: config label -> {"average": [...], "minimum": [... ] | None},
    #: aligned with ``benchmarks``.
    estimate: dict = field(default_factory=dict)
    rounds: int = 0
    simulated: int = 0
    labeled: int = 0
    total: int = 0
    predicted: int = 0
    delta: float | None = None
    reason: str = ""

    @property
    def coverage(self) -> float:
        """Fraction of the grid actually simulated by this loop."""
        return self.simulated / self.total if self.total else 1.0

    @property
    def labeled_fraction(self) -> float:
        """Fraction of the grid known (simulated here or store hits)."""
        return self.labeled / self.total if self.total else 1.0

    def to_dict(self) -> dict:
        return {
            "schema": PREDICT_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "settings": self.settings.to_dict(),
            "baseline": self.baseline_label,
            "benchmarks": list(self.benchmarks),
            "estimate": self.estimate,
            "rounds": self.rounds,
            "simulated": self.simulated,
            "labeled": self.labeled,
            "total": self.total,
            "predicted": self.predicted,
            "delta": self.delta,
            "reason": self.reason,
            "coverage": self.coverage,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def figure_result(self) -> FigureResult:
        """The estimated figure as a renderable table (generic series
        naming: ``<label> avg`` plus ``<label> min`` where the minimum
        series exists)."""
        figure_id = self.spec.figure or "predict"
        result = FigureResult(
            figure_id=f"{figure_id}-predicted",
            title=(
                f"Predicted {figure_id} from {self.coverage:.0%} of the grid "
                f"(normalized to {self.baseline_label!r})"
            ),
            index_label="benchmark",
            index=list(self.benchmarks),
            notes=(
                f"{self.simulated}/{self.total} points simulated, "
                f"{self.predicted} predicted; stopped on {self.reason} "
                f"after {self.rounds} round(s)"
            ),
        )
        for label, series in self.estimate.items():
            result.add_series(f"{label} avg", series["average"])
            if series["minimum"] is not None:
                result.add_series(f"{label} min", series["minimum"])
        return result


class ActiveCampaign:
    """One active-learning campaign over a reference spec's grid.

    ``session`` is anything with the Session surface: a local
    :class:`~repro.campaign.session.Session` (serial or pool executor),
    or the :class:`~repro.service.client.RemoteSession` from
    ``Session.connect``.  Local sessions at a different map depth are
    bridged with memoised ``session.derived`` sessions over the shared
    store, exactly as the campaign server does.
    """

    def __init__(
        self,
        session,
        spec: CampaignSpec,
        settings: PredictSettings | None = None,
        baseline: RunConfig | None = None,
        executor=None,
    ) -> None:
        self.session = session
        self.spec = spec
        self.settings = settings or PredictSettings()
        self.executor = executor
        self.baseline = self._resolve_baseline(baseline)
        base_settings = getattr(session, "settings", None)
        if base_settings is not None:
            # Keys must agree: fidelity may differ from the session only
            # in map depth (excluded from task keys) — anything else and
            # `cached` would read the wrong universe.
            theirs = dataclasses.replace(
                spec.settings(),
                benchmarks=base_settings.benchmarks,
                n_fault_maps=base_settings.n_fault_maps,
            )
            if theirs != base_settings:
                raise ValueError(
                    "spec fidelity differs from the session's settings "
                    "beyond map depth; open the session at the spec's "
                    "fidelity (store keys would not line up)"
                )
        self.featurizer = Featurizer(spec.settings())
        #: The full grid, in plan order.
        self.items: list = list(spec.work_items())
        self.total = len(self.items)
        self.configs: tuple[RunConfig, ...] = tuple(dict.fromkeys(spec.configs))
        self.budget_items = max(1, int(round(self.settings.budget * self.total)))
        #: item -> simulated cycles (simulated here or primed from store).
        self.labels: dict = {}
        #: Work items whose PointResult this loop paid for.
        self.simulated = 0
        self.rounds = 0
        self._X: np.ndarray | None = None
        self._pred: dict = {}
        self._estimate: dict = {}
        self._estimate_vec: np.ndarray | None = None
        self._converged: Converged | None = None
        self._derived: dict = {}

    def _resolve_baseline(self, baseline: RunConfig | None) -> RunConfig:
        configs = tuple(dict.fromkeys(self.spec.configs))
        if baseline is None:
            for config in configs:
                if not config.needs_fault_map:
                    return config
            raise ValueError(
                "no fault-independent configuration in the spec to "
                "normalize against; pass baseline= explicitly"
            )
        if baseline not in configs:
            raise ValueError(
                f"baseline {baseline.label!r} is not part of the spec"
            )
        if baseline.needs_fault_map:
            raise ValueError("normalisation baseline must be fault-independent")
        return baseline

    # ----- session plumbing -----------------------------------------------------

    def close(self) -> None:
        """Close the depth-bridging sessions this loop opened (never the
        caller's session or its store)."""
        for derived in self._derived.values():
            derived.owns_store = False
            derived.close()
        self._derived.clear()

    def _runner_for(self, spec: CampaignSpec):
        base_settings = getattr(self.session, "settings", None)
        if base_settings is None:
            return self.session  # remote: the server derives per spec
        wanted = spec.settings()
        if dataclasses.replace(
            wanted, benchmarks=base_settings.benchmarks
        ) == base_settings:
            return self.session
        runner = self._derived.get(wanted)
        if runner is None:
            runner = self.session.derived(spec)
            self._derived[wanted] = runner
        return runner

    def _prime(self) -> None:
        """Adopt store hits as labels (local sessions only: the remote
        server streams its store hits as PointResults instead)."""
        cached = getattr(self.session, "cached", None)
        if cached is None:
            return
        for item in self.items:
            if item not in self.labels:
                result = cached(*item)
                if result is not None:
                    self.labels[item] = float(result.cycles)

    def _run_spec(self, spec: CampaignSpec):
        runner = self._runner_for(spec)
        kwargs = {}
        if self.executor is not None and hasattr(runner, "settings"):
            kwargs["executor"] = self.executor  # remotes pick their own
        for event in runner.run(spec, **kwargs):
            if isinstance(event, PointResult):
                item = (
                    event.benchmark,
                    event.config,
                    event.map_index,
                )
                if item not in self.labels:
                    self.labels[item] = float(event.result.cycles)
                    self.simulated += 1
            yield event

    # ----- proposing ------------------------------------------------------------

    def _seed_proposals(self) -> tuple[Proposal, ...]:
        depth = min(self.settings.initial_maps, self.spec.n_fault_maps)
        proposals = []
        for benchmark in self.spec.benchmarks:
            for config in self.configs:
                if config.needs_fault_map:
                    window = tuple(
                        m
                        for m in range(depth)
                        if (benchmark, config, m) not in self.labels
                    )
                else:
                    window = (
                        ()
                        if (benchmark, config, None) in self.labels
                        else (None,)
                    )
                if window:
                    proposals.append(Proposal(benchmark, config, window))
        cost = sum(p.cost for p in proposals)
        if len(self.labels) + cost > self.budget_items:
            raise ValueError(
                f"seed round needs {cost} new points but the budget allows "
                f"{self.budget_items - len(self.labels)}; raise budget or "
                f"lower initial_maps"
            )
        return tuple(proposals)

    def _cells(self) -> list[CellView]:
        cells = []
        for benchmark in self.spec.benchmarks:
            for config in self.configs:
                if config.needs_fault_map:
                    indices: list = list(range(self.spec.n_fault_maps))
                    max_depth = self.spec.n_fault_maps
                else:
                    indices = [None]
                    max_depth = 1
                labeled = [
                    m for m in indices if (benchmark, config, m) in self.labels
                ]
                unlabeled = [
                    m for m in indices if (benchmark, config, m) not in self.labels
                ]
                if not unlabeled:
                    continue
                base = self.labels[(benchmark, self.baseline, None)]
                cells.append(
                    CellView(
                        benchmark=benchmark,
                        config=config,
                        max_depth=max_depth,
                        labeled=tuple(labeled),
                        unlabeled=tuple(unlabeled),
                        mean=tuple(
                            self._pred[(benchmark, config, m)][0]
                            for m in unlabeled
                        ),
                        std=tuple(
                            self._pred[(benchmark, config, m)][1]
                            for m in unlabeled
                        ),
                        true=tuple(
                            base / self.labels[(benchmark, config, m)]
                            for m in labeled
                        ),
                    )
                )
        return cells

    def _propose(self, round_index: int) -> tuple[Proposal, ...]:
        remaining = self.budget_items - len(self.labels)
        if remaining < 1:
            return ()
        return propose_batch(
            self.settings.strategy,
            self._cells(),
            budget=min(self.settings.batch, remaining),
            step=self.settings.maps_step,
            seed=self.settings.seed,
            round_index=round_index,
        )

    # ----- fitting --------------------------------------------------------------

    def _grid_matrix(self) -> np.ndarray:
        if self._X is None:
            self._X = self.featurizer.matrix(self.items)
        return self._X

    def _normalized(self, item) -> float:
        benchmark = item[0]
        base = self.labels.get((benchmark, self.baseline, None))
        if base is None:
            raise RuntimeError(
                f"no baseline result for {benchmark!r} — the store holds "
                "nothing to normalize against"
            )
        return base / self.labels[item]

    def _refit(self) -> np.ndarray:
        """Fit on everything labeled, predict everything unlabeled, and
        recompute the mixed figure estimate.  Returns the flat estimate
        vector the convergence delta is computed over."""
        X = self._grid_matrix()
        labeled_rows = [
            i for i, item in enumerate(self.items) if item in self.labels
        ]
        unlabeled_rows = [
            i for i, item in enumerate(self.items) if item not in self.labels
        ]
        if not labeled_rows:
            raise RuntimeError("nothing labeled: cannot fit a surrogate")
        y = np.array(
            [self._normalized(self.items[i]) for i in labeled_rows],
            dtype=np.float64,
        )
        surrogate = self.settings.surrogate().fit(X[labeled_rows], y)

        # Per-cell OOB error floor on the uncertainty field: bootstrap
        # members can agree on a biased extrapolation (ensemble std near
        # zero while the error is not), but the out-of-bag residuals on
        # the cell's own labeled points measure that bias directly.
        # Flooring std per (benchmark, config) keeps acquisition honest:
        # cells the surrogate demonstrably mispredicts stay attractive.
        oob = surrogate.oob_residuals()
        finite = np.abs(oob[np.isfinite(oob)])
        default_floor = float(finite.mean()) if finite.size else 0.0
        per_cell: dict = {}
        for row, residual in zip(labeled_rows, oob):
            if np.isfinite(residual):
                item = self.items[row]
                per_cell.setdefault((item[0], item[1]), []).append(float(residual))
        # Signed mean -> the cell's prediction bias (the model-assisted
        # "difference estimator": predicted points are shifted by the
        # bias the surrogate shows on the cell's own labeled points).
        # Abs mean -> the uncertainty floor acquisition sees.
        shifts = {
            cell: sum(values) / len(values) for cell, values in per_cell.items()
        }
        floors = {
            cell: sum(abs(v) for v in values) / len(values)
            for cell, values in per_cell.items()
        }

        self._pred = {}
        if unlabeled_rows:
            mean, std = surrogate.predict(X[unlabeled_rows])
            for row, m, s in zip(unlabeled_rows, mean, std):
                item = self.items[row]
                cell = (item[0], item[1])
                self._pred[item] = (
                    float(m) + shifts.get(cell, 0.0),
                    float(max(s, floors.get(cell, default_floor))),
                )

        estimate: dict = {}
        flat: list[float] = []
        for config in self.configs:
            if config == self.baseline:
                continue
            averages, minimums = [], []
            for benchmark in self.spec.benchmarks:
                if config.needs_fault_map:
                    values = [
                        self._normalized((benchmark, config, m))
                        if (benchmark, config, m) in self.labels
                        else self._pred[(benchmark, config, m)][0]
                        for m in range(self.spec.n_fault_maps)
                    ]
                else:
                    item = (benchmark, config, None)
                    values = [
                        self._normalized(item)
                        if item in self.labels
                        else self._pred[item][0]
                    ]
                averages.append(sum(values) / len(values))
                minimums.append(min(values))
            entry = {
                "average": averages,
                "minimum": minimums if config.needs_fault_map else None,
            }
            estimate[config.label] = entry
            flat.extend(averages)
            if config.needs_fault_map:
                flat.extend(minimums)
        self._estimate = estimate
        self._estimate_vec = np.array(flat, dtype=np.float64)
        return self._estimate_vec

    # ----- the loop -------------------------------------------------------------

    def run(self):
        """Stream the whole campaign: the proposed specs' own event
        streams (``PlanReady``/``PointResult``/…) interleaved with
        :class:`BatchProposed` / :class:`SurrogateFit` checkpoints, and
        one terminal :class:`Converged`."""
        self._prime()
        prev: np.ndarray | None = None
        streak = 0
        round_index = 0
        while True:
            if round_index == 0:
                strategy = "seed"
                proposals = self._seed_proposals()
            else:
                strategy = self.settings.strategy
                proposals = self._propose(round_index)
            new_labels = 0
            if proposals:
                specs = proposal_specs(proposals, self.spec)
                yield BatchProposed(
                    round_index=round_index,
                    strategy=strategy,
                    proposed=sum(p.cost for p in proposals),
                    simulated=self.simulated,
                    total=self.total,
                    specs=specs,
                )
                before = len(self.labels)
                for spec in specs:
                    yield from self._run_spec(spec)
                self._prime()
                new_labels = len(self.labels) - before
            vector = self._refit()
            delta = None
            if prev is not None:
                delta = (
                    float(np.max(np.abs(vector - prev))) if vector.size else 0.0
                )
            prev = vector
            self.rounds = round_index + 1
            yield SurrogateFit(
                round_index=round_index,
                training=len(self.labels),
                members=self.settings.members,
                delta=delta,
            )
            if len(self.labels) >= self.total:
                yield self._finish("exhausted", delta)
                return
            if proposals and new_labels == 0:
                # The round ran but nothing landed (e.g. every spec
                # failed upstream of CampaignError) — do not spin.
                yield self._finish("stalled", delta)
                return
            if delta is not None and delta <= self.settings.tolerance:
                streak += 1
                if streak >= self.settings.patience:
                    yield self._finish("tolerance", delta)
                    return
            else:
                streak = 0
            if len(self.labels) >= self.budget_items:
                yield self._finish("budget", delta)
                return
            round_index += 1

    def _finish(self, reason: str, delta: float | None) -> Converged:
        self._converged = Converged(
            rounds=self.rounds,
            simulated=self.simulated,
            total=self.total,
            delta=delta,
            reason=reason,
        )
        return self._converged

    def run_all(self) -> PredictReport:
        """Drain :meth:`run` and return the report."""
        for _event in self.run():
            pass
        return self.report()

    def report(self) -> PredictReport:
        """The converged campaign's report (raises before convergence)."""
        if self._converged is None:
            raise RuntimeError("the campaign has not converged yet")
        return PredictReport(
            spec=self.spec,
            settings=self.settings,
            baseline_label=self.baseline.label,
            benchmarks=self.spec.benchmarks,
            estimate=self._estimate,
            rounds=self._converged.rounds,
            simulated=self._converged.simulated,
            labeled=len(self.labels),
            total=self.total,
            predicted=len(self._pred),
            delta=self._converged.delta,
            reason=self._converged.reason,
        )


def replay_report(
    session,
    spec: CampaignSpec,
    settings: PredictSettings | None = None,
    baseline: RunConfig | None = None,
) -> PredictReport:
    """Re-derive an active campaign's estimate from the store alone.

    Primes every stored label, fits once, and reports with
    ``reason="replay"`` — zero simulations.  Because the loop's final
    fit saw exactly the label set it left in the store, a replay's
    estimate is byte-identical to the original report's (the CI smoke
    pins this).
    """
    campaign = ActiveCampaign(session, spec, settings=settings, baseline=baseline)
    campaign._prime()
    if not campaign.labels:
        raise RuntimeError("the store holds no results for this spec")
    campaign._refit()
    campaign.rounds = 0
    campaign._converged = Converged(
        rounds=0,
        simulated=0,
        total=campaign.total,
        delta=None,
        reason="replay",
    )
    return campaign.report()
