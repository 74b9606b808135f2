"""DistributedExecutor: pool fan-out with per-worker store partitions.

The plain :class:`~repro.campaign.executors.PoolExecutor` ships every
finished ``SimResult`` back over IPC and the parent checkpoints it.
That is the right shape for one machine, but it makes the parent the
single durability point: a worker's completed work exists only in a
pipe until the parent lands it.  This executor models the distributed
deployment instead — the shape a multi-machine fan-out needs — while
running on the same process pool:

* every worker opens its **own store partition** under a partition root
  (``<root>/worker-<epoch>-<pid>``, any :mod:`repro.store` backend;
  ``sharded`` by default) and checkpoints each simulation there
  *before* acknowledging it;
* workers return tiny ``(task, key)`` **acks** over IPC, never results;
* when the pool drains, the parent **merges** the partitions: the union
  of partition records is read back, and every acked task lands in the
  session store through the same retry-on-transient-write path the pool
  executor uses (so armed I/O chaos exercises the merge exactly like it
  exercises per-chunk checkpointing).

Everything else — deterministic retry backoff, the per-chunk watchdog,
pool rebuild on worker death, chunk bisection, quarantine + in-process
replay — is inherited unchanged from ``PoolExecutor``; a chunk that
crashes after its partition write simply re-runs and lands an identical
record in another partition (simulations are deterministic, so the
union is well-defined — the MapReduce fault-tolerance story).

Results are byte-identical to a clean ``SerialExecutor`` run, with and
without ``REPRO_CHAOS`` — the ``service`` CI smoke pins it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import TYPE_CHECKING, Iterator

from repro.campaign import executors as _executors
from repro.campaign.executors import (
    Counters,
    PoolExecutor,
    _Chunk,
    run_batch_locally,
)
from repro.campaign.events import Event, PointResult, StoreRecovered
from repro.campaign.plan import Plan, Task
from repro.campaign.resilience import Quarantined, RetryPolicy
from repro.store.tools import load_partitions
from repro.testing import chaos

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.session import Session


def _partition_worker_init(
    settings,
    pipeline_config,
    trace_cache,
    chaos_epoch,
    partition_root,
    backend,
    fsync,
) -> None:
    """Worker initializer: a private Session whose store is this
    worker's own partition directory (``worker-<epoch>-<pid>`` — the
    epoch keeps a pid recycled across pool rebuilds from colliding with
    a dead worker's files mid-campaign; colliding would still be
    harmless, the records are identical)."""
    from repro.campaign.session import Session
    from repro.store import open_store

    _executors._shed_parent_signal_plumbing()
    # Arm worker-only chaos injection first (same contract as
    # _worker_init): worker kinds fire on the dispatch path, I/O kinds
    # stay disarmed in workers — the durable merge path is the parent's.
    chaos.enter_worker(chaos_epoch)
    partition = os.path.join(
        partition_root, f"worker-{chaos_epoch}-{os.getpid()}"
    )
    _executors._WORKER_SESSION = Session(
        settings,
        pipeline_config=pipeline_config,
        store=open_store(partition, backend=backend, fsync=fsync),
        trace_cache=trace_cache,
    )
    # The worker session owns its partition store (Session treats handed-
    # in stores as shared); make close() actually close it.
    _executors._WORKER_SESSION.owns_store = True


def _partition_worker_run_batches(
    batches: "list[list[Task]]",
) -> "tuple[int, Counters, list[tuple[Task, str]]]":
    """Run a group of dispatch batches, checkpointing every result into
    this worker's partition store, and return ``(task, key)`` acks — an
    ack is only emitted once the record is durably in the partition."""
    session = _executors._WORKER_SESSION
    assert session is not None, "worker not initialised"
    acks: "list[tuple[Task, str]]" = []
    for batch in batches:
        for task, _result in run_batch_locally(session, batch):
            # run_batch_locally checkpoints through session.store — the
            # partition — as it simulates; the key is the ack.
            acks.append((task, session.task_key(*task)))
    session.flush()
    traces = session.traces
    counters = (
        traces.generated,
        traces.loaded,
        traces.discarded,
        session.schedule_passes,
    )
    return os.getpid(), counters, acks


class DistributedExecutor(PoolExecutor):
    """Fan a plan's groups across N workers, each writing to its
    own store partition, merged into the session store at drain.

    ``partition_dir`` names the partition root (worker subdirectories
    are created beneath it); by default a temporary root is created per
    run and removed after the merge.  Point it at a durable directory to
    keep partitions inspectable — ``python -m repro.experiments store
    merge DIR --from ROOT`` folds them manually, which is also the
    recovery path if the parent dies mid-merge.  ``partition_backend``
    picks the per-worker store backend (default ``sharded``, the
    multi-writer-friendly one); ``partition_fsync`` forces per-put
    fsync inside partitions.
    """

    def __init__(
        self,
        workers: "int | None" = None,
        retry: "RetryPolicy | None" = None,
        partition_dir: "str | os.PathLike | None" = None,
        partition_backend: str = "sharded",
        partition_fsync: bool = False,
    ) -> None:
        super().__init__(workers=workers, retry=retry)
        self.partition_dir = (
            None if partition_dir is None else os.fspath(partition_dir)
        )
        self.partition_backend = partition_backend
        self.partition_fsync = partition_fsync
        self._partition_root: "str | None" = None
        #: key -> task, insertion-ordered: every ack the drain loop saw.
        self._acked: "dict[str, Task]" = {}

    # ----- pool seams -----------------------------------------------------------

    def _make_pool(self, session: "Session", workers: int, epoch: int):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_partition_worker_init,
            initargs=(
                session.settings,
                session.pipeline_config,
                session.traces.cache_dir,
                epoch,
                self._partition_root,
                self.partition_backend,
                self.partition_fsync,
            ),
        )

    def _submit(self, pool, session: "Session", chunk: _Chunk):
        return pool.submit(_partition_worker_run_batches, chunk.batches)

    # ----- landing seams --------------------------------------------------------

    def _land_chunk(
        self,
        session: "Session",
        chunk_results: list,
        quarantine: "list[Quarantined]",
    ) -> "tuple[list[Event], int]":
        """Record one chunk's ``(task, key)`` acks.  Results stay in the
        partitions until :meth:`_drain_complete`; an acked task counts as
        done now (it is durable in its worker's partition), so Progress
        events stay truthful during the run."""
        fresh = 0
        for task, key in chunk_results:
            if key not in self._acked:
                self._acked[key] = task
                fresh += 1
        return [], fresh

    def _drain_complete(
        self, session: "Session", quarantine: "list[Quarantined]"
    ) -> Iterator[Event]:
        """Merge the partitions: read the union of every worker's
        records, then land each acked task in the session store through
        the transient-write retry path, streaming its
        :class:`PointResult`.  An acked key missing from every partition
        (lost partition files) is quarantined — the in-process replay
        re-simulates it."""
        assert self._partition_root is not None
        results = load_partitions(
            self._partition_root, backend=self.partition_backend
        )
        for key, task in self._acked.items():
            result = results.get(key)
            if result is None:
                quarantine.append(
                    Quarantined(
                        task, key, 1, "acked result missing from partitions"
                    )
                )
                continue
            stored, failed, error = self._store_with_retry(
                session, key, task, result
            )
            if not stored:
                quarantine.append(
                    Quarantined(task, key, failed, f"store write failed: {error}")
                )
                continue
            if failed:
                yield StoreRecovered(key, failed, error)
            session.simulations_executed += 1
            benchmark, config, map_index = task
            yield PointResult(benchmark, config, map_index, key, result)
        try:
            session.flush()
        except OSError:
            pass  # close() retries

    # ----- the run wrapper ------------------------------------------------------

    def run(self, session: "Session", plan: Plan) -> Iterator[Event]:
        owns_root = self.partition_dir is None
        if owns_root:
            self._partition_root = tempfile.mkdtemp(prefix="repro-partitions-")
        else:
            os.makedirs(self.partition_dir, exist_ok=True)
            self._partition_root = self.partition_dir
        self._acked = {}
        try:
            yield from super().run(session, plan)
        finally:
            if owns_root:
                shutil.rmtree(self._partition_root, ignore_errors=True)
            self._partition_root = None
