"""The campaign service layer: distributed execution and the wire API.

Three pieces, layered on the seams PRs 5-8 built:

* :class:`~repro.service.distributed.DistributedExecutor` — the
  :class:`~repro.campaign.executors.Executor` that fans a plan's
  groups across worker processes *each writing to its
  own store partition* (any :mod:`repro.store` backend), merging the
  partitions into the session store when the pool drains.  It subclasses
  :class:`~repro.campaign.executors.PoolExecutor`, so the retry /
  watchdog / bisection / quarantine machinery — and the ``REPRO_CHAOS``
  correctness gates — apply unchanged.
* :mod:`repro.service.server` — a stdlib-asyncio campaign server
  (``python -m repro.experiments serve``) accepting
  :class:`~repro.campaign.spec.CampaignSpec` JSON from many concurrent
  clients over HTTP and streaming typed campaign events back as NDJSON,
  coalescing overlapping specs against the shared store (in-flight keys
  are awaited, never re-simulated).
* :class:`~repro.service.client.RemoteSession` — the thin blocking
  client (``Session.connect(url)``), exposing the same streaming
  iterator API as a local ``Session.run``.

The wire format is :func:`repro.campaign.events.event_to_dict` /
``event_from_dict`` — events are the API, identical in-process and over
the wire.
"""

from repro.service.client import RemoteSession, connect
from repro.service.distributed import DistributedExecutor

__all__ = ["DistributedExecutor", "RemoteSession", "connect"]
