"""repro.serving — sharded, concurrent query serving with live swaps.

Layers, bottom up:

- :mod:`repro.serving.sharding` — :class:`ShardedIndex` partitions the
  corpus across N :class:`~repro.core.index.STRGIndex` shards and runs
  exact scatter-gather k-NN / range queries whose results are
  bit-identical to a monolithic index.
- :mod:`repro.serving.snapshot` — :class:`IndexSnapshot` /
  :class:`LiveIndex` give copy-on-write ingestion: readers query an
  immutable published snapshot while writes buffer and compact into the
  next one, swapped in atomically.
- :mod:`repro.serving.service` — :class:`QueryService`, the one
  serving front: worker threads, bounded admission, per-request
  deadlines and graceful shutdown over any ``search(request)`` backend
  (a :class:`LiveIndex` or a started :class:`WorkerPool`).
- :mod:`repro.serving.ingest` — :class:`IngestService` is the write-side
  twin: a backpressured, journaled upload→queryable pipeline with
  crash-safe job recovery (see ``docs/STREAMING.md``).
- :mod:`repro.serving.workers` — :class:`WorkerPool` promotes shards to
  long-lived worker *processes* memory-mapping one columnar snapshot,
  with a shard-to-slot assignment fixed for the pool's life, replica
  failover and supervised restarts (see ``docs/NETWORK.md``).
- :mod:`repro.serving.net` — :class:`NetFrontend`, the asyncio
  HTTP/JSON codec over a :class:`QueryService` it runs on its backend:
  ``/knn`` ``/range`` ``/query`` ``/health`` ``/metrics`` ``/ingest``.
- :mod:`repro.serving.loadgen` — :func:`run_load`, the closed-/open-loop
  load runner over any ``send(request, deadline)`` transport
  (``QueryService.submit`` in process, :class:`HttpSender` over the
  wire), reporting throughput and client-observed p50/p95/p99 latency.
"""

from repro.serving.ingest import (
    IngestJob,
    IngestRecoveryReport,
    IngestService,
    IngestServiceConfig,
    JobState,
)
from repro.serving.loadgen import LoadReport, run_load
from repro.serving.net import HttpSender, NetConfig, NetFrontend, request_json
from repro.serving.service import QueryService, ServiceConfig
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig
from repro.serving.snapshot import IndexSnapshot, LiveIndex
from repro.serving.workers import RemoteHit, WorkerPool, WorkerPoolConfig

__all__ = [
    "HttpSender",
    "IndexSnapshot",
    "IngestJob",
    "IngestRecoveryReport",
    "IngestService",
    "IngestServiceConfig",
    "JobState",
    "LiveIndex",
    "LoadReport",
    "NetConfig",
    "NetFrontend",
    "QueryService",
    "RemoteHit",
    "ServiceConfig",
    "ShardedIndex",
    "ShardedIndexConfig",
    "WorkerPool",
    "WorkerPoolConfig",
    "request_json",
    "run_load",
]
