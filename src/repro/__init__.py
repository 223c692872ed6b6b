"""Reproduction of *STRG-Index: Spatio-Temporal Region Graph Indexing for
Large Video Databases* (Lee, Oh, Hwang — SIGMOD 2005).

The blessed public surface is small (see ``docs/API.md``):

    >>> import repro
    >>> db = repro.open_database("corpus")
    >>> db.ingest(video_segment)
    >>> hits = db.knn(example_trajectory, k=5)
    >>> repro.observability.configure(enabled=True)   # tracing + metrics

The package mirrors the paper's pipeline:

- :mod:`repro.video` — frame containers, synthetic video rendering and
  mean-shift region segmentation (EDISON substitute).
- :mod:`repro.graph` — Region Adjacency Graphs, Spatio-Temporal Region
  Graphs, graph-based tracking and STRG decomposition into object/background
  graphs.
- :mod:`repro.distance` — Extended Graph Edit Distance (EGED) in both
  non-metric and metric forms, plus the DTW/LCS/ERP/Lp baselines.
- :mod:`repro.clustering` — EM / K-Means / K-Harmonic-Means over arbitrary
  distances, BIC model selection and evaluation metrics.
- :mod:`repro.mtree` — a full M-tree baseline with RANDOM and SAMPLING
  split policies.
- :mod:`repro.core` — the STRG-Index itself: three-level tree, build,
  BIC-driven node split and k-NN search.
- :mod:`repro.datasets` — the paper's synthetic workload (48 motion
  patterns, Pelleg+Vlachos style) and simulated surveillance streams.
- :mod:`repro.storage` — ``open_store`` and the columnar memory-mapped
  ``.strg`` snapshot store (see ``docs/STORAGE.md``; 10.x stores
  import through ``strg-index convert``), and the ``VideoDatabase``
  facade.
- :mod:`repro.resilience` — fault injection, retry/backoff policies,
  quarantine, ingest journaling and crash recovery.
- :mod:`repro.parallel` — ordered frame-parallel ingest over a process
  pool (:func:`ordered_chunk_map`).
- :mod:`repro.observability` — tracing spans, a metrics registry
  (JSON / Prometheus exporters) and profiling hooks through every hot
  path, behind one ``configure(enabled=...)`` switch.
- :mod:`repro.search` — the approximate search tier: quantized trajectory
  sketches, voting candidate generation and budgeted exact rerank behind
  ``knn(..., search_budget=)`` (see ``docs/SEARCH.md``).
- :mod:`repro.serving` — sharded scatter-gather indexes, copy-on-write
  snapshots with live swaps, a thread-pool query service with admission
  control and deadlines, a crash-safe streaming ingest service,
  multi-process shard workers over the mmap store behind an asyncio
  HTTP/JSON frontend, and one closed-/open-loop load runner (see
  ``docs/SERVING.md``, ``docs/STREAMING.md`` and ``docs/NETWORK.md``).
"""

from repro import observability
from repro.api import open_database
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.distance.eged import EGED, MetricEGED, eged
from repro.graph.object_graph import ObjectGraph
from repro.graph.strg import SpatioTemporalRegionGraph
from repro.parallel import ordered_chunk_map
from repro.pipeline import PipelineConfig, VideoPipeline
from repro.query import Query, QueryResult
from repro.resilience import FaultInjector, FaultPolicy, RetryPolicy
from repro.search import (
    SearchRequest,
    SearchResult,
    SketchIndex,
    approx_knn,
)
from repro.serving import (
    IndexSnapshot,
    IngestService,
    IngestServiceConfig,
    LiveIndex,
    NetConfig,
    NetFrontend,
    QueryService,
    ServiceConfig,
    ShardedIndex,
    ShardedIndexConfig,
    WorkerPool,
    WorkerPoolConfig,
)
from repro.storage.database import QueryHit, VideoDatabase
from repro.storage.store import open_store

__version__ = "17.2.0"

__all__ = [
    "EGED",
    "FaultInjector",
    "FaultPolicy",
    "IndexSnapshot",
    "IngestService",
    "IngestServiceConfig",
    "LiveIndex",
    "MetricEGED",
    "NetConfig",
    "NetFrontend",
    "ObjectGraph",
    "PipelineConfig",
    "Query",
    "QueryHit",
    "QueryResult",
    "QueryService",
    "RetryPolicy",
    "STRGIndex",
    "STRGIndexConfig",
    "SearchRequest",
    "SearchResult",
    "ServiceConfig",
    "ShardedIndex",
    "ShardedIndexConfig",
    "SketchIndex",
    "SpatioTemporalRegionGraph",
    "VideoDatabase",
    "VideoPipeline",
    "WorkerPool",
    "WorkerPoolConfig",
    "__version__",
    "approx_knn",
    "eged",
    "observability",
    "open_database",
    "open_store",
    "ordered_chunk_map",
]
