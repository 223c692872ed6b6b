"""``ShardedIndex`` — the STRG-Index partitioned for serving.

The monolithic :class:`~repro.core.index.STRGIndex` answers one query at
a time against one tree.  The serving layer partitions the corpus across
N shards — each its own ``STRGIndex`` — and answers queries by
scatter-gather with **one global bound shared across shards**, so no
shard starts from an infinite bound:

- **Placement.**  ``"affine"`` (default) runs a coarse EM clustering and
  assigns each OG to the shard whose *pivot* (coarse centroid) is
  nearest, with a balance cap so no shard degenerates into the whole
  corpus.  ``"hash"`` places by ``og_id % num_shards`` — uniform, but
  with no locality to prune on.
- **Granularity.**  Every shard gets the same per-shard
  :class:`~repro.core.index.STRGIndexConfig`, so the fleet's total
  cluster count — and with it the tightness of every leaf window —
  grows with the shard count.
- **Pivot filters.**  A shard that holds a sketch tier — loaded with
  it, or built by a budgeted read or ``sketch_tier()`` — stores each
  record's distance to its own sketch pivots (``pivot_dists``).  The
  exact scan reads those rows as extra reference columns, so one
  batched sweep of the query against each such shard's pivots turns
  them into triangle lower bounds — at a price of one evaluation per
  pivot per live shard on every exact query.  A shard without a
  sketch scans on its leaf keys alone, exactly as a sketch-less
  ``STRGIndex`` does.  Placement pivots only place OGs.
- **One scan.**  The search itself is :mod:`repro.core.scan` — the
  routine the monolithic index runs over its own clusters — handed the
  scan views every live shard keeps of its clusters.  Cluster ranking
  is one batched kernel invocation across *all* shards (their pivots
  included) and candidate windows accumulate across clusters and
  shards.

Search is **exact**: every prune is a metric lower bound, and ties are
broken by ``(distance, og_id)`` — so the hits, their order *and their
float distances* are those of the monolithic index, for any shard count,
because the same routine produced them.

One shard is the monolithic index.  With ``num_shards=1`` placement is
skipped — no pivots are fit and none is evaluated — so a one-shard
build or insert spends exactly the evaluations of the ``STRGIndex`` it
wraps and stores the same columns.  Every store holds a ``ShardedIndex``
(:mod:`repro.storage.columnar`), and :meth:`ShardedIndex.of` is the one
place an ``STRGIndex`` becomes the one-shard index over itself.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.clustering.em import EMClustering, EMConfig
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.core.scan import ClusterView, knn_scan, probe, range_scan
from repro.distance.base import Distance
from repro.distance.batch import pairwise_matrix
from repro.errors import (
    IndexStateError,
    InvalidParameterError,
    ShardUnavailableError,
)
from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.resilience.faults import maybe_fail
from repro.search.request import SearchRequest, SearchResult, split_budget
from repro.search.sketch import approx_knn

#: Supported placement strategies.
PLACEMENTS = ("affine", "hash")

#: Affine placement: the coarse EM fit that chooses the shard pivots
#: samples this many OGs and runs this many iterations.
COARSE_SAMPLE_SIZE = 128
COARSE_ITERATIONS = 10
#: Affine placement caps a shard at ``BALANCE_FACTOR * M / num_shards``
#: members; overflow spills to the next-nearest pivot.
BALANCE_FACTOR = 1.3


@dataclass
class ShardedIndexConfig:
    """Tuning of the sharded serving index.

    ``index`` configures every per-shard ``STRGIndex`` (identical across
    shards, so total cluster granularity scales with ``num_shards``).
    """

    num_shards: int = 4
    placement: str = "affine"
    index: STRGIndexConfig = field(default_factory=STRGIndexConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.placement not in PLACEMENTS:
            raise InvalidParameterError(
                f"unknown placement {self.placement!r}; "
                f"expected one of {PLACEMENTS}"
            )


class ShardedIndex:
    """N ``STRGIndex`` shards behind one exact scatter-gather search."""

    def __init__(self, config: ShardedIndexConfig | None = None,
                 metric_distance: Distance | Callable | None = None,
                 cluster_distance: Distance | None = None):
        self.config = config or ShardedIndexConfig()
        self.shards: list[STRGIndex] = [
            STRGIndex(self.config.index, metric_distance=metric_distance,
                      cluster_distance=cluster_distance)
            for _ in range(self.config.num_shards)
        ]
        #: Shared metric (leaf keys, pivot distances and query
        #: evaluation).
        self.metric_distance = self.shards[0].metric_distance
        self.cluster_distance = self.shards[0].cluster_distance
        #: Affine shard pivots (coarse centroids); ``None`` for hash
        #: placement or before the first build.
        self.pivots: list[np.ndarray] | None = None
        self.frozen = False

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_shards(cls, shards: Sequence[STRGIndex],
                    serving_config: dict[str, Any] | None = None,
                    pivots: Sequence[np.ndarray] | None = None
                    ) -> "ShardedIndex":
        """An index over already-built shards (a loaded snapshot, or a
        worker's partition of one).

        ``serving_config`` is a persisted :meth:`serving_config`;
        ``index`` and ``num_shards`` are taken from the shards
        themselves, and a key that is not a setting of this version is
        ignored (stores written through 4.0.0 carry two scan-window
        settings that became constants of :mod:`repro.core.scan`, and
        stores written through 13.x the three placement settings that
        became :data:`COARSE_SAMPLE_SIZE`, :data:`COARSE_ITERATIONS` and
        :data:`BALANCE_FACTOR`).
        ``pivots`` are the affine placement pivots, kept so that later
        inserts land where a build would put them; nothing is swept
        here — each shard's scan views come from its own sketch table.
        """
        settings = {f.name for f in fields(ShardedIndexConfig)}
        kept = {key: value for key, value in (serving_config or {}).items()
                if key in settings}
        index = cls(ShardedIndexConfig(**{
            **kept, "num_shards": len(shards), "index": shards[0].config,
        }))
        index.shards = list(shards)
        index.metric_distance = shards[0].metric_distance
        index.cluster_distance = shards[0].cluster_distance
        if pivots is not None:
            index.pivots = [np.asarray(p, dtype=np.float64) for p in pivots]
        return index

    @classmethod
    def of(cls, index: "STRGIndex | ShardedIndex") -> "ShardedIndex":
        """``index`` as a ``ShardedIndex``: itself, or — for an
        ``STRGIndex`` — the one-shard index over it, whose writes land
        in ``index`` itself unless it is frozen."""
        if isinstance(index, STRGIndex):
            return cls.from_shards([index])
        return index

    def serving_config(self) -> dict[str, Any]:
        """The persisted half of the config — what :meth:`from_shards`
        takes back (the per-shard ``index`` config travels with the
        shards)."""
        return {f.name: getattr(self.config, f.name)
                for f in fields(self.config) if f.name != "index"}

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def _check_mutable(self) -> None:
        if self.frozen:
            raise IndexStateError(
                "sharded index is frozen (published as a serving "
                "snapshot); mutate a clone instead"
            )

    def build(self, ogs: Sequence[ObjectGraph],
              background: BackgroundGraph | None = None,
              clip_refs: Sequence[Any] | None = None
              ) -> list[tuple[int, int]]:
        """Partition ``ogs`` across the shards and build each one;
        returns the ``(shard, row)`` each OG landed in."""
        if not ogs:
            raise IndexStateError("cannot build a sharded index from zero OGs")
        if clip_refs is not None and len(clip_refs) != len(ogs):
            raise InvalidParameterError(
                f"{len(ogs)} OGs but {len(clip_refs)} clip refs"
            )
        self._check_mutable()
        refs = list(clip_refs) if clip_refs is not None else [None] * len(ogs)
        rows: dict[int, int] = {}
        with OBS.span("serving.shard_build", ogs=len(ogs),
                      shards=self.num_shards):
            assignment = self._place(ogs)
            for s in range(self.num_shards):
                members = [j for j, a in enumerate(assignment) if a == s]
                if members:
                    rows.update(zip(members, self._writable(s).build(
                        [ogs[j] for j in members], background,
                        [refs[j] for j in members])))
        return [(s, rows[j]) for j, s in enumerate(assignment)]

    def _place(self, ogs: Sequence[ObjectGraph]) -> list[int]:
        """Shard id per OG (fits affine pivots on the first build; one
        shard places nothing)."""
        if self.num_shards == 1:
            return [0] * len(ogs)
        if self.config.placement == "hash":
            return [int(og.og_id) % self.num_shards for og in ogs]
        if self.pivots is None:
            self.pivots = self._fit_pivots(ogs)
        return self._assign_affine(self._pivot_distances(ogs))

    def _fit_pivots(self, ogs: Sequence[ObjectGraph]) -> list[np.ndarray]:
        """Coarse EM centroids used as shard pivots (one per shard)."""
        rng = np.random.default_rng(self.config.seed)
        sample: Sequence[ObjectGraph] = ogs
        if COARSE_SAMPLE_SIZE < len(ogs):
            idx = rng.choice(len(ogs), size=COARSE_SAMPLE_SIZE,
                             replace=False)
            sample = [ogs[int(i)] for i in sorted(idx)]
        k = min(self.num_shards, len(sample))
        em = EMClustering(
            EMConfig(n_clusters=k,
                     max_iterations=COARSE_ITERATIONS,
                     seed=self.config.seed),
            distance=self.cluster_distance,
        )
        result = em.fit(list(sample))
        pivots = [np.asarray(result.centroids[c], dtype=np.float64)
                  for c in range(result.num_clusters)]
        while len(pivots) < self.num_shards:
            # Degenerate coarse fit: duplicate pivots; the balance cap
            # still spreads members across the extra shards.
            pivots.append(pivots[len(pivots) % max(1, len(pivots))].copy())
        return pivots

    def _pivot_distances(self, ogs: Sequence[ObjectGraph]) -> np.ndarray:
        """``(len(ogs), num_pivots)`` matrix of pivot-first distances."""
        return pairwise_matrix(self.metric_distance, self.pivots, ogs).T

    def _assign_affine(self, cols: np.ndarray) -> list[int]:
        """Nearest-pivot placement under the balance cap (deterministic)
        from the :meth:`_pivot_distances` rows of the OGs to place."""
        counts = [len(shard) for shard in self.shards]
        cap = max(1, math.ceil(
            BALANCE_FACTOR * (len(cols) + sum(counts)) / self.num_shards))
        order = np.argsort(cols, axis=1, kind="stable")
        assignment: list[int] = []
        for j in range(len(cols)):
            chosen = int(order[j, 0])
            for s in order[j]:
                if counts[int(s)] < cap:
                    chosen = int(s)
                    break
            counts[chosen] += 1
            assignment.append(chosen)
        return assignment

    # -- maintenance ----------------------------------------------------------

    def insert(self, og: ObjectGraph,
               background: BackgroundGraph | None = None,
               clip_ref: Any = None) -> tuple[int, int]:
        """Insert one OG into its shard; returns its ``(shard, row)``."""
        self._check_mutable()
        if self.num_shards == 1:
            target = 0
        elif self.config.placement == "hash":
            target = int(og.og_id) % self.num_shards
        else:
            if self.pivots is None:
                if len(self) == 0:
                    return self.build([og], background, [clip_ref])[0]
                # Shards built elsewhere (from_shards without pivots):
                # fit the pivots the first build would have.
                self.pivots = self._fit_pivots(list(self.object_graphs()))
            dists = self._pivot_distances([og])[0]
            target = int(np.argmin(dists))
        return target, self._writable(target).insert(og, background, clip_ref)

    def delete(self, og_id: int) -> tuple[int, int] | None:
        """Remove the first OG labelled ``og_id`` (shard by shard, leaf
        order); returns its ``(shard, row)``, or ``None``."""
        self._check_mutable()
        for s, shard in enumerate(self.shards):
            record = shard.record_of(og_id)
            if record is not None:
                self._writable(s).delete_row(record.row)
                return s, record.row
        return None

    def _writable(self, s: int) -> STRGIndex:
        """Shard ``s`` — its own clone, from the first write on, when it
        was a frozen shard shared with the index this one was cloned
        from.  Shards no write reaches stay shared, scan views too."""
        if self.shards[s].frozen:
            self.shards[s] = self.shards[s].clone()
        return self.shards[s]

    def freeze(self) -> "ShardedIndex":
        """Freeze every shard (and this wrapper) for snapshot publishing."""
        for shard in self.shards:
            shard.freeze()
        self.frozen = True
        return self

    def clone(self) -> "ShardedIndex":
        """A mutable copy sharing every frozen shard until it is written.

        The copy-on-write path of the serving snapshot manager: clone the
        published (frozen) index, apply buffered writes to the clone, and
        publish it as the next snapshot.  :meth:`_writable` clones a
        shard on its first write; a shard no write reaches stays shared
        with its scan views, so the next exact read rebuilds the views
        of written shards only.  (A shard not yet frozen could change
        under the copy: cloned right away.)
        """
        dup = copy.copy(self)
        dup.shards = [shard if shard.frozen else shard.clone()
                      for shard in self.shards]
        dup.frozen = False
        return dup

    # -- search ---------------------------------------------------------------

    def search(self, request: SearchRequest) -> SearchResult:
        """Answer one request by scatter-gather over all shards.

        Exact answers are bit-identical to the monolithic
        ``STRGIndex.search`` over the same corpus (ties broken by
        og_id).  A shard raising
        :class:`~repro.errors.ShardUnavailableError` (e.g. under fault
        injection) propagates unless ``request.degrade`` is set; then it
        is skipped and the result carries the surviving hits with
        ``degraded=True``.

        With ``search_budget`` set, each shard's *approximate* sketch
        tier (see ``docs/SEARCH.md``) shortlists its
        :func:`~repro.search.request.split_budget` share, and one
        :func:`~repro.search.sketch.approx_knn` rerank ranks every
        shortlist under one k-th best distance.

        ``prune_bound`` is an externally-known upper bound on the k-th
        nearest distance (e.g. the k-th hit of another partition of the
        same corpus).  It only tightens *pruning* — never which
        evaluated candidates are kept — so any valid bound leaves the
        result exact; it exists so distributed callers (the
        ``serving.workers`` pool) can share one global bound across
        partitions the way this index shares one bound across shards.
        ``n_probe`` scans the ``n_probe`` nearest clusters across every
        live shard, as :meth:`STRGIndex.search
        <repro.core.index.STRGIndex.search>` does across its own.
        """
        if request.k == 0:
            return SearchResult([])
        if len(self) == 0:
            raise IndexStateError("cannot search an empty sharded index")
        if request.kind == "range":
            with OBS.span("serving.range_query",
                          radius=request.radius) as sp:
                result = self._range_scatter(request)
                sp.set(hits=len(result.hits), degraded=result.degraded)
                return result
        with OBS.span("serving.knn", k=request.k, shards=self.num_shards,
                      budget=request.search_budget) as sp:
            OBS.count("serving.knn_queries")
            if request.search_budget is not None:
                result = self._approx_scatter(request)
            else:
                result = self._scatter_gather(request)
            sp.set(hits=len(result.hits), degraded=result.degraded)
            return result

    def knn(self, query: ObjectGraph | np.ndarray, k: int,
            background: BackgroundGraph | None = None,
            search_budget: int | None = None
            ) -> list[tuple[float, ObjectGraph, Any]]:
        """k-NN over all shards, as ``(distance, og, clip_ref)`` (sugar
        for :meth:`search`; shard failures propagate)."""
        return self.search(SearchRequest.knn(
            query, k, background=background,
            search_budget=search_budget)).hits

    def range_query(self, query, radius: float,
                    background: BackgroundGraph | None = None
                    ) -> list[tuple[float, ObjectGraph, Any]]:
        """All OGs within ``radius``, merged across shards (sugar for
        :meth:`search`)."""
        return self.search(SearchRequest.range(
            query, radius, background=background)).hits

    def _live_shards(self, degrade: bool) -> tuple[list[int], list[int]]:
        """Ordinals of the non-empty shards to search, and of those lost.

        The shard fault-injection point fires here, before any kernel
        work: a failed shard contributes nothing and the search degrades
        to partial results (or raises, on the strict path).
        """
        live: list[int] = []
        failed: list[int] = []
        for s, shard in enumerate(self.shards):
            if len(shard) == 0:
                continue
            try:
                maybe_fail("serving.shard", shard=s)
            except ShardUnavailableError:
                if not degrade:
                    raise
                OBS.count("serving.shards_failed")
                failed.append(s)
                continue
            live.append(s)
        return live, failed

    def _approx_scatter(self, request: SearchRequest) -> SearchResult:
        """Budgeted search: every live shard's sketch shortlists its
        share, and one rerank under one bound ranks them all.  A failed
        shard keeps its share of the split."""
        live, failed = self._live_shards(request.degrade)
        shares = split_budget(request.search_budget, self.shard_sizes(),
                              request.k)
        hits = approx_knn([self.shards[s].sketch_tier() for s in live],
                          self.metric_distance, request,
                          [shares[s] for s in live])
        return SearchResult(hits, bool(failed), failed)

    def _gather(self, request: SearchRequest
                ) -> tuple[list[ClusterView], list[int]]:
        """Scan views of the (BG-routed) non-empty clusters of every
        live shard — the ``n_probe`` nearest of them all when set — and
        the ordinals of the shards lost."""
        views: list[ClusterView] = []
        live, failed = self._live_shards(request.degrade)
        for s in live:
            views.extend(self.shards[s]._cluster_views(request.background))
        return probe(self.cluster_distance, request.query, views,
                     request.n_probe), failed

    def _scatter_gather(self, request: SearchRequest) -> SearchResult:
        # One bound across all shards, exactly as the monolithic index
        # shares one bound across its clusters.
        views, failed = self._gather(request)
        hits = knn_scan(self.metric_distance, request.series, views,
                        request.k, prune_bound=request.prune_bound,
                        layer="serving")
        return SearchResult(hits, bool(failed), failed)

    def _range_scatter(self, request: SearchRequest) -> SearchResult:
        views, failed = self._gather(request)
        hits = range_scan(self.metric_distance, request.series, views,
                          request.radius, layer="serving")
        return SearchResult(hits, bool(failed), failed)

    # -- introspection --------------------------------------------------------

    def object_graphs(self) -> Iterator[ObjectGraph]:
        """Iterate every indexed OG, shard by shard."""
        for shard in self.shards:
            yield from shard.object_graphs()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def num_clusters(self) -> int:
        return sum(shard.num_clusters() for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        """OG count per shard (placement balance diagnostics)."""
        return [len(shard) for shard in self.shards]

    def stats(self) -> dict[str, Any]:
        return {
            "shards": self.num_shards,
            "placement": self.config.placement,
            "shard_sizes": self.shard_sizes(),
            "cluster_records": self.num_clusters(),
            "leaf_records": len(self),
            "frozen": self.frozen,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedIndex(shards={self.num_shards}, "
            f"placement={self.config.placement!r}, ogs={len(self)})"
        )
