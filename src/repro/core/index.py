"""The STRG-Index: build (Algorithm 2), maintenance (Section 5.3) and
k-NN search (Algorithm 3).

The index clusters OGs with EM + non-metric EGED, synthesizes a centroid
OG per cluster, and keys each member by the *metric* EGED to its centroid.
Because ``EGED_M`` is a metric (Theorem 2), the key difference
``|Key_q - Key_o|`` lower-bounds the true distance, which is what lets
search skip distance evaluations — the effect Figure 7(b) measures.

A first build of at least ``MIN_FIT_OGS`` OGs fits the index's
reference set in the same distance sweep as the keys
(:func:`build_shards`); after a smaller one, the first budgeted read or
:meth:`STRGIndex.sketch_tier` fits it.  From then on every leaf record
also carries its float32 distance to each reference series, and one row
table (:class:`~repro.core.scan.ScanViews`) stacks the keys and those
rows for the exact scan and the budgeted read alike.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.clustering.bic import bic_score, select_num_clusters
from repro.clustering.em import EMClustering, EMConfig
from repro.core.nodes import (
    ClusterNode,
    ClusterRecord,
    LeafRecord,
    RootRecord,
)
from repro.core.scan import ClusterView, ScanViews, knn_scan, probe, range_scan
from repro.distance.base import Distance, as_series, series_key
from repro.distance.batch import (
    PaddedBatch,
    one_vs_many,
    pairwise_matrix,
    supports_batch,
)
from repro.distance.eged import EGED, MetricEGED
from repro.errors import IndexStateError, InvalidParameterError
from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.search.request import SearchRequest, SearchResult
from repro.search.sketch import (
    MIN_FIT_OGS,
    approx_knn,
    fit_references,
    reference_rows,
)

#: Guards lazy construction of the reference set and of the scan views.
#: Module-level (not per-index): building is rare, and an index that owns
#: no lock stays picklable.
_LAZY_BUILD_LOCK = threading.Lock()


class _Clustering(NamedTuple):
    """The EM stage of one build batch: the OGs, EM's cluster of each
    (``None`` outside EM's sample) and the synthesized centroids."""

    ogs: list[ObjectGraph]
    cluster_of: list[int | None]
    centroids: list[np.ndarray]


@dataclass
class STRGIndexConfig:
    """STRG-Index tuning.

    ``leaf_capacity`` triggers the BIC split test of Section 5.3;
    ``bg_similarity_threshold`` decides when an incoming segment's BG
    matches an existing root record; ``n_clusters`` fixes the cluster
    count at build time (``None`` selects it by BIC, Section 4.2).
    """

    leaf_capacity: int = 32
    bg_similarity_threshold: float = 0.5
    n_clusters: int | None = None
    k_max: int = 15
    em_iterations: int = 25
    cluster_sample_size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.leaf_capacity < 2:
            raise InvalidParameterError(
                f"leaf_capacity must be >= 2, got {self.leaf_capacity}"
            )
        if not 0.0 <= self.bg_similarity_threshold <= 1.0:
            raise InvalidParameterError(
                "bg_similarity_threshold must be in [0, 1]"
            )
        if self.cluster_sample_size is not None and self.cluster_sample_size < 2:
            raise InvalidParameterError(
                "cluster_sample_size must be >= 2 when set, "
                f"got {self.cluster_sample_size}"
            )


class STRGIndex:
    """Three-level STRG-Index over Object Graphs."""

    def __init__(self, config: STRGIndexConfig | None = None,
                 metric_distance: Distance | Callable | None = None,
                 cluster_distance: Distance | None = None):
        self.config = config or STRGIndexConfig()
        #: Metric distance for leaf keys and query evaluation (EGED_M).
        self.metric_distance = (MetricEGED() if metric_distance is None
                                else metric_distance)
        #: Non-metric distance for clustering (EGED).
        self.cluster_distance = cluster_distance or EGED()
        self.root: list[RootRecord] = []
        self._next_root_id = 0
        #: The row the next filed OG takes (see ``LeafRecord.row``).
        self._next_row = 0
        #: Bumped on every structural change (build/insert/delete/split).
        #: The scan views derived from the tree compare this to detect
        #: staleness.
        self.mutations = 0
        #: Set by :meth:`freeze`; frozen indexes reject mutation, which is
        #: what lets published serving snapshots be shared across threads.
        self.frozen = False
        #: The reference series every leaf record's ``refs`` row is
        #: measured against; ``None`` until a first build of at least
        #: ``MIN_FIT_OGS`` OGs or :meth:`sketch_tier` fits them (or a
        #: store load restores them).  Never written in place.
        self._references: list[np.ndarray] | None = None
        #: Weak handle on ``ShardedIndex.reference_set`` of the index
        #: that made or adopted this one as a shard: where a tier built
        #: without a given source takes its references.  Weak, so that
        #: a shard shared into later snapshots keeps no older corpus
        #: alive.
        self._reference_source: weakref.WeakMethod | None = None
        #: Lazily-built :class:`~repro.core.scan.ScanViews`, the row
        #: table of the exact, range and budgeted reads, rebuilt when
        #: ``mutations`` has moved on or the references were attached.
        self._views: ScanViews | None = None

    def __getstate__(self) -> dict[str, Any]:
        """Everything but the scan views — derived state, keyed by the
        identity of records that a copy (:meth:`clone`, ``deepcopy``, a
        pickle round trip) replaces — and the reference source, which
        belongs to the sharded index holding this one."""
        return {**self.__dict__, "_views": None, "_reference_source": None}

    def freeze(self) -> "STRGIndex":
        """Mark the index immutable (mutations raise ``IndexStateError``).

        Freezing is how the serving layer guarantees snapshot isolation:
        readers share a frozen index while writers accumulate into a new
        one.  Returns ``self`` for chaining.  There is no unfreeze —
        :meth:`clone` this index to mutate again.
        """
        self.frozen = True
        return self

    def clone(self) -> "STRGIndex":
        """A mutable copy that shares everything a write never touches.

        Copied: what insert/delete/split mutate in place — the ``root``
        list, one wrapper per root and cluster record and each leaf's
        sorted lists.  Shared: leaf records (with their reference rows),
        OGs, centroids, clip refs, backgrounds, the reference set,
        config and distances, which nothing writes after insertion.
        O(clusters + pointer copies); a frozen original is untouched by
        writes to it.
        """
        dup = copy.copy(self)
        dup.root = [RootRecord(r.record_id, r.background,
                               r.cluster_node.clone()) for r in self.root]
        dup.frozen = False
        # New record wrappers: scan views are keyed by record identity
        # and must not pass for the clone's.
        dup.mutations += 1
        return dup

    def _check_mutable(self) -> None:
        if self.frozen:
            raise IndexStateError(
                "index is frozen (published as a serving snapshot); "
                "mutate a copy instead"
            )

    # -- construction (Algorithm 2) -----------------------------------------

    def build(self, ogs: Sequence[ObjectGraph],
              background: BackgroundGraph | None = None,
              clip_refs: Sequence[Any] | None = None) -> list[int]:
        """Build the index tree for one video segment (Algorithm 2).

        Creates a root record for ``background``, clusters ``ogs`` with
        EM-EGED (cluster count from config or BIC), synthesizes centroid
        OGs, and fills the leaf nodes with metric keys.  Returns each
        OG's row (the next rows, taken in leaf order).

        When ``cluster_sample_size`` is configured and smaller than the
        input, EM runs on a random sample and the remaining OGs are
        assigned to the nearest synthesized centroid — the scalable
        build path for large databases (assignment is the O(K M) cost
        the paper's Section 6.3 analysis charges to index construction).
        A first build of at least ``MIN_FIT_OGS`` OGs also fits the
        reference set (:func:`build_shards`).
        """
        if not ogs:
            raise IndexStateError("cannot build an index from zero OGs")
        if clip_refs is not None and len(clip_refs) != len(ogs):
            raise InvalidParameterError(
                f"{len(ogs)} OGs but {len(clip_refs)} clip refs"
            )
        self._check_mutable()
        return build_shards([self], [list(ogs)], background, [clip_refs])[0]

    def _cluster(self, ogs: Sequence[ObjectGraph]) -> _Clustering:
        """The EM stage of a build: EM-EGED over ``ogs`` (or its
        configured sample), nothing filed yet."""
        sample_size = self.config.cluster_sample_size
        rng = np.random.default_rng(self.config.seed)
        if sample_size is not None and sample_size < len(ogs):
            sample_idx = rng.choice(len(ogs), size=sample_size, replace=False)
        else:
            sample_idx = np.arange(len(ogs))
        sample = [ogs[int(i)] for i in sample_idx]

        k = self.config.n_clusters
        if k is None:
            k, _ = select_num_clusters(
                sample, 1, min(self.config.k_max, len(sample)),
                distance=self.cluster_distance, seed=self.config.seed,
                max_iterations=self.config.em_iterations,
            )
        k = min(k, len(sample))
        em = EMClustering(
            EMConfig(n_clusters=k, max_iterations=self.config.em_iterations,
                     seed=self.config.seed),
            distance=self.cluster_distance,
        )
        result = em.fit(sample)
        cluster_of: list[int | None] = [None] * len(ogs)
        for i, j in enumerate(sample_idx):
            cluster_of[int(j)] = int(result.assignments[i])
        return _Clustering(
            list(ogs), cluster_of,
            [result.centroids[c] for c in range(result.num_clusters)])

    def _assign(self, plan: _Clustering, items: Any,
                sweep: list[np.ndarray], own: slice
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(keys, clusters, distances)`` of a build batch's OGs.

        A batched metric measures ``items``, the prepared batch, against
        ``sweep`` in one centroid-first
        :func:`~repro.distance.batch.pairwise_matrix` — the O(K M)
        assignment Section 6.3 charges the build — and ``distances`` is
        that ``(len(ogs), len(sweep))`` block, the batch's centroids in
        its columns ``own``.  An EM-sample member keeps EM's cluster;
        any other OG takes its nearest centroid, the first on a tie.
        Any other metric keys pair by pair in the ``(og, centroid)``
        call order (arbitrary, possibly asymmetric callables) and gives
        no block.
        """
        ogs, cluster_of, centroids = plan
        target = np.array([-1 if c is None else c for c in cluster_of],
                          dtype=np.int64)
        out = np.flatnonzero(target < 0)
        if supports_batch(self.metric_distance):
            cols = pairwise_matrix(self.metric_distance, sweep, items).T
            mine = cols[:, own]
            target[out] = np.argmin(mine[out], axis=1)
            return mine[np.arange(len(ogs)), target], target, cols
        keys = np.empty(len(ogs), dtype=np.float64)
        for j, og in enumerate(ogs):
            if target[j] >= 0:
                keys[j] = self.metric_distance(og, centroids[target[j]])
            else:
                pairs = [self.metric_distance(og, c) for c in centroids]
                target[j] = int(np.argmin(pairs))
                keys[j] = pairs[target[j]]
        return keys, target, None

    def _file(self, plan: _Clustering, background: BackgroundGraph | None,
              clip_refs: Sequence[Any] | None, keys: np.ndarray,
              target: np.ndarray) -> list[LeafRecord]:
        """File a build batch under a new root record: one cluster record
        per non-empty cluster, each OG under its key and cluster.  Rows
        are taken in leaf order; returns the records in batch order."""
        self.mutations += 1
        root_record = RootRecord(self._next_root_id, background)
        self._next_root_id += 1
        self.root.append(root_record)
        records = [root_record.cluster_node.add(centroid)
                   for centroid in plan.centroids]
        refs = [None] * len(plan.ogs) if clip_refs is None else clip_refs
        filed = [LeafRecord(float(key), og, ref)
                 for key, og, ref in zip(keys, plan.ogs, refs)]
        for record, c in zip(filed, target.tolist()):
            records[c].leaf.insert(record)
        for record in records:
            if len(record.leaf) == 0:
                root_record.cluster_node.remove(record)
        for record in root_record.cluster_node:
            for leaf_record in record.leaf:
                leaf_record.row = self._next_row
                self._next_row += 1
        return filed

    def _reference_rows(self, ogs: Sequence[ObjectGraph]) -> list:
        """The ``refs`` row of each of ``ogs`` being inserted: one float32
        row per OG against the reference set, or ``None`` per OG while
        the index holds none.  An empty set is fitted on ``ogs``."""
        if self._references is None:
            return [None] * len(ogs)
        self._references, table = reference_rows(
            self.metric_distance, self._references, list(ogs))
        return list(table)

    # -- maintenance (Section 5.3) -------------------------------------------

    def insert(self, og: ObjectGraph,
               background: BackgroundGraph | None = None,
               clip_ref: Any = None) -> int:
        """Insert one OG, splitting its leaf if the BIC test demands it;
        returns its row.

        The OG joins the root record whose BG best matches ``background``
        (or the only/first record when no background is given), then the
        cluster whose centroid is nearest under the metric distance.
        """
        self._check_mutable()
        self.mutations += 1
        with OBS.span("index.insert"):
            root_record = self._match_root(background) if self.root else None
            if root_record is None:
                return self.build([og], background, [clip_ref])[0]
            cluster_node = root_record.cluster_node
            if len(cluster_node) == 0:
                record = cluster_node.add(as_series(og).copy())
                key = float(self.metric_distance(og, record.centroid))
            else:
                records = cluster_node.records
                dists = self._keys_to_centroids(
                    og, [r.centroid for r in records]
                )
                best = int(np.argmin(dists))
                record = records[best]
                key = float(dists[best])
            row = self._next_row
            self._next_row += 1
            (refs,) = self._reference_rows([og])
            record.leaf.insert(LeafRecord(key, og, clip_ref, row, refs))
            if len(record.leaf) > self.config.leaf_capacity:
                self._maybe_split(cluster_node, record)
            return row

    def _keys_to_centroids(self, og, centroids: list[np.ndarray]
                           ) -> np.ndarray:
        """Leaf key of an OG being inserted, against every centroid.

        Batch-capable metrics run the kernel *centroid-first* — the
        direction :meth:`build` computes the stored leaf keys in — as one
        reference-batched sweep of every centroid over the OG
        (:func:`~repro.distance.batch.pairwise_matrix`, each row bit for
        bit a one-centroid call), because the vectorized DP is only
        mathematically (not bit-for-bit) symmetric and an inserted OG
        must get the key a rebuild would store (the store's ``keys``
        column and every incremental ≡ rebuilt contract compare bits).
        Queries do not come through here: the scan ranks all centroids
        query-first in one sweep and absorbs the asymmetry in its prune
        slack.  Other metrics keep the per-pair ``(og, centroid)`` call
        order, matching their per-pair build path.
        """
        if supports_batch(self.metric_distance):
            return pairwise_matrix(self.metric_distance, centroids,
                                   [as_series(og)])[:, 0]
        return np.array(
            [float(self.metric_distance(og, c)) for c in centroids],
            dtype=np.float64,
        )

    def _match_root(self, background: BackgroundGraph | None
                    ) -> RootRecord | None:
        """Root record whose BG is most similar to ``background``.

        Without a background, the first root record is used.  Returns
        ``None`` when the best similarity falls below the threshold,
        signalling that a new root record is needed.
        """
        if background is None or all(
            r.background is None for r in self.root
        ):
            return self.root[0]
        best = None
        best_sim = -1.0
        for record in self.root:
            if record.background is None:
                continue
            sim = record.background.similarity(background)
            if sim > best_sim:
                best_sim = sim
                best = record
        if best is None or best_sim < self.config.bg_similarity_threshold:
            return None
        return best

    def _maybe_split(self, cluster_node: ClusterNode,
                     record: ClusterRecord) -> None:
        """BIC-driven leaf split (Section 5.3).

        Fit EM with K=1 and K=2 on the leaf's OGs; split only when
        ``BIC(K=2) > BIC(K=1)``, replacing the cluster record with two new
        records (and re-keying the members, who keep their rows and
        reference rows).
        """
        filed = list(record.leaf)
        ogs = [leaf_record.og for leaf_record in filed]
        scores = []
        results = []
        for k in (1, 2):
            em = EMClustering(
                EMConfig(n_clusters=k,
                         max_iterations=self.config.em_iterations,
                         seed=self.config.seed),
                distance=self.cluster_distance,
            )
            result = em.fit(ogs)
            results.append(result)
            scores.append(bic_score(result, len(ogs)))
        if scores[1] <= scores[0]:
            return  # the node remains unchanged
        two = results[1]
        if len(np.unique(two.assignments)) < 2:
            return  # degenerate split: everything on one side
        cluster_node.remove(record)
        for c in range(2):
            members = two.cluster_members(c)
            if members.size == 0:
                continue
            new_record = cluster_node.add(two.centroids[c])
            member_ogs = [ogs[int(j)] for j in members]
            if supports_batch(self.metric_distance):
                # Built-in metrics are symmetric: one sweep keys the
                # whole member group against the new centroid.
                keys = one_vs_many(self.metric_distance,
                                   new_record.centroid, member_ogs)
            else:
                keys = [self.metric_distance(og, new_record.centroid)
                        for og in member_ogs]
            for pos, j in enumerate(members):
                new_record.leaf.insert(dataclasses.replace(
                    filed[int(j)], key=float(keys[pos])))

    def delete(self, og_id: int) -> LeafRecord | None:
        """Remove the first OG in leaf order labelled ``og_id`` (labels
        may repeat; a row does not); returns its record, or ``None``."""
        self._check_mutable()
        record = self.record_of(og_id)
        return None if record is None else self.delete_row(record.row)

    def delete_row(self, row: int) -> LeafRecord | None:
        """Remove the OG filed under ``row`` (and its reference row).

        Empty cluster records (and then empty root records) are dropped,
        the maintenance counterpart of Section 5.3's note that centroids
        are "updated as the member OGs are changed such as inserting,
        deleting".  Returns the removed record, or ``None``.
        """
        self._check_mutable()
        for root_record in list(self.root):
            cluster_node = root_record.cluster_node
            for record in list(cluster_node.records):
                removed = record.leaf.remove(row)
                if removed is None:
                    continue
                self.mutations += 1
                if len(record.leaf) == 0:
                    cluster_node.remove(record)
                if len(cluster_node) == 0:
                    self.root.remove(root_record)
                return removed
        return None

    # -- search (Algorithm 3) ---------------------------------------------------

    def search(self, request: SearchRequest) -> SearchResult:
        """Answer one :class:`~repro.search.request.SearchRequest`.

        Exact k-NN is Algorithm 3 as :func:`repro.core.scan.knn_scan`
        runs it: match the query BG at the root (skipped when no
        background is supplied — then every cluster node is searched),
        measure the query against every centroid, and evaluate the
        members of every cluster best-first by their tightest lower
        bound — ``|Key - Key_q|`` (valid because ``EGED_M`` is a
        metric) and, when the index holds a reference set, the same
        bound over each stored reference distance — until the next bound
        exceeds the k-th distance.  A range query is the same scan with
        the bound fixed at ``radius``.

        ``n_probe`` bounds how many nearest clusters are scanned:
        ``None`` gives exact k-NN; ``1`` is the literal Algorithm 3,
        which descends only the best-matching cluster — picked with the
        *non-metric* EGED (step 3) before the metric key is computed
        (step 4) — faster and *cluster-faithful* (results share the
        query's cluster), the behaviour behind the paper's
        precision/recall advantage in Figure 7(c).

        ``search_budget`` switches to the two-stage *approximate* tier
        (``repro.search``, see ``docs/SEARCH.md``): candidate generation
        over the row table's reference columns followed by an exact
        rerank, spending at most ``search_budget`` distance
        evaluations.  That path searches the whole corpus (background
        routing and ``n_probe`` apply to the exact path only); a budget
        of at least ``len(index)`` plus the reference count degenerates
        to exact results.  A monolithic index has one bound, so
        ``prune_bound`` and ``degrade`` change nothing here.
        """
        if request.k == 0:
            return SearchResult([])
        if not self.root:
            raise IndexStateError("cannot search an empty STRG-Index")
        if request.kind == "range":
            with OBS.span("index.range_query", radius=request.radius) as sp:
                hits = range_scan(self.metric_distance, request.series,
                                  self._cluster_views(request.background),
                                  request.radius)
                sp.set(hits=len(hits))
        elif request.search_budget is not None:
            hits = approx_knn([self.sketch_tier()], self.metric_distance,
                              request)
        else:
            with OBS.span("index.knn", k=request.k,
                          n_probe=request.n_probe) as sp:
                OBS.count("index.knn_queries")
                views = probe(self.cluster_distance, request.query,
                              self._cluster_views(request.background),
                              request.n_probe)
                hits = knn_scan(self.metric_distance, request.series, views,
                                request.k)
                sp.set(hits=len(hits))
        return SearchResult(hits)

    def knn(self, query: ObjectGraph | np.ndarray, k: int,
            background: BackgroundGraph | None = None,
            n_probe: int | None = None,
            search_budget: int | None = None
            ) -> list[tuple[float, ObjectGraph, Any]]:
        """k nearest OGs to the query, as ``(distance, og, clip_ref)``
        (sugar for :meth:`search`)."""
        return self.search(SearchRequest.knn(
            query, k, background=background, n_probe=n_probe,
            search_budget=search_budget)).hits

    def range_query(self, query, radius: float,
                    background: BackgroundGraph | None = None
                    ) -> list[tuple[float, ObjectGraph, Any]]:
        """All OGs within ``radius`` of the query (sugar for
        :meth:`search`)."""
        return self.search(SearchRequest.range(
            query, radius, background=background)).hits

    def sketch_tier(self, references: Callable[[], list[np.ndarray]]
                    | None = None) -> ScanViews:
        """The index's row table (:class:`~repro.core.scan.ScanViews`),
        with its reference columns filled.

        An index whose build fitted the set returns its table.  After a
        first build under ``MIN_FIT_OGS`` OGs, the first call fits the
        reference set — the list ``references()`` returns, else the
        reference set of the ``ShardedIndex`` this index is a shard of,
        else :func:`corpus_references` of this index alone — and files
        a copy of every leaf record carrying its row (later builds and
        inserts fill the row as they file).  Safe on a frozen index: only its
        own leaf lists are written, never a record a clone may share,
        and the build lock keeps concurrent readers from attaching
        twice.  A store load restores the rows from its ``sketch_*``
        columns instead (``docs/SEARCH.md``).
        """
        if self._references is None:
            with _LAZY_BUILD_LOCK:
                if self._references is None:
                    source = references or (self._reference_source
                                            and self._reference_source())
                    leaves = [r.leaf for r in self.cluster_records()]
                    ogs = [record.og for leaf in leaves for record in leaf]
                    with OBS.span("search.sketch_build", ogs=len(ogs)):
                        refs = (source() if source
                                else corpus_references([self]))
                        refs, table = reference_rows(
                            self.metric_distance, refs, ogs)
                    at = 0
                    for leaf in leaves:
                        leaf.refile(table[at:at + len(leaf)])
                        at += len(leaf)
                    # Views first: a reader that sees the references
                    # finds no table without their columns.
                    self._views = None
                    self._references = refs
        return self._table()

    def _table(self) -> ScanViews:
        """The current :class:`~repro.core.scan.ScanViews`, built on the
        first read after a mutation or after the references were
        attached: a frozen serving snapshot builds it once, and
        concurrent readers of one snapshot do not build it twice."""
        views = self._views
        if views is None or views.mutations != self.mutations:
            with _LAZY_BUILD_LOCK:
                views = self._views
                if views is None or views.mutations != self.mutations:
                    views = self._views = ScanViews(
                        self.cluster_records(), self.mutations,
                        self._references)
        return views

    def _cluster_views(self, background: BackgroundGraph | None
                       ) -> list[ClusterView]:
        """Scan views of the (BG-routed) non-empty clusters.  An index
        holding a reference set prunes with its columns too; one without
        scans on the leaf keys alone (the paper's Algorithm 3)."""
        views = self._table()
        return [views.by_record[id(record)]
                for record in self.cluster_records(background)
                if len(record.leaf)]

    # -- introspection -----------------------------------------------------------

    def cluster_records(self, background: BackgroundGraph | None = None
                        ) -> list[ClusterRecord]:
        """Cluster records in stable order (optionally BG-routed).

        With a ``background``, the records of the best-matching root are
        returned (all records when nothing matches) — the same routing
        :meth:`knn` applies.  The serving layer's sharded scatter-gather
        iterates this list directly so it can share one global bound
        across shards.
        """
        if background is not None:
            matched = self._match_root(background)
            roots = [matched] if matched is not None else list(self.root)
        else:
            roots = list(self.root)
        return [record for root in roots for record in root.cluster_node]

    def leaf_records(self) -> Iterator[LeafRecord]:
        """Every leaf record, in leaf order (a full write's row order)."""
        for root_record in self.root:
            for cluster_record in root_record.cluster_node:
                yield from cluster_record.leaf

    def record_of(self, og_id: int) -> LeafRecord | None:
        """The first leaf record labelled ``og_id``, or ``None``."""
        return next((record for record in self.leaf_records()
                     if record.og.og_id == og_id), None)

    def object_graphs(self):
        """Iterate over every indexed OG (all roots, clusters, leaves)."""
        return (leaf_record.og for leaf_record in self.leaf_records())

    def __len__(self) -> int:
        return sum(
            record.cluster_node.total_ogs() for record in self.root
        )

    def num_clusters(self) -> int:
        """Total cluster records across all root records."""
        return sum(len(record.cluster_node) for record in self.root)

    def stats(self) -> dict[str, int]:
        """Level-by-level record counts."""
        return {
            "root_records": len(self.root),
            "cluster_records": self.num_clusters(),
            "leaf_records": len(self),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"STRGIndex(backgrounds={s['root_records']}, "
            f"clusters={s['cluster_records']}, ogs={s['leaf_records']})"
        )


def corpus_references(indexes: Sequence[STRGIndex]) -> list[np.ndarray]:
    """The reference list a new tier of ``indexes`` — the shards of one
    corpus — takes: the one an index among them holds, else
    :func:`~repro.search.sketch.fit_references` over all their
    centroids and members."""
    for index in indexes:
        if index._references is not None:
            return index._references
    return fit_references(
        indexes[0].metric_distance,
        [record.centroid for index in indexes
         for record in index.cluster_records()],
        [record.og for index in indexes for record in index.leaf_records()])


def build_shards(indexes: Sequence[STRGIndex],
                 batches: Sequence[Sequence[ObjectGraph]],
                 background: BackgroundGraph | None,
                 clip_refs: Sequence[Sequence[Any] | None]) -> list[list[int]]:
    """Build ``batches[s]`` into ``indexes[s]`` — the shards of one
    corpus, or a monolithic index alone — and return each batch's rows.

    Every shard runs its EM first.  A first build — no index holds an
    OG or a reference set — of at least ``MIN_FIT_OGS`` OGs then fits
    the corpus's reference set by :func:`corpus_references`' rule, in
    the same distance sweep as the keys: each shard measures its batch
    once against every centroid of the corpus.  Its own centroids'
    columns give the leaf keys; the columns of the distinct centroids
    of non-empty clusters, cast to float32, are the records' ``refs``
    rows.  When those centroids are fewer than ``MIN_REFERENCES``, the
    top-up is fitted on the filed tree, in leaf order, and swept as a
    second block.  Every index, one with an empty batch too, takes the
    set.  A later build sweeps its centroids and the set its index
    holds; an index without one (a smaller first build) files no rows,
    and its first tier is fitted lazily (:meth:`STRGIndex.sketch_tier`).
    """
    with OBS.span("index.build", ogs=sum(len(ogs) for ogs in batches)):
        plans = [index._cluster(ogs) if len(ogs) else None
                 for index, ogs in zip(indexes, batches)]
        fit = (sum(len(ogs) for ogs in batches) >= MIN_FIT_OGS
               and not any(len(index) or index._references
                           for index in indexes))
        corpus = [c for plan in plans if plan is not None
                  for c in plan.centroids]
        batched = supports_batch(indexes[0].metric_distance)
        swept: list[tuple[list[LeafRecord], Any, np.ndarray | None]] = []
        used: list[int] = []   # corpus positions of non-empty clusters
        at = 0                 # corpus position of the batch's centroids
        for index, plan, refs in zip(indexes, plans, clip_refs):
            if plan is None:
                swept.append(([], None, None))
                continue
            if not index._references:
                index._references = None   # an empty set holds nothing
            k = len(plan.centroids)
            held = index._references or []
            sweep, own = ((corpus, slice(at, at + k)) if fit
                          else ([*plan.centroids, *held], slice(0, k)))
            items = PaddedBatch(plan.ogs) if batched else plan.ogs
            keys, target, cols = index._assign(plan, items, sweep, own)
            filed = index._file(plan, background, refs, keys, target)
            if held:
                _fill(filed, cols[:, k:] if batched else reference_rows(
                    index.metric_distance, held, items)[1])
            swept.append((filed, items, cols))
            used.extend(at + c for c in sorted(set(target.tolist())))
            at += k
        if fit:
            _fit_at_build(indexes, [corpus[c] for c in used], used, swept)
    return [[record.row for record in filed] for filed, _, _ in swept]


def _fit_at_build(indexes: Sequence[STRGIndex],
                  centroids: list[np.ndarray], columns: list[int],
                  swept: list[tuple[list[LeafRecord], Any,
                                    np.ndarray | None]]) -> None:
    """Give every index the reference set of a first build and each
    filed record its row.  ``centroids`` are the corpus's non-empty
    clusters' centroids, at sweep ``columns``; ``swept`` is each
    index's filed records, prepared batch and swept block."""
    metric = indexes[0].metric_distance
    # The column of each distinct centroid's first copy, in the order
    # fit_references keeps them.
    first: dict[tuple, int] = {}
    for centroid, column in zip(centroids, columns):
        first.setdefault(series_key(centroid), column)
    kept = list(first.values())
    references = fit_references(
        metric, centroids,
        [record.og for index in indexes for record in index.leaf_records()])
    top = references[len(kept):]
    for index, (filed, items, cols) in zip(indexes, swept):
        index._references = references
        index._views = None
        if not filed:
            continue
        if cols is None:
            rows = reference_rows(metric, references, items)[1]
        else:
            rows = cols[:, kept]
            if top:
                rows = np.hstack([rows,
                                  pairwise_matrix(metric, top, items).T])
        _fill(filed, rows)


def _fill(filed: Sequence[LeafRecord], rows: np.ndarray) -> None:
    """Give each record of a build its float32 ``refs`` row (before the
    build returns: nothing else holds its records yet)."""
    for record, row in zip(filed, np.ascontiguousarray(rows,
                                                       dtype=np.float32)):
        record.refs = row


def extend_index(index, ogs: Sequence[ObjectGraph],
                 background: BackgroundGraph | None = None,
                 clip_refs: Sequence[Any] | None = None) -> list:
    """Add a batch of OGs that share one background to ``index``.

    An empty index (monolithic or sharded) is *built* from the batch in
    one pass (Algorithm 2); a populated one takes the OGs one
    :meth:`~STRGIndex.insert` at a time (Section 5.3).  This is the one
    home of that rule: ``VideoPipeline.process`` and every
    ``LiveIndex`` compaction apply it, so an index grown clip by clip
    stores the same columns whichever path grew it.  It returns each
    OG's ``(shard, row)`` (its row, on an ``STRGIndex``).
    """
    if not ogs:
        return []
    refs = list(clip_refs) if clip_refs is not None else [None] * len(ogs)
    if len(index) == 0:
        return index.build(ogs, background, refs)
    return [index.insert(og, background, ref) for og, ref in zip(ogs, refs)]
