"""The STRG-Index: build (Algorithm 2), maintenance (Section 5.3) and
k-NN search (Algorithm 3).

The index clusters OGs with EM + non-metric EGED, synthesizes a centroid
OG per cluster, and keys each member by the *metric* EGED to its centroid.
Because ``EGED_M`` is a metric (Theorem 2), the key difference
``|Key_q - Key_o|`` lower-bounds the true distance, which is what lets
search skip distance evaluations — the effect Figure 7(b) measures.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

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
from repro.distance.base import Distance, as_series
from repro.distance.batch import one_vs_many, pairwise_matrix, supports_batch
from repro.distance.eged import EGED, MetricEGED
from repro.errors import IndexStateError, InvalidParameterError
from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.search.request import SearchRequest, SearchResult
from repro.search.sketch import SketchIndex, approx_knn

#: Guards lazy construction of the sketch tier and of the scan views.
#: Module-level (not per-index): building is rare, and an index that owns
#: no lock stays picklable.
_LAZY_BUILD_LOCK = threading.Lock()


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
        #: Lazily-built :class:`~repro.search.sketch.SketchIndex` backing
        #: budgeted (``search_budget=``) queries; maintained incrementally
        #: by :meth:`insert` / :meth:`delete` once built, persisted in
        #: snapshots, and rebuilt on demand when absent.
        self._sketches = None
        #: Lazily-built :class:`~repro.core.scan.ScanViews` of the exact
        #: and range scans, rebuilt when ``mutations`` has moved on or
        #: another sketch is attached.  Budgeted queries never build it.
        self._views: ScanViews | None = None

    def __getstate__(self) -> dict[str, Any]:
        """Everything but the scan views: they are derived state, keyed
        by the identity of records that a copy (:meth:`clone`,
        ``deepcopy``, a pickle round trip) replaces."""
        return {**self.__dict__, "_views": None}

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
        list, one wrapper per root and cluster record, each leaf's
        sorted lists, the sketch tier's mask and row list.  Shared: leaf
        records, OGs, centroids, clip refs, backgrounds, config and
        distances, which nothing writes after insertion.  O(clusters +
        pointer copies); a frozen original is untouched by writes to it.
        """
        dup = copy.copy(self)
        dup.root = [RootRecord(r.record_id, r.background,
                               r.cluster_node.clone()) for r in self.root]
        dup.frozen = False
        # New record wrappers: scan views are keyed by record identity
        # and must not pass for the clone's.
        dup.mutations += 1
        if self._sketches is not None:
            dup._sketches = self._sketches.clone()
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
        """
        if not ogs:
            raise IndexStateError("cannot build an index from zero OGs")
        if clip_refs is not None and len(clip_refs) != len(ogs):
            raise InvalidParameterError(
                f"{len(ogs)} OGs but {len(clip_refs)} clip refs"
            )
        self._check_mutable()
        self.mutations += 1
        with OBS.span("index.build", ogs=len(ogs)):
            return self._build(ogs, background, clip_refs)

    def _build(self, ogs: Sequence[ObjectGraph],
               background: BackgroundGraph | None,
               clip_refs: Sequence[Any] | None) -> list[int]:
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

        root_record = RootRecord(self._next_root_id, background)
        self._next_root_id += 1
        self.root.append(root_record)
        records = [
            root_record.cluster_node.add(result.centroids[c])
            for c in range(result.num_clusters)
        ]

        # EM's cluster per input position; ``None`` outside the sample.
        cluster_of: list[int | None] = [None] * len(ogs)
        for i, j in enumerate(sample_idx):
            cluster_of[int(j)] = int(result.assignments[i])
        refs = list(clip_refs) if clip_refs is not None else [None] * len(ogs)
        filed: list[LeafRecord] = []
        if supports_batch(self.metric_distance):
            # Batched key computation: one DP sweep per (cluster, member
            # group) for EM-assigned OGs, and one centroids x OGs block
            # for the out-of-sample OGs (the O(K M) assignment of Section
            # 6.3's build cost) — the same evaluations as the per-pair
            # path, so CountingDistance totals are unchanged.
            og_series = [as_series(og) for og in ogs]
            keys = np.empty(len(ogs), dtype=np.float64)
            target = np.empty(len(ogs), dtype=np.int64)
            grouped: dict[int, list[int]] = {}
            unassigned: list[int] = []
            for j, cluster in enumerate(cluster_of):
                if cluster is None:
                    unassigned.append(j)
                else:
                    grouped.setdefault(cluster, []).append(j)
            for cluster, members in grouped.items():
                target[members] = cluster
                keys[members] = one_vs_many(
                    self.metric_distance, records[cluster].centroid,
                    [og_series[j] for j in members],
                )
            if unassigned:
                cols = pairwise_matrix(
                    self.metric_distance,
                    [record.centroid for record in records],
                    [og_series[j] for j in unassigned],
                ).T
                best = np.argmin(cols, axis=1)
                keys[unassigned] = cols[np.arange(len(unassigned)), best]
                target[unassigned] = best
            for j, og in enumerate(ogs):
                filed.append(LeafRecord(float(keys[j]), og, refs[j]))
                records[int(target[j])].leaf.insert(filed[-1])
        else:
            # Per-pair fallback preserving the (og, centroid) call order
            # for arbitrary (possibly asymmetric) metric callables.
            for j, og in enumerate(ogs):
                cluster = cluster_of[j]
                if cluster is not None:
                    record = records[cluster]
                    key = self.metric_distance(og, record.centroid)
                else:
                    pairs = [self.metric_distance(og, r.centroid)
                             for r in records]
                    best = int(np.argmin(pairs))
                    record = records[best]
                    key = pairs[best]
                filed.append(LeafRecord(key, og, refs[j]))
                record.leaf.insert(filed[-1])
        for record in list(records):
            if len(record.leaf) == 0:
                root_record.cluster_node.remove(record)
        for record in root_record.cluster_node:
            for leaf_record in record.leaf:
                leaf_record.row = self._next_row
                self._next_row += 1
        rows = [leaf_record.row for leaf_record in filed]
        if self._sketches is not None:
            self._sketches.add(self.metric_distance, list(ogs), refs, rows)
        return rows

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
            record.leaf.insert(LeafRecord(key, og, clip_ref, row))
            if self._sketches is not None:
                # Splits never change membership, so appending one
                # sketch row here keeps row set == leaf set exactly.
                self._sketches.add(self.metric_distance, [og], [clip_ref],
                                   [row])
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
        records (and re-keying the members, who keep their rows).
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
        """Remove the OG filed under ``row`` from the tree and the sketch.

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
                if self._sketches is not None:
                    self._sketches.remove(row)
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
        metric) and, when the index holds a sketch tier, the same bound
        over each stored sketch pivot distance — until the next bound
        exceeds the k-th distance.  A range query is the same scan with the bound fixed
        at ``radius``.

        ``n_probe`` bounds how many nearest clusters are scanned:
        ``None`` gives exact k-NN; ``1`` is the literal Algorithm 3,
        which descends only the best-matching cluster — picked with the
        *non-metric* EGED (step 3) before the metric key is computed
        (step 4) — faster and *cluster-faithful* (results share the
        query's cluster), the behaviour behind the paper's
        precision/recall advantage in Figure 7(c).

        ``search_budget`` switches to the two-stage *approximate* tier
        (``repro.search``, see ``docs/SEARCH.md``): candidate generation
        over per-OG sketches followed by an exact rerank spending at
        most ``search_budget`` distance evaluations.  That path searches
        the whole corpus (background routing and ``n_probe`` apply to
        the exact path only); a budget of at least ``len(index) +
        num_pivots`` degenerates to exact results.  A monolithic index
        has one bound, so ``prune_bound`` and ``degrade`` change nothing
        here.
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

    def sketch_tier(self):
        """The :class:`~repro.search.sketch.SketchIndex` for this corpus.

        Built lazily on first use (one batched pivot sweep over every
        leaf record) and maintained incrementally afterwards; once held,
        its pivot table also prunes the exact and range scans.  Safe on a
        frozen index: attaching the sketch is not a structural mutation,
        and the module-level build lock keeps concurrent readers of a
        shared serving snapshot from building it twice.

        An index restored from a columnar snapshot gets its sketch
        re-attached from the store's ``sketch_*`` columns instead
        (zero-copy views under ``load_index(mmap=True)``), skipping the
        pivot sweep; fully out-of-core budgeted search — sketch scan
        and shortlist fetch both streamed from the store, no tree at
        all, on monolithic and sharded stores alike — lives one layer
        up, in :meth:`repro.storage.columnar.ColumnarStore.load_sketch`
        and lazy :func:`repro.open_database` (see ``docs/SEARCH.md``).
        """
        sketch = self._sketches
        if sketch is not None:
            return sketch
        with _LAZY_BUILD_LOCK:
            if self._sketches is None:
                records = list(self.leaf_records())
                with OBS.span("search.sketch_build", ogs=len(records)):
                    self._sketches = SketchIndex.build(
                        self.metric_distance,
                        [record.og for record in records],
                        [record.clip_ref for record in records],
                        [record.row for record in records],
                    )
            return self._sketches

    def _cluster_views(self, background: BackgroundGraph | None
                       ) -> list[ClusterView]:
        """Scan views of the (BG-routed) non-empty clusters.

        Built on the first exact or range read after a mutation, or
        after a sketch tier was attached: a frozen serving snapshot
        builds them once, and concurrent readers of one snapshot do not
        build them twice.  An index holding a sketch prunes with its
        pivot table too; one without scans on the leaf keys alone
        (the paper's Algorithm 3).
        """
        sketch = self._sketches

        def stale(views: ScanViews | None) -> bool:
            return (views is None or views.mutations != self.mutations
                    or views.sketch is not sketch)

        views = self._views
        if stale(views):
            with _LAZY_BUILD_LOCK:
                views = self._views
                if stale(views):
                    views = self._views = ScanViews(
                        self.cluster_records(), self.mutations, sketch)
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
