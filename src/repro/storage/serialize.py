"""The column codec of the store.

:func:`index_to_arrays` flattens an STRG-Index — tree shape (root ->
cluster -> leaf membership) as integer arrays, centroid/OG payloads as
ragged columns with offset tables, per-root Background Graphs, the
sketch tier — and :func:`index_from_arrays` rebuilds it, so a loaded
index answers queries (including background-routed ones) identically.
:mod:`repro.storage.columnar` stores exactly these columns, one segment
file per snapshot or write batch.
"""

from __future__ import annotations

import logging
import os
from typing import Any, Sequence

import numpy as np

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.core.nodes import LeafRecord, RootRecord
from repro.distance.eged import MetricEGED
from repro.errors import InvalidParameterError
from repro.graph.attributes import NodeAttributes
from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph
from repro.graph.rag import RegionAdjacencyGraph

logger = logging.getLogger(__name__)


def _pack_ragged(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a list of (n_i, d) arrays into (sum n_i, d) + offsets."""
    if arrays:
        flat = np.concatenate([np.asarray(a, dtype=np.float64) for a in arrays])
    else:
        flat = np.zeros((0, 1))
    offsets = np.cumsum([0] + [np.asarray(a).shape[0] for a in arrays])
    return flat, offsets.astype(np.int64)


def _pack_ogs(ogs: Sequence[ObjectGraph]) -> dict[str, np.ndarray]:
    """The ``og_*`` columns of ``ogs``: ragged values, labels, frames."""
    og_flat, og_offsets = _pack_ragged([og.values for og in ogs])
    frames = (np.concatenate([np.asarray(og.frames, dtype=np.int64)
                              for og in ogs])
              if ogs else np.zeros(0, dtype=np.int64))
    labels = np.array([-1 if og.label is None else og.label for og in ogs],
                      dtype=np.int64)
    return dict(og_values=og_flat, og_offsets=og_offsets, og_labels=labels,
                og_frames=frames)


def _unpack_ragged(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`_pack_ragged`."""
    return [
        flat[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)
    ]


def _pack_backgrounds(roots: Sequence[RootRecord]) -> dict[str, np.ndarray]:
    """Flatten the per-root Background Graphs into flat numeric arrays.

    Roots with ``background=None`` are encoded with a frame count of -1.
    Node ids are re-serialized positionally; edges reference positions.
    """
    node_rows: list[list[float]] = []   # size, r, g, b, cx, cy
    node_offsets = [0]
    edge_rows: list[list[int]] = []     # root ordinal, u position, v position
    frame_counts: list[int] = []
    for root in roots:
        bg = root.background
        if bg is None:
            frame_counts.append(-1)
            node_offsets.append(node_offsets[-1])
            continue
        frame_counts.append(bg.frame_count)
        ordering = {node: pos for pos, node in enumerate(bg.rag.nodes())}
        for node in ordering:
            attrs = bg.rag.node_attrs(node)
            node_rows.append([float(attrs.size), *attrs.color,
                              *attrs.centroid])
        for u, v in bg.rag.edges():
            edge_rows.append([len(frame_counts) - 1, ordering[u], ordering[v]])
        node_offsets.append(node_offsets[-1] + len(ordering))
    return {
        "bg_nodes": np.asarray(node_rows, dtype=np.float64).reshape(-1, 6),
        "bg_node_offsets": np.asarray(node_offsets, dtype=np.int64),
        "bg_edges": np.asarray(edge_rows, dtype=np.int64).reshape(-1, 3),
        "bg_frames": np.asarray(frame_counts, dtype=np.int64),
    }


def _unpack_backgrounds(data) -> list[BackgroundGraph | None]:
    """Inverse of :func:`_pack_backgrounds`."""
    nodes = data["bg_nodes"]
    offsets = data["bg_node_offsets"]
    edges = data["bg_edges"]
    frame_counts = data["bg_frames"]
    backgrounds: list[BackgroundGraph | None] = []
    for ordinal, frames in enumerate(frame_counts):
        if frames < 0:
            backgrounds.append(None)
            continue
        rag = RegionAdjacencyGraph(frame_index=-1)
        lo, hi = int(offsets[ordinal]), int(offsets[ordinal + 1])
        for pos in range(lo, hi):
            size, r, g, b, cx, cy = nodes[pos]
            rag.add_node(pos - lo, NodeAttributes(
                size=int(size), color=(r, g, b), centroid=(cx, cy)
            ))
        for root_ord, u, v in edges:
            if int(root_ord) == ordinal:
                rag.add_edge(int(u), int(v))
        backgrounds.append(BackgroundGraph(rag, int(frames)))
    return backgrounds


def _pack_sketch(index: STRGIndex, rows: Sequence[int]
                 ) -> tuple[dict[str, np.ndarray], str | None]:
    """Sketch-tier columns for a snapshot (empty when unbuilt).

    Returns the numeric ``sketch_*`` arrays — the reference series and
    each row's float32 distance to every one of them — plus the JSON
    meta string.  Sketch rows are stored in the snapshot's leaf-record
    order: ``rows`` are those records' index rows, each matched to its
    sketch row.  A sketch that lost sync with the index (should not
    happen; defensive) is dropped and will be rebuilt on demand.
    """
    sketch = getattr(index, "_sketches", None)
    if sketch is None or not sketch.pivots or len(sketch) != len(rows):
        if sketch is not None and len(sketch) != len(rows):
            logger.warning(
                "sketch tier out of sync with index (%d rows vs %d OGs); "
                "not persisting it", len(sketch), len(rows))
        return {}, None
    from repro.search.sketch import sketch_meta_json

    stored = sketch.rows_of(rows)
    if stored is None:
        logger.warning("sketch tier missing rows for indexed OGs; "
                       "not persisting it")
        return {}, None
    pivot_flat, pivot_offsets = _pack_ragged(sketch.pivots)
    return dict(
        sketch_pivot_values=pivot_flat,
        sketch_pivot_offsets=pivot_offsets,
        sketch_pivot_dists=stored,
    ), sketch_meta_json(sketch)


#: The columns :func:`_pack_sketch` writes (``sketch_meta`` rides in
#: the segment meta).  Stores written through 17.x also hold a
#: ``sketch_sig`` column, which nothing reads.
SKETCH_COLUMNS = ("sketch_pivot_values", "sketch_pivot_offsets",
                  "sketch_pivot_dists")

#: What a malformed sketch payload raises from :func:`read_sketch`
#: (``ValueError`` covers bad JSON and shape mismatches).
SKETCH_PAYLOAD_ERRORS = (KeyError, ValueError, TypeError)


def read_sketch(columns, sketch_meta: str, row_ids: np.ndarray, rows):
    """The sketch tier of one segment: its meta plus its
    :data:`SKETCH_COLUMNS` (RAM copies or mmap views, bound zero-copy
    as the sketch's base), row ``i`` being index row ``row_ids[i]`` with
    its record at row ``i`` of the ``rows`` provider.

    Raises one of :data:`SKETCH_PAYLOAD_ERRORS` when the payload is
    malformed — a missing column, or a reference count that does not
    match the distance columns' shape; each caller applies its own
    failure policy.
    """
    from repro.search.sketch import sketch_from_meta

    sketch = sketch_from_meta(sketch_meta)
    sketch.pivots = [
        np.asarray(p, dtype=np.float64)
        for p in _unpack_ragged(columns["sketch_pivot_values"],
                                columns["sketch_pivot_offsets"])
    ]
    sketch.attach_rows(row_ids, columns["sketch_pivot_dists"], rows)
    return sketch


def _unpack_sketch(data, sketch_meta: str,
                   loaded: list[tuple[ObjectGraph, object]],
                   path: str | os.PathLike):
    """Rebuild the sketch tier from a snapshot's ``sketch_*`` arrays.

    ``loaded`` is the ``(og, clip_ref)`` list in stored row order — the
    order :func:`_pack_sketch` wrote its rows in (= their tree rows);
    the tree's OGs are already materialized, so every record is held in
    memory.  Anything
    off about the payload logs a warning and returns ``None`` (the lazy
    rebuild-on-demand fallback), never a corrupt sketch.
    """
    from repro.search.sketch import SketchRows

    try:
        return read_sketch(data, sketch_meta,
                           np.arange(len(loaded), dtype=np.int64),
                           SketchRows(loaded))
    except SKETCH_PAYLOAD_ERRORS as exc:
        logger.warning(
            "ignoring unreadable sketch payload in %s (%s: %s); the "
            "sketch tier will be rebuilt on first budgeted query",
            os.fspath(path), type(exc).__name__, exc)
        return None


def leaf_ogs(index) -> list[tuple[ObjectGraph, Any]]:
    """``(og, clip_ref)`` pairs in the stable leaf-iteration order, shard
    by shard (an ``STRGIndex`` is one shard).

    This is *the* stored row order: columnar segments number each
    shard's rows by it, and sketch arrays are persisted positionally
    against it.
    """
    from repro.serving.sharding import ShardedIndex

    return [(record.og, record.clip_ref)
            for shard in ShardedIndex.of(index).shards
            for record in shard.leaf_records()]


def recorded_gap(metric: Any) -> float:
    """The gap of the ``MetricEGED`` an index keys with (read through a
    ``CountingDistance``) — the one metric a store can name, and what
    it records as ``metric_gap``.  Any other metric raises
    ``InvalidParameterError``: a reload would key and answer with a
    metric other than the one behind the stored keys."""
    inner = getattr(metric, "inner", metric)
    if not isinstance(inner, MetricEGED):
        raise InvalidParameterError(
            f"a store records its index's metric as a MetricEGED gap; "
            f"cannot store an index keyed by {metric!r}")
    return inner.gap


def index_to_arrays(index: STRGIndex
                    ) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Flatten an STRG-Index into numeric columns + JSON-able meta.

    The columns are the flat structured arrays a columnar segment
    stores: trajectories plus an offsets table, per-row
    labels/keys/cluster ordinals, centroid and background tables, and
    — when built — the sketch tier.  ``meta`` carries everything
    non-numeric: the index config with the gap of the index's metric
    (:func:`recorded_gap`), per-row clip refs, root count and the sketch
    meta JSON.
    """
    ogs: list[ObjectGraph] = []
    rows: list[int] = []
    keys: list[float] = []
    leaf_of_og: list[int] = []   # cluster record ordinal per leaf record
    centroids: list[np.ndarray] = []
    cluster_root: list[int] = []  # root record ordinal per cluster record
    refs: list = []
    cluster_ordinal = 0
    for root_ordinal, root_record in enumerate(index.root):
        for cluster_record in root_record.cluster_node:
            centroids.append(cluster_record.centroid)
            cluster_root.append(root_ordinal)
            for leaf_record in cluster_record.leaf:
                ogs.append(leaf_record.og)
                rows.append(leaf_record.row)
                keys.append(leaf_record.key)
                leaf_of_og.append(cluster_ordinal)
                refs.append(leaf_record.clip_ref)
            cluster_ordinal += 1
    cen_flat, cen_offsets = _pack_ragged(centroids)
    config = index.config
    sketch_arrays, sketch_meta = _pack_sketch(index, rows)
    arrays = dict(
        **_pack_ogs(ogs),
        keys=np.asarray(keys, dtype=np.float64),
        leaf_of_og=np.asarray(leaf_of_og, dtype=np.int64),
        centroid_values=cen_flat, centroid_offsets=cen_offsets,
        cluster_root=np.asarray(cluster_root, dtype=np.int64),
        **_pack_backgrounds(index.root),
        **sketch_arrays,
    )
    meta = {
        "num_roots": len(index.root),
        "config": {
            "leaf_capacity": config.leaf_capacity,
            "bg_similarity_threshold": config.bg_similarity_threshold,
            "n_clusters": config.n_clusters,
            "k_max": config.k_max,
            "em_iterations": config.em_iterations,
            "metric_gap": recorded_gap(index.metric_distance),
            "seed": config.seed,
        },
        "refs": refs,
        "sketch_meta": sketch_meta,
    }
    return arrays, meta


def index_from_arrays(arrays, meta: dict[str, Any],
                      source: str = "<arrays>",
                      og_id_base: int | None = None) -> STRGIndex:
    """Rebuild an STRG-Index from :func:`index_to_arrays` output.

    Stored record ``i`` is filed under row ``i``, its OG labelled
    ``og_id_base + i`` (default: a fresh og_id).

    ``arrays`` may be any mapping of name to array — in-RAM copies or
    memory-mapped column views.  Values (and frames) are *sliced*,
    never copied, so an index built over memory-mapped columns holds
    zero-copy views into the store file: pages fault in only when a
    query actually evaluates a trajectory.

    Raises ``KeyError``/``ValueError``/``IndexError`` on malformed
    payloads — callers wrap these in an
    :class:`~repro.errors.IndexCorruptionError`.
    """
    og_values = _unpack_ragged(arrays["og_values"], arrays["og_offsets"])
    labels = arrays["og_labels"]
    keys = arrays["keys"]
    leaf_of_og = arrays["leaf_of_og"]
    centroids = _unpack_ragged(
        arrays["centroid_values"], arrays["centroid_offsets"]
    )
    cluster_root = arrays["cluster_root"]
    num_roots = int(meta["num_roots"])
    config_kwargs = dict(meta["config"])
    gap = float(config_kwargs.pop("metric_gap"))
    refs = meta["refs"]
    # A 9.x base that 15.0.0 converted was copied column for column and
    # may lack frames and backgrounds.
    og_frames = None
    if "og_frames" in arrays:
        frames_flat = arrays["og_frames"]
        if frames_flat.shape[0] == int(arrays["og_offsets"][-1]):
            og_frames = _unpack_ragged(frames_flat, arrays["og_offsets"])
    if "bg_frames" in arrays:
        backgrounds = _unpack_backgrounds(arrays)
    else:
        backgrounds = [None] * num_roots

    index = STRGIndex(STRGIndexConfig(**config_kwargs),
                      metric_distance=MetricEGED(gap))
    roots = [RootRecord(i, backgrounds[i]) for i in range(num_roots)]
    index.root = roots
    index._next_root_id = num_roots
    cluster_records = []
    for centroid, root_ordinal in zip(centroids, cluster_root):
        record = roots[int(root_ordinal)].cluster_node.add(centroid)
        cluster_records.append(record)
    loaded: list[tuple[ObjectGraph, object]] = []
    for i, (values, label) in enumerate(zip(og_values, labels)):
        og = ObjectGraph(
            values=values, label=None if label < 0 else int(label),
            frames=(og_frames[i] if og_frames is not None else None),
            **({} if og_id_base is None else {"og_id": og_id_base + i}),
        )
        record = cluster_records[int(leaf_of_og[i])]
        ref = refs[i] if i < len(refs) else None
        record.leaf.insert(LeafRecord(float(keys[i]), og, ref, i))
        loaded.append((og, ref))
    index._next_row = len(loaded)
    sketch_meta = meta.get("sketch_meta")
    if sketch_meta is not None:
        index._sketches = _unpack_sketch(arrays, sketch_meta, loaded,
                                         source)
    return index
