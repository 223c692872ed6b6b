"""The column codec of the store.

:func:`index_to_arrays` flattens an STRG-Index — tree shape (root ->
cluster -> leaf membership) as integer arrays, centroid/OG payloads as
ragged columns with offset tables, per-root Background Graphs, the
reference set and each record's row against it — and
:func:`index_from_arrays` rebuilds it, so a loaded
index answers queries (including background-routed ones) identically.
:mod:`repro.storage.columnar` stores exactly these columns, one segment
file per snapshot or write batch.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any, Sequence

import numpy as np

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.core.nodes import LeafRecord, RootRecord, reference_table
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


def _pack_sketch(references: list[np.ndarray] | None,
                 records: Sequence[LeafRecord]
                 ) -> tuple[dict[str, np.ndarray], str | None]:
    """Reference columns for a snapshot (none without ``references``).

    Returns the numeric ``sketch_*`` arrays — the reference series and
    each record's float32 ``refs`` row, in the snapshot's leaf-record
    order — plus the ``sketch_meta`` string, ``"{}"``: it marks that
    the segment holds the columns, which carry everything.
    """
    if not references:
        return {}, None
    pivot_flat, pivot_offsets = _pack_ragged(references)
    return dict(
        sketch_pivot_values=pivot_flat,
        sketch_pivot_offsets=pivot_offsets,
        sketch_pivot_dists=reference_table(records, len(references)),
    ), "{}"


#: The columns :func:`_pack_sketch` writes (``sketch_meta`` rides in
#: the segment meta).  Stores written through 17.x also hold a
#: ``sketch_sig`` column, which nothing reads.
SKETCH_COLUMNS = ("sketch_pivot_values", "sketch_pivot_offsets",
                  "sketch_pivot_dists")

#: What a malformed sketch payload raises from :func:`read_references`
#: (``ValueError`` covers bad JSON and shape mismatches).
SKETCH_PAYLOAD_ERRORS = (KeyError, ValueError, TypeError)


def read_references(columns, sketch_meta: str, rows: int
                    ) -> tuple[list[np.ndarray], np.ndarray]:
    """The reference set of one segment and its ``(rows, R)`` float32
    reference rows, from the meta and the :data:`SKETCH_COLUMNS` (RAM
    copies or mmap views; float32 columns stay zero-copy, and float64
    ones — stores written through 17.x — are rounded here).

    Metas written through 17.x record a signature bounding box, and
    through 13.x the sketch settings under ``config``; any stored
    reference set still gives valid bounds, so both are ignored.
    Raises one of :data:`SKETCH_PAYLOAD_ERRORS` when the payload is
    malformed — bad JSON, a missing column, or a reference count that
    does not match the distance columns' shape; each caller applies its
    own failure policy.
    """
    json.loads(sketch_meta)
    pivots = [
        np.asarray(p, dtype=np.float64)
        for p in _unpack_ragged(columns["sketch_pivot_values"],
                                columns["sketch_pivot_offsets"])
    ]
    dists = np.asarray(columns["sketch_pivot_dists"], dtype=np.float32)
    if dists.shape != (rows, len(pivots)):
        raise ValueError(f"sketch_pivot_dists shape {dists.shape} does not "
                         f"match {rows} rows x {len(pivots)} references")
    return pivots, dists


def _unpack_sketch(data, sketch_meta: str | None, rows: int,
                   path: str | os.PathLike
                   ) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """The reference set and rows of a snapshot, for the tree's records
    in stored row order, or ``(None, None)`` when it holds none.
    Anything off about the payload logs a warning and loads the tree
    without references (a budgeted read fits them again), never with
    corrupt ones."""
    if sketch_meta is None:
        return None, None
    try:
        return read_references(data, sketch_meta, rows)
    except SKETCH_PAYLOAD_ERRORS as exc:
        logger.warning(
            "ignoring unreadable sketch payload in %s (%s: %s); the "
            "references will be fitted again on first budgeted query",
            os.fspath(path), type(exc).__name__, exc)
        return None, None


def leaf_ogs(index) -> list[tuple[ObjectGraph, Any]]:
    """``(og, clip_ref)`` pairs in the stable leaf-iteration order, shard
    by shard (an ``STRGIndex`` is one shard).

    This is *the* stored row order: columnar segments number each
    shard's rows by it, and reference rows are persisted positionally
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
    — when held — the reference set and rows.  ``meta`` carries everything
    non-numeric: the index config with the gap of the index's metric
    (:func:`recorded_gap`), per-row clip refs, root count and the sketch
    meta JSON.
    """
    records: list[LeafRecord] = []
    keys: list[float] = []
    leaf_of_og: list[int] = []   # cluster record ordinal per leaf record
    centroids: list[np.ndarray] = []
    cluster_root: list[int] = []  # root record ordinal per cluster record
    refs: list = []
    # Read before the leaf walk: a concurrent sketch_tier() publishes
    # references only once every leaf's records carry their rows.
    references = index._references
    cluster_ordinal = 0
    for root_ordinal, root_record in enumerate(index.root):
        for cluster_record in root_record.cluster_node:
            centroids.append(cluster_record.centroid)
            cluster_root.append(root_ordinal)
            for leaf_record in cluster_record.leaf:
                records.append(leaf_record)
                keys.append(leaf_record.key)
                leaf_of_og.append(cluster_ordinal)
                refs.append(leaf_record.clip_ref)
            cluster_ordinal += 1
    cen_flat, cen_offsets = _pack_ragged(centroids)
    config = index.config
    sketch_arrays, sketch_meta = _pack_sketch(references, records)
    arrays = dict(
        **_pack_ogs([record.og for record in records]),
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
    references, dists = _unpack_sketch(arrays, meta.get("sketch_meta"),
                                       len(og_values), source)
    for i, (values, label) in enumerate(zip(og_values, labels)):
        og = ObjectGraph(
            values=values, label=None if label < 0 else int(label),
            frames=(og_frames[i] if og_frames is not None else None),
            **({} if og_id_base is None else {"og_id": og_id_base + i}),
        )
        record = cluster_records[int(leaf_of_og[i])]
        ref = refs[i] if i < len(refs) else None
        record.leaf.insert(LeafRecord(float(keys[i]), og, ref, i,
                                      None if dists is None else dists[i]))
    index._next_row = len(og_values)
    index._references = references
    return index
