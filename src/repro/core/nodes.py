"""Node and record types of the STRG-Index tree (Section 5.1).

Each level's record layout mirrors the paper's figures:

- root record:    ``(iD_root, BG_r, ptr)``
- cluster record: ``(iD_clus, OG_clus, ptr)``
- leaf record:    ``(Key = EGED_M(OG_mem, OG_clus), OG_mem, ptr)``

Leaf records are kept sorted by key so search can expand outward from the
query's key position and stop at the triangle-inequality bound.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph


@dataclass
class LeafRecord:
    """One indexed OG: its metric key, the OG, a clip reference and its
    ``row`` — unique in its index, never reused, and what every lookup
    finds the OG by (its ``og_id`` is a label that may repeat).

    ``clip_ref`` stands in for the paper's pointer to "the real video clip
    in a disk" — any application-level handle (path, offset, ...).
    """

    key: float
    og: ObjectGraph
    clip_ref: Any = None
    row: int = -1


class LeafNode:
    """Sorted container of the member OGs of one cluster."""

    def __init__(self) -> None:
        self._records: list[LeafRecord] = []
        self._keys: list[float] = []

    def insert(self, record: LeafRecord) -> None:
        """Insert keeping key order (binary search)."""
        pos = bisect.bisect_left(self._keys, record.key)
        self._keys.insert(pos, record.key)
        self._records.insert(pos, record)

    def clone(self) -> "LeafNode":
        """A leaf with its own lists over the same (immutable) records."""
        dup = LeafNode()
        dup._records = list(self._records)
        dup._keys = list(self._keys)
        return dup

    def remove(self, row: int) -> LeafRecord | None:
        """Remove (and return) the record of ``row``, or ``None``."""
        for pos, record in enumerate(self._records):
            if record.row == row:
                del self._records[pos]
                del self._keys[pos]
                return record
        return None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LeafRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[LeafRecord]:
        """Records in ascending key order."""
        return self._records

    @property
    def keys(self) -> list[float]:
        """Keys in ascending order (parallel to :attr:`records`)."""
        return self._keys


@dataclass
class ClusterRecord:
    """One cluster: its id, synthesized centroid OG and leaf pointer."""

    record_id: int
    centroid: np.ndarray
    leaf: LeafNode = field(default_factory=LeafNode)


class ClusterNode:
    """Mid-level node: the cluster records under one background."""

    def __init__(self) -> None:
        self.records: list[ClusterRecord] = []
        self._next_id = 0

    def add(self, centroid: np.ndarray) -> ClusterRecord:
        """Append a new cluster record with a fresh id."""
        record = ClusterRecord(self._next_id, centroid)
        self._next_id += 1
        self.records.append(record)
        return record

    def clone(self) -> "ClusterNode":
        """A node with fresh record wrappers and leaves; the centroid
        arrays and leaf records behind them are shared."""
        dup = ClusterNode()
        dup.records = [ClusterRecord(r.record_id, r.centroid, r.leaf.clone())
                       for r in self.records]
        dup._next_id = self._next_id
        return dup

    def remove(self, record: ClusterRecord) -> None:
        """Remove a cluster record (used when a leaf splits)."""
        self.records.remove(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ClusterRecord]:
        return iter(self.records)

    def total_ogs(self) -> int:
        """Number of OGs across all leaves of this cluster node."""
        return sum(len(r.leaf) for r in self.records)


@dataclass
class RootRecord:
    """One background: its id, the BG, and its cluster-node pointer."""

    record_id: int
    background: BackgroundGraph | None
    cluster_node: ClusterNode = field(default_factory=ClusterNode)
