"""Copy-on-write snapshots: queries never block on ingestion.

The serving layer separates reads from writes with an immutable
*published snapshot*:

- Readers always query the :class:`IndexSnapshot` that was current when
  their request started.  Snapshots are frozen — the underlying index
  rejects mutation — so a scan can never observe a half-applied insert.
- Writers append to a buffer on the :class:`LiveIndex`; nothing touches
  the published tree.
- :meth:`LiveIndex.compact` clones the published index, applies the
  buffered writes to the clone, freezes it and *atomically publishes*
  it as the next snapshot (a single reference assignment).  In-flight
  queries keep reading the previous snapshot; new queries see the new
  one.  Reads never take a lock.
- The clone shares structure: ``index.clone()`` copies only the
  containers a write mutates in place and shares the OGs, records and
  arrays behind them — frozen snapshots never write what they share —
  so a compaction costs O(clusters + pointer copies), not O(corpus).
- A compaction applies its inserts through the index's placement
  (:meth:`ShardedIndex.of <repro.serving.sharding.ShardedIndex.of>`:
  an ``STRGIndex`` is the one-shard case) and records on each buffered
  write the ``(shard, row)`` it landed in or removed, so an attached
  store appends the batch as one segment per written shard in O(delta).
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Sequence

from repro.core.index import extend_index
from repro.errors import InvalidParameterError, StorageError
from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.search.request import SearchRequest, SearchResult
from repro.serving.sharding import ShardedIndex

logger = logging.getLogger(__name__)


class IndexSnapshot:
    """An immutable, versioned view of the index.

    Wraps a frozen index (a ``ShardedIndex``, or an ``STRGIndex`` as the
    one-shard case) and delegates reads.
    Snapshots are cheap value objects: the expensive part — the frozen
    tree — is shared by reference and never mutated.
    """

    __slots__ = ("version", "index")

    def __init__(self, version: int, index: Any):
        self.version = version
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def search(self, request: SearchRequest) -> SearchResult:
        """Answer from this snapshot, stamped with its version."""
        result = self.index.search(request)
        result.snapshot_version = self.version
        return result

    def __repr__(self) -> str:
        return f"IndexSnapshot(version={self.version}, ogs={len(self)})"


@dataclass
class _BufferedWrite:
    """One buffered mutation, applied at the next compaction — which
    records the ``(shard, row)`` an insert lands in or a delete removes
    (``row`` ``None``: nothing), so a store append finds it at once."""

    op: str  # "insert" | "delete"
    og: ObjectGraph | None = None
    background: BackgroundGraph | None = None
    clip_ref: Any = None
    og_id: int | None = None
    shard: int = 0
    row: int | None = None


class LiveIndex:
    """A queryable index with copy-on-write ingestion.

    Reads go to the published :class:`IndexSnapshot`; writes buffer and
    take effect at the next :meth:`compact`.  All methods are
    thread-safe: reads are lock-free (one reference load), writes hold a
    short buffer lock, compactions serialize among themselves.
    """

    def __init__(self, index: Any):
        index.freeze()
        self._snapshot = IndexSnapshot(1, index)
        self._buffer: list[_BufferedWrite] = []
        self._buffer_lock = threading.Lock()
        self._compact_lock = threading.Lock()
        self._store: Any = None
        OBS.gauge("serving.snapshot_version", 1)

    # -- durability -----------------------------------------------------------

    def attach_store(self, store: Any, write: bool = True) -> None:
        """Persist every future compaction to ``store`` automatically.

        ``store`` is an ``open_store()`` result.  Each compaction batch
        lands as one O(delta) append — a segment per shard it wrote, one
        log record — with a background merge folding segments when the
        dead-row fraction crosses the store's threshold.  With
        ``write=True`` the current snapshot is written immediately, so
        the store is readable from the moment of attachment.

        Persistence failures degrade durability, never serving: the
        error is logged and counted, and the store — unbound by the
        failed write — takes the next compaction as a full snapshot to
        resynchronize.
        """
        with self._compact_lock:
            self._store = store
            if write:
                store.write_index(self._snapshot.index)

    def _persist_batch(self, batch: list[_BufferedWrite],
                       published: IndexSnapshot) -> None:
        try:
            self._store.checkpoint(published.index, batch)
            self._store.maybe_merge()
        except (StorageError, OSError) as exc:
            OBS.count("serving.persist_failures")
            logger.warning(
                "could not persist compaction batch (%d writes) to %s: "
                "%s — serving continues, next compaction writes a full "
                "snapshot", len(batch), self._store, exc)

    # -- reads ----------------------------------------------------------------

    @property
    def snapshot(self) -> IndexSnapshot:
        """The currently published snapshot (lock-free, immutable)."""
        return self._snapshot

    @property
    def version(self) -> int:
        return self._snapshot.version

    def search(self, request: SearchRequest) -> SearchResult:
        """Answer from the snapshot published when the call starts."""
        return self._snapshot.search(request)

    def knn(self, query, k: int,
            background: BackgroundGraph | None = None,
            search_budget: int | None = None):
        return self.search(SearchRequest.knn(
            query, k, background=background,
            search_budget=search_budget)).hits

    def range_query(self, query, radius: float,
                    background: BackgroundGraph | None = None):
        return self.search(SearchRequest.range(
            query, radius, background=background)).hits

    def __len__(self) -> int:
        return len(self._snapshot)

    def health(self) -> dict[str, Any]:
        """What ``/health`` reports for an in-process backend."""
        snapshot = self._snapshot
        return {"status": "ok", "snapshot": snapshot.version,
                "ogs": len(snapshot),
                "pending_writes": self.pending_writes}

    # -- writes ---------------------------------------------------------------

    @property
    def pending_writes(self) -> int:
        """Buffered mutations not yet visible to readers."""
        return len(self._buffer)

    def insert(self, og: ObjectGraph,
               background: BackgroundGraph | None = None,
               clip_ref: Any = None) -> None:
        """Buffer one insert (visible after the next compaction)."""
        self.buffer([_BufferedWrite("insert", og=og, background=background,
                                    clip_ref=clip_ref)])

    def bulk_insert(self, ogs: Sequence[ObjectGraph],
                    background: BackgroundGraph | None = None,
                    clip_refs: Sequence[Any] | None = None) -> None:
        """Buffer a batch of inserts."""
        if clip_refs is not None and len(clip_refs) != len(ogs):
            raise InvalidParameterError(
                f"{len(ogs)} OGs but {len(clip_refs)} clip refs"
            )
        refs = list(clip_refs) if clip_refs is not None else [None] * len(ogs)
        self.buffer([
            _BufferedWrite("insert", og=og, background=background,
                           clip_ref=ref)
            for og, ref in zip(ogs, refs)
        ])

    def delete(self, og_id: int) -> None:
        """Buffer one delete (takes effect at the next compaction)."""
        self.buffer([_BufferedWrite("delete", og_id=og_id)])

    def buffer(self, writes: Sequence[_BufferedWrite]) -> None:
        """Buffer ``writes`` in order; the compaction that applies them
        sets each one's ``shard`` and ``row``."""
        with self._buffer_lock:
            self._buffer.extend(writes)
            OBS.gauge("serving.write_buffer", len(self._buffer))

    # -- compaction -----------------------------------------------------------

    def compact(self) -> IndexSnapshot:
        """Apply buffered writes and publish a new snapshot.

        Readers are never blocked: the writes are applied to a
        structure-sharing ``clone()`` of the published index that owns
        every container they touch, and publication is one reference
        assignment.
        Writes that arrive *during* a compaction stay buffered for the
        next one.  Returns the snapshot current after the call (the
        unchanged one when the buffer was empty).
        """
        with self._compact_lock:
            with self._buffer_lock:
                batch = self._buffer
                self._buffer = []
                OBS.gauge("serving.write_buffer", 0)
            if not batch:
                return self._snapshot
            with OBS.span("serving.compact", writes=len(batch)):
                previous = self._snapshot
                working = previous.index.clone()
                placed = ShardedIndex.of(working)
                # Consecutive inserts sharing a background are one batch:
                # an empty index builds it (extend_index), as the same
                # OGs indexed without a LiveIndex would be.
                for (op, _), run in groupby(
                        batch, key=lambda w: (w.op, id(w.background))):
                    run = list(run)
                    if op == "insert":
                        landed = extend_index(placed, [w.og for w in run],
                                              run[0].background,
                                              [w.clip_ref for w in run])
                        for write, (shard, row) in zip(run, landed):
                            write.shard, write.row = shard, row
                    else:
                        for write in run:
                            write.shard, write.row = \
                                placed.delete(write.og_id) or (0, None)
                working.freeze()
                published = IndexSnapshot(previous.version + 1, working)
                self._snapshot = published
                OBS.count("serving.compactions")
                OBS.gauge("serving.snapshot_version", published.version)
                if self._store is not None:
                    self._persist_batch(batch, published)
                return published

    def __repr__(self) -> str:
        return (
            f"LiveIndex(version={self.version}, ogs={len(self)}, "
            f"pending={self.pending_writes})"
        )


__all__ = [
    "IndexSnapshot",
    "LiveIndex",
]
