"""The unified entry point: :func:`open_database`.

The package grew three inconsistent front doors — ``VideoDatabase``,
``STRGIndex(STRGIndexConfig)`` and ``VideoPipeline(PipelineConfig)`` —
each constructed differently and queried differently.  This module puts
one function in front of all of them::

    import repro

    db = repro.open_database("corpus.npz")      # load or create
    db.ingest(video)
    hits = db.knn(example, k=5)                 # similarity search
    rows = db.query().velocity(minimum=2.0).run()   # attribute search
    db.save()                                   # back to corpus.npz

``open_database`` always returns a
:class:`~repro.storage.database.VideoDatabase`; the older constructors
remain supported and are thin layers over the same machinery.

For continuous workloads, ``db.ingest_service(state_dir=...)`` upgrades
the write path to the streaming
:class:`~repro.serving.ingest.IngestService`: backpressured job
submission, journaled crash recovery, and queries that keep serving
while clips stream in (see ``docs/STREAMING.md``).
"""

from __future__ import annotations

import os

from repro.pipeline import PipelineConfig
from repro.storage.database import VideoDatabase
from repro.storage.store import open_store


def open_database(path: str | os.PathLike | None = None, *,
                  config: PipelineConfig | None = None,
                  create: bool = True,
                  mmap: bool | str = "auto",
                  **kwargs) -> VideoDatabase:
    """Open (or create) a video database.

    Parameters
    ----------
    path:
        Snapshot location — a columnar ``.strg`` store directory, a
        checksummed ``.npz`` archive, or a sharded NPZ meta archive (the
        format is autodetected, see ``docs/STORAGE.md``).  When a
        snapshot exists there, it is opened; otherwise a fresh database
        is created *bound* to that path, so a later ``db.save()`` needs
        no argument.  ``None`` gives an unbound in-memory database.
    config:
        :class:`~repro.pipeline.PipelineConfig` for the extraction
        pipeline and index (used both for fresh databases and as the
        pipeline config of loaded ones).
    create:
        With ``create=False`` a missing snapshot raises
        ``FileNotFoundError`` instead of creating an empty database.
    mmap:
        ``"auto"`` (default) memory-maps trajectory columns read-only
        when the snapshot format supports it (columnar stores), making
        the open O(1): the tree materializes lazily on first query and
        trajectory bytes stay on disk until a query faults them in.
        On such an open, budgeted queries (``knn(..., search_budget=N)``)
        never materialize the tree at all — the sketch tier streams
        from the store's mmap'd columns and only shortlist series are
        fetched (see ``docs/SEARCH.md``), so resident memory scales
        with the shortlist, not the corpus.  Sharded stores answer the
        same way, one attached sketch per shard; exact and range
        queries, and stores saved without a sketch tier, materialize
        on first use.
        ``True`` requires mmap (NPZ archives raise, pointing at
        ``repro convert``); ``False`` forces the eager full copy into
        RAM.
    **kwargs:
        Forwarded to :class:`~repro.storage.database.VideoDatabase`
        (``fault_policy``, ``retry_policy``, ``drop_tolerance``,
        ``journal_path``, ``shards``, ``placement``, ...).  With
        ``shards=N`` a fresh database maintains a sharded index (see
        ``docs/SERVING.md``); a sharded snapshot at ``path`` is
        detected and loaded as such automatically.
    """
    if path is None:
        return VideoDatabase(config, **kwargs)
    store = open_store(path)
    if store.exists():
        use_mmap = store.supports_mmap if mmap == "auto" else bool(mmap)
        # Only a format that can actually mmap loads lazily; forcing
        # mmap on one that cannot must fail now, not at first query.
        lazy = use_mmap and store.supports_mmap
        return VideoDatabase.load(store.path, config, mmap=use_mmap,
                                  lazy=lazy, **kwargs)
    if not create:
        raise FileNotFoundError(
            f"no database snapshot at {store.path} (pass create=True to "
            "start an empty one)"
        )
    db = VideoDatabase(config, **kwargs)
    db.path = store.path
    return db
