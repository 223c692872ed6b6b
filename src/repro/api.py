"""The unified entry point: :func:`open_database`.

The package grew three inconsistent front doors — ``VideoDatabase``,
``STRGIndex(STRGIndexConfig)`` and ``VideoPipeline(PipelineConfig)`` —
each constructed differently and queried differently.  This module puts
one function in front of all of them::

    import repro

    db = repro.open_database("corpus")          # load or create corpus.strg/
    db.ingest(video)
    hits = db.knn(example, k=5)                 # similarity search
    rows = db.query().velocity(minimum=2.0).run()   # attribute search
    db.save()                                   # back to corpus.strg/

``open_database`` always returns a
:class:`~repro.storage.database.VideoDatabase`; the older constructors
remain supported and are thin layers over the same machinery.

Every write already runs through the database's
:class:`~repro.serving.ingest.IngestService`; for continuous workloads
``db.ingest_service(state_dir=...)`` hands that service back, configured
for streaming: backpressured job submission, journaled crash recovery,
and queries that keep serving while clips stream in (see
``docs/STREAMING.md``).
"""

from __future__ import annotations

import os

from repro.pipeline import PipelineConfig
from repro.storage.database import VideoDatabase, _mmap_flag
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
        Store location — a columnar ``.strg`` directory, monolithic or
        sharded; a suffix-less path means ``<path>.strg/`` (see
        ``docs/STORAGE.md``).  When a store exists there, it is opened;
        otherwise a fresh database is created *bound* to that path, so
        a later ``db.save()`` needs no argument.  A 2.x ``.npz``
        archive or an older store at the path raises ``StorageError``
        naming ``strg-index convert`` instead of opening empty beside
        it.
        ``None`` gives an unbound in-memory database.
    config:
        :class:`~repro.pipeline.PipelineConfig` for the extraction
        pipeline and index (used both for fresh databases and as the
        pipeline config of loaded ones).
    create:
        With ``create=False`` a missing snapshot raises
        ``FileNotFoundError`` instead of creating an empty database.
    mmap:
        ``"auto"`` (default) and ``True`` memory-map trajectory columns
        read-only, making the open O(1): the tree materializes lazily
        on first query and trajectory bytes stay on disk until a query
        faults them in.
        On such an open, budgeted queries (``knn(..., search_budget=N)``)
        never materialize the tree at all — the sketch tier streams
        from the store's mmap'd columns and only shortlist series are
        fetched (see ``docs/SEARCH.md``), so resident memory scales
        with the shortlist, not the corpus.  Sharded stores answer the
        same way, one attached sketch per shard; exact and range
        queries, and stores saved without a sketch tier, materialize
        on first use.  ``False`` forces the eager full copy into RAM;
        any other value raises ``InvalidParameterError``.
    **kwargs:
        Forwarded to :class:`~repro.storage.database.VideoDatabase`
        (``fault_policy``, ``retry_policy``, ``drop_tolerance``,
        ``state_dir``, ``shards``, ``placement``, ...).  With
        ``shards=N`` a fresh database maintains a sharded index (see
        ``docs/SERVING.md``); a sharded snapshot at ``path`` is
        detected and loaded as such automatically.
    """
    _mmap_flag(mmap)
    if path is None:
        return VideoDatabase(config, **kwargs)
    store = open_store(path)
    if store.exists():
        return VideoDatabase.load(store.path, config, mmap=mmap, **kwargs)
    if not create:
        raise FileNotFoundError(
            f"no database snapshot at {store.path} (pass create=True to "
            "start an empty one)"
        )
    db = VideoDatabase(config, **kwargs)
    db.path = store.path
    return db
