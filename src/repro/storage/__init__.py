"""Persistence: snapshot stores and the ``VideoDatabase`` facade.

The supported entry point is :func:`open_store` — it negotiates the
on-disk format (columnar ``.strg`` directory, checksummed v2 NPZ, or
sharded NPZ) and returns one uniform reader/writer protocol.  See
``docs/STORAGE.md`` for the formats and the migration guide.
"""

from repro.storage.columnar import ColumnarStore, is_columnar_store
from repro.storage.database import VideoDatabase
from repro.storage.serialize import (
    load_object_graphs,
    npz_path,
    save_object_graphs,
)
from repro.storage.store import (
    FORMATS,
    NpzStore,
    convert,
    detect_format,
    open_store,
    snapshot_exists,
    store_path,
)

__all__ = [
    "FORMATS",
    "ColumnarStore",
    "NpzStore",
    "VideoDatabase",
    "convert",
    "detect_format",
    "is_columnar_store",
    "load_object_graphs",
    "npz_path",
    "open_store",
    "save_object_graphs",
    "snapshot_exists",
    "store_path",
]
