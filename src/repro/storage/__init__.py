"""Persistence: the columnar snapshot store and the ``VideoDatabase`` facade.

The supported entry point is :func:`open_store` — every layer reads and
writes the columnar ``.strg`` store it returns.  :func:`convert` imports
the stores 10.x releases wrote.  See
``docs/STORAGE.md`` for the layout and the migration guide.
"""

from repro.storage.columnar import ColumnarStore, is_columnar_store
from repro.storage.database import VideoDatabase
from repro.storage.store import convert, open_store

__all__ = [
    "ColumnarStore",
    "VideoDatabase",
    "convert",
    "is_columnar_store",
    "open_store",
]
