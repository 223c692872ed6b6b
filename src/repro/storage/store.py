"""``open_store()`` — the one snapshot store — and the 2.x NPZ importer.

Every layer reads and writes the columnar ``<name>.strg/`` store
(:mod:`repro.storage.columnar`); a suffix-less path means
``<path>.strg/``.  The checksummed NPZ archives that were the default
through v2.0.0 are read by exactly one function, :func:`convert`
(``strg-index convert SRC [DST]``).  Every other entry point goes
through :func:`open_store`, which refuses an archive — or a path an
archive sits at while no store does — with a pointer at ``convert``
rather than bind an empty store beside it (``docs/STORAGE.md``,
*Migrating 2.x archives*).
"""

from __future__ import annotations

import os

from repro.errors import InvalidParameterError, StorageError
from repro.storage import serialize
from repro.storage.columnar import ColumnarStore


def require_columnar(value: str, name: str = "format") -> None:
    """Validate a ``format=`` / ``store_format=`` argument.

    ``"columnar"`` is the only store format.  The two parameters survive
    as single-valued constants because the frozen ``benchmarks/e2e``
    spells them out; the next ``[benchmark]`` PR deletes them.
    """
    if value != "columnar":
        raise InvalidParameterError(
            f"{name} must be 'columnar' (the only store format), "
            f"got {value!r}")


def open_store(path: str | os.PathLike,
               format: str = "columnar") -> ColumnarStore:
    """The columnar store at ``path`` (existing, or to be written).

    Raises :class:`~repro.errors.StorageError` naming ``strg-index
    convert`` when ``path`` ends in ``.npz``, or when a 2.x archive
    exists at ``npz_path(path)`` and no store does — the database there
    is not empty, it is unconverted.
    """
    require_columnar(format)
    path = os.fspath(path)
    store = ColumnarStore(path)
    archive = serialize.npz_path(path)
    if path.endswith(".npz") or (
            not store.exists() and os.path.isfile(archive)):
        raise StorageError(
            f"{archive} is a 2.x NPZ archive, which this version only "
            f"imports: run `strg-index convert {path}` and open the "
            ".strg store it writes")
    return store


def convert(source: str | os.PathLike,
            dest: str | os.PathLike | None = None) -> ColumnarStore:
    """Import a 2.x NPZ archive (monolithic or sharded) into a store.

    Loads ``source`` through the archive reader — version and SHA-256
    checked, so a damaged archive raises
    :class:`~repro.errors.IndexCorruptionError` — writes it with the
    store's manifest commit protocol and re-hashes the result
    (:meth:`ColumnarStore.verify`).  ``dest=None`` writes next to the
    source (``corpus.npz`` → ``corpus.strg/``); the archive is left
    untouched.
    """
    archive = serialize.npz_path(source)
    if not os.path.isfile(archive):
        raise StorageError(f"cannot convert {archive}: no NPZ archive found")
    if dest is not None and os.fspath(dest).endswith(".npz"):
        raise InvalidParameterError(
            f"convert destination {os.fspath(dest)} names an NPZ archive; "
            "the only format written is the columnar .strg store")
    store = ColumnarStore(archive[:-len(".npz")] if dest is None else dest)
    load = (serialize.load_sharded_index
            if serialize.is_sharded_snapshot(archive) else serialize.load_index)
    store.write_index(load(archive))
    store.verify()
    return store


__all__ = ["ColumnarStore", "convert", "open_store", "require_columnar"]
