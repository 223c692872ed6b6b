"""``open_store()`` — the one snapshot store — and the one importer.

Every layer reads and writes the columnar ``<name>.strg/`` store
(:mod:`repro.storage.columnar`); a suffix-less path means
``<path>.strg/``.  Two older formats are read by exactly one function,
:func:`convert` (``strg-index convert SRC [DST]``): the checksummed NPZ
archives that were the default through v2.0.0, and 9.x stores (columnar
format version 1: a ``manifest.json`` and one directory of ``.npy``
files per segment).  Every other entry point goes through
:func:`open_store`, which refuses either — or a path an archive sits at
while no store does — with a pointer at ``convert`` rather than bind an
empty store beside it (``docs/STORAGE.md``, *Converting older stores*).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro.errors import (
    IndexCorruptionError,
    InvalidParameterError,
    StorageError,
)
from repro.storage import serialize
from repro.storage.columnar import (
    V1_MANIFEST,
    ColumnarStore,
    is_columnar_store,
    is_v1_store,
    v1_refusal,
)


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
    convert`` when ``path`` holds a 9.x store, ends in ``.npz``, or
    when a 2.x archive exists at ``npz_path(path)`` and no store does —
    the database there is not empty, it is unconverted.
    """
    require_columnar(format)
    path = os.fspath(path)
    store = ColumnarStore(path)
    if is_v1_store(store.path):
        raise v1_refusal(store.path)
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
    """Import a 2.x NPZ archive or a 9.x store into a current store.

    A 9.x store (monolithic or sharded) is transcoded segment by
    segment: each file is checked against its v1 manifest's SHA-256,
    its columns are copied byte for byte into one v2 segment file, and
    each delta's deletes become its log record's dead rows.  ``dest=None``
    converts in place — the v2 log is the commit point, and the v1
    files are removed only after it lands, so an interrupted
    conversion can simply be run again.

    An NPZ archive loads through the archive reader — version and
    SHA-256 checked — and is written with the store's commit protocol;
    ``dest=None`` writes next to the source (``corpus.npz`` →
    ``corpus.strg/``) and the archive is left untouched.

    Either way the result is re-hashed (:meth:`ColumnarStore.verify`);
    a damaged source raises :class:`~repro.errors.IndexCorruptionError`.
    """
    if dest is not None and os.fspath(dest).endswith(".npz"):
        raise InvalidParameterError(
            f"convert destination {os.fspath(dest)} names an NPZ archive; "
            "the only format written is the columnar .strg store")
    if is_v1_store(source):
        store = ColumnarStore(ColumnarStore(source).path
                              if dest is None else dest)
        _transcode_v1(ColumnarStore(source).path, store)
        store.verify()
        return store
    archive = serialize.npz_path(source)
    if not os.path.isfile(archive):
        raise StorageError(
            f"cannot convert {os.fspath(source)}: no NPZ archive or 9.x "
            "store found")
    store = ColumnarStore(archive[:-len(".npz")] if dest is None else dest)
    load = (serialize.load_sharded_index
            if serialize.is_sharded_snapshot(archive) else serialize.load_index)
    store.write_index(load(archive))
    store.verify()
    return store


def _transcode_v1(source: str, dest: ColumnarStore) -> None:
    """Rewrite the 9.x store at ``source`` as ``dest`` (may be the same
    directory): the one reader of the version 1 layout."""
    if is_columnar_store(dest.path) and os.path.samefile(source, dest.path):
        return                      # a shard an earlier run converted
    manifest = _v1_read(os.path.join(source, V1_MANIFEST), json.load)
    if manifest.get("format_version") != 1:
        raise IndexCorruptionError(
            f"{source} is not a 9.x store manifest "
            f"(format_version={manifest.get('format_version')!r})",
            details={"path": source,
                     "version": manifest.get("format_version")})
    os.makedirs(dest.path, exist_ok=True)
    # Fresh segment names: a store already at ``dest`` stays intact
    # until the new log replaces its own.
    first = dest._committed().next_ordinal() if dest.exists() else 0
    try:
        if manifest["kind"] == "sharded":
            for name in manifest["shards"]:
                _transcode_v1(os.path.join(source, name), ColumnarStore(
                    os.path.join(dest.path, name), normalize=False))
            entry = dest._write_segment(first, "root", 0, {}, _v1_columns(
                source, manifest["files"]))
            records = [dest._base_record(
                "sharded", entry, num_shards=manifest["num_shards"],
                has_pivots=manifest["has_pivots"],
                serving_config=manifest["serving_config"],
                shards=manifest["shards"])]
        else:
            records = []
            for ordinal, segment in enumerate(manifest["segments"], first):
                directory = os.path.join(source, segment["name"])
                meta = _v1_read(os.path.join(directory, "meta.json"),
                                json.load)
                arrays = _v1_columns(directory, segment["files"])
                if segment["kind"] == "base":
                    entry = dest._write_segment(
                        ordinal, "base", int(segment["rows"]), meta, arrays)
                    records.append(dest._base_record("index", entry))
                    continue
                dead = [int(op[1]) for op in meta["ops"] if op[0] == "d"]
                records.append(dict(dest._write_segment(
                    ordinal, "delta", int(segment["rows"]),
                    {"ops": meta["ops"], "refs": meta["refs"]}, arrays),
                    dead=dead))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise IndexCorruptionError(
            f"malformed 9.x store {source}: {exc}",
            details={"path": source, "cause": type(exc).__name__},
        ) from exc
    dest._collect_garbage(dest._replace_log(records, "storage.write"))


def _v1_read(path: str, reader):
    try:
        with open(path, "rb") as fh:
            return reader(fh)
    except (OSError, ValueError) as exc:
        raise IndexCorruptionError(
            f"cannot read 9.x store file {path}: {exc}",
            details={"path": path, "cause": type(exc).__name__},
        ) from exc


def _v1_columns(directory: str, files: dict) -> dict[str, np.ndarray]:
    """The ``.npy`` columns a v1 manifest lists, SHA-256 checked."""
    columns = {}
    for filename, entry in sorted(files.items()):
        if not filename.endswith(".npy"):
            continue
        target = os.path.join(directory, filename)
        blob = _v1_read(target, lambda fh: fh.read())
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise IndexCorruptionError(
                f"checksum mismatch in 9.x store file {target}",
                details={"path": target, "expected": entry["sha256"]})
        columns[filename[:-len(".npy")]] = _v1_read(
            target, lambda fh: np.load(fh, allow_pickle=False))
    return columns


__all__ = ["ColumnarStore", "convert", "open_store", "require_columnar"]
