"""``open_store()`` — the one snapshot store — and the one importer.

Every layer reads and writes the columnar ``<name>.strg/`` store
(:mod:`repro.storage.columnar`); a suffix-less path means
``<path>.strg/``.  Three older formats are read by exactly one function,
:func:`convert` (``strg-index convert SRC [DST]``): the checksummed NPZ
archives that were the default through v2.0.0, 9.x stores (columnar
format version 1: a ``manifest.json`` and one directory of ``.npy``
files per segment) and 10.x stores (format version 2: a sharded store
nests one sub-store per shard).  Every other entry point goes through
:func:`open_store`, which refuses each — or a path an archive sits at
while no store does — with a pointer at ``convert`` rather than bind an
empty store beside it (``docs/STORAGE.md``, *Converting older stores*).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import shutil

import numpy as np

from repro.errors import (
    InvalidParameterError,
    StorageError,
)
from repro.storage import serialize
from repro.storage.columnar import (
    LEGACY_VERSIONS,
    LOG_NAME,
    SEGMENT_SUFFIX,
    V1_MANIFEST,
    ColumnarStore,
    _corrupt,
    _fsync_dir,
    legacy_refusal,
    read_log,
    stored_version,
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
    convert`` when ``path`` holds a 9.x or 10.x store, ends in ``.npz``,
    or when a 2.x archive exists at ``npz_path(path)`` and no store does
    — the database there is not empty, it is unconverted.
    """
    require_columnar(format)
    path = os.fspath(path)
    store = ColumnarStore(path)
    version = stored_version(store.path)
    if version in LEGACY_VERSIONS:
        raise legacy_refusal(store.path, version)
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
    """Import a 2.x NPZ archive, a 9.x or a 10.x store into a current
    store, re-hashed by :meth:`ColumnarStore.verify`.

    A 9.x or 10.x store (monolithic or sharded) becomes one flat store
    under one log, segment by segment: a 10.x segment file is copied
    byte for byte, a 9.x segment's SHA-256-checked ``.npy`` columns are
    copied into one segment file.  ``dest=None`` converts in place; the
    new log is the commit point, so an interrupted conversion can simply
    run again.  An NPZ archive is loaded (version and SHA-256 checked)
    and written; ``dest=None`` writes ``corpus.npz`` to
    ``corpus.strg/`` and leaves the archive untouched.  A damaged
    source raises :class:`~repro.errors.IndexCorruptionError`.
    """
    if dest is not None and os.fspath(dest).endswith(".npz"):
        raise InvalidParameterError(
            f"convert destination {os.fspath(dest)} names an NPZ archive; "
            "the only format written is the columnar .strg store")
    version = stored_version(source)
    if version in LEGACY_VERSIONS:
        origin = ColumnarStore(source).path
        store = ColumnarStore(origin if dest is None else dest)
        _transcode(origin, store, version)
        store.verify()
        return store
    archive = serialize.npz_path(source)
    if not os.path.isfile(archive):
        raise StorageError(
            f"cannot convert {os.fspath(source)}: no NPZ archive, 9.x or "
            "10.x store found")
    store = ColumnarStore(archive[:-len(".npz")] if dest is None else dest)
    load = (serialize.load_sharded_index
            if serialize.is_sharded_snapshot(archive) else serialize.load_index)
    store.write_index(load(archive))
    store.verify()
    return store


def _transcode(source: str, dest: ColumnarStore, version: int) -> None:
    """Rewrite the legacy store at ``source`` as ``dest`` (may be the
    same directory).

    The reader of each version returns ``(shards, pivots, serving)``:
    per shard its segments in log order as ``(kind, write, dead)``, where
    ``write(ordinal)`` puts the segment into ``dest`` under that ordinal
    and returns its log fields; ``pivots`` is such a ``write`` or
    ``None``.  Bases come first, then the pivots, then every delta as a
    record of its own, so the log's order is the segments' name order.
    """
    os.makedirs(dest.path, exist_ok=True)
    try:
        shards, pivots, serving = _read_legacy(source, version, dest)
        segments = [(kind, shard, write, dead)
                    for shard, listed in enumerate(shards)
                    for kind, write, dead in listed]
        # Fresh segment names: a store already at ``dest`` (or the
        # source itself) stays intact until the new log replaces it.
        ordinals = itertools.count(_free_ordinal(dest.path))
        entries = [dict(shard=shard, **write(next(ordinals)))
                   for kind, shard, write, _ in segments if kind == "base"]
        pivot_entry = None if pivots is None else pivots(next(ordinals))
        records = [dest._base_record(serving, pivot_entry, entries)] + [
            {"segments": [dict(shard=shard, **write(next(ordinals)),
                               dead=dead)]}
            for kind, shard, write, dead in segments if kind != "base"]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise _corrupt(f"malformed {LEGACY_VERSIONS[version]} store "
                       f"{source}: {exc}", exc, path=source) from exc
    written = entries + [entry for record in records[1:]
                         for entry in record["segments"]]
    dest._verify_segments(written + ([pivot_entry] if pivot_entry else []))
    _fsync_dir(dest.path)
    dest._collect_garbage(dest._replace_log(records, "storage.write"))


def _free_ordinal(path: str) -> int:
    """One past the highest segment ordinal any entry of ``path`` uses."""
    used = [int(match.group(1)) for match in
            (re.match(r"seg-(\d{6})", name) for name in os.listdir(path))
            if match]
    return max(used, default=-1) + 1


def _read_legacy(source: str, version: int, dest: ColumnarStore):
    """``(shards, pivots, serving)`` of the 9.x or 10.x store at
    ``source`` (see :func:`_transcode`).  Both versions hold a
    monolithic store, or a sharded root naming one monolithic sub-store
    per shard plus its pivots, under the same keys in the root's 9.x
    manifest or 10.x base record."""
    root, segments = _legacy_store(source, version, dest)
    if root["kind"] != "sharded":
        return [segments], None, {}
    shards = [_legacy_store(os.path.join(source, name), version, dest)[1]
              for name in root["shards"]]
    pivots = None
    if root["has_pivots"]:
        pivots = _v2_copier(source, root, dest) if version == 2 else (
            lambda ordinal: dest._write_segment(
                ordinal, "pivots", 0, {}, _v1_columns(source, root["files"])))
    return shards, pivots, dict(root["serving_config"])


def _legacy_store(directory: str, version: int, dest: ColumnarStore):
    """``(root, segments)`` of one 9.x or 10.x store: its manifest or
    base record, and — unless it is a sharded root — its segments as
    ``(kind, write, dead)`` in log order."""
    if version == 1:
        root = _v1_read(os.path.join(directory, V1_MANIFEST), json.load)
        segments = [_v1_segment(directory, segment, dest)
                    for segment in root.get("segments", ())]
    else:
        path = os.path.join(directory, LOG_NAME)
        try:
            records, _, _ = read_log(path)
        except OSError as exc:
            raise _corrupt(f"cannot read 10.x store log {path}: {exc}", exc,
                           path=path) from exc
        root = records[0]
        segments = [] if root["kind"] == "sharded" else [
            ("delta" if number else "base", _v2_copier(directory, record, dest),
             [int(row) for row in record.get("dead", ())])
            for number, record in enumerate(records)]
    if root.get("format_version") != version:
        raise _corrupt(f"{directory} is not a {LEGACY_VERSIONS[version]} "
                       f"store (format_version="
                       f"{root.get('format_version')!r})",
                       path=directory, version=root.get("format_version"))
    return root, segments


def _v2_copier(directory: str, record: dict, dest: ColumnarStore):
    """A ``write`` that copies the 10.x segment ``record`` names."""
    def write(ordinal: int) -> dict:
        name = f"seg-{ordinal:06d}"
        source = os.path.join(directory, record["seg"] + SEGMENT_SUFFIX)
        try:
            with open(source, "rb") as src, \
                    open(dest._segment_path(name), "wb") as out:
                shutil.copyfileobj(src, out)
                out.flush()
                os.fsync(out.fileno())
        except OSError as exc:
            raise _corrupt(f"cannot copy 10.x segment {source}: {exc}", exc,
                           path=source) from exc
        return {"seg": name, "rows": int(record["rows"]),
                "bytes": int(record["bytes"]), "hsum": record["hsum"]}
    return write


def _v1_segment(directory: str, segment: dict, dest: ColumnarStore):
    """``(kind, write, dead)`` of one 9.x segment directory."""
    folder = os.path.join(directory, segment["name"])
    meta = _v1_read(os.path.join(folder, "meta.json"), json.load)
    kind = segment["kind"]
    if kind != "base":
        meta = {"ops": meta["ops"], "refs": meta["refs"]}

    def write(ordinal: int) -> dict:
        return dest._write_segment(ordinal, kind, int(segment["rows"]), meta,
                                   _v1_columns(folder, segment["files"]))
    return kind, write, [int(op[1]) for op in meta.get("ops", ())
                         if op[0] == "d"]


def _v1_read(path: str, reader):
    try:
        with open(path, "rb") as fh:
            return reader(fh)
    except (OSError, ValueError) as exc:
        raise _corrupt(f"cannot read 9.x store file {path}: {exc}", exc,
                       path=path) from exc


def _v1_columns(directory: str, files: dict) -> dict[str, np.ndarray]:
    """The ``.npy`` columns a v1 manifest lists, SHA-256 checked."""
    columns = {}
    for filename, entry in sorted(files.items()):
        if not filename.endswith(".npy"):
            continue
        target = os.path.join(directory, filename)
        blob = _v1_read(target, lambda fh: fh.read())
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise _corrupt(f"checksum mismatch in 9.x store file {target}",
                           path=target, expected=entry["sha256"])
        columns[filename[:-len(".npy")]] = _v1_read(
            target, lambda fh: np.load(fh, allow_pickle=False))
    return columns


__all__ = ["ColumnarStore", "convert", "open_store", "require_columnar"]
