"""``open_store()`` — the one snapshot store — and the one importer.

Every layer reads and writes the columnar ``<name>.strg/`` store
(:mod:`repro.storage.columnar`); a suffix-less path means
``<path>.strg/``.  One older format is read by exactly one function,
:func:`convert` (``strg-index convert SRC [DST]``): 10.x stores (format
version 2, where a sharded store nests one sub-store per shard).  Every
other entry point goes through :func:`open_store`, which refuses them
with a pointer at ``convert`` rather than bind an empty store beside
one.  Two older layouts are refused everywhere, ``convert`` included,
with a pointer at release 15.0.0, whose ``convert`` still reads them:
the NPZ archives that were the default through v2.0.0 (a path an
archive sits at while no store does counts too) and 9.x stores (format
version 1: a ``manifest.json`` and one directory of ``.npy`` files per
segment).  ``docs/STORAGE.md``, *Converting older stores*, is the
recipe.
"""

from __future__ import annotations

import itertools
import os
import re
import shutil

from repro.errors import (
    InvalidParameterError,
    StorageError,
)
from repro.storage.columnar import (
    COLUMNAR_VERSION,
    LEGACY_VERSIONS,
    LOG_NAME,
    SEGMENT_SUFFIX,
    ColumnarStore,
    _corrupt,
    _fsync_dir,
    legacy_refusal,
    read_log,
    retired_refusal,
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

    Raises :class:`~repro.errors.StorageError` when ``path`` holds a 9.x
    or 10.x store, ends in ``.npz``, or when a 2.x archive exists at
    ``<path>.npz`` and no store does — the database there is not empty,
    it is unconverted.  The message names ``strg-index convert`` and,
    for a layout only release 15.0.0 reads, that release.
    """
    require_columnar(format)
    path = os.fspath(path)
    store = ColumnarStore(path)
    version = stored_version(store.path)
    if version is not None and version < COLUMNAR_VERSION:
        raise legacy_refusal(store.path, version)
    archive = path if path.endswith(".npz") else path + ".npz"
    if archive == path or (not store.exists() and os.path.isfile(archive)):
        raise retired_refusal(archive, "a 2.x NPZ archive")
    return store


def convert(source: str | os.PathLike,
            dest: str | os.PathLike | None = None) -> ColumnarStore:
    """Import a 10.x store into a current store, re-hashed by
    :meth:`ColumnarStore.verify`.

    A 10.x store (monolithic or sharded) becomes one flat store under
    one log, each segment file copied byte for byte.  ``dest=None``
    converts in place; the new log is the commit point, so an
    interrupted conversion can simply run again.  A damaged source
    raises :class:`~repro.errors.IndexCorruptionError`; a 2.x archive or
    a 9.x store raises :class:`~repro.errors.StorageError` naming
    release 15.0.0, whose ``convert`` writes a store this version opens.
    """
    if dest is not None and os.fspath(dest).endswith(".npz"):
        raise InvalidParameterError(
            f"convert destination {os.fspath(dest)} names an NPZ archive; "
            "the only format written is the columnar .strg store")
    if stored_version(source) not in LEGACY_VERSIONS:
        open_store(source)   # refuses a 2.x archive or a 9.x store
        raise StorageError(
            f"cannot convert {os.fspath(source)}: no 10.x store found")
    origin = ColumnarStore(source).path
    store = ColumnarStore(origin if dest is None else dest)
    _transcode(origin, store)
    store.verify()
    return store


def _transcode(source: str, dest: ColumnarStore) -> None:
    """Rewrite the 10.x store at ``source`` as ``dest`` (may be the
    same directory).

    :func:`_read_legacy` returns ``(shards, pivots, serving)``: per
    shard its segments in log order as ``(kind, write, dead)``, where
    ``write(ordinal)`` puts the segment into ``dest`` under that ordinal
    and returns its log fields; ``pivots`` is such a ``write`` or
    ``None``.  Bases come first, then the pivots, then every delta as a
    record of its own, so the log's order is the segments' name order.
    """
    os.makedirs(dest.path, exist_ok=True)
    try:
        shards, pivots, serving = _read_legacy(source, dest)
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
        raise _corrupt(f"malformed 10.x store {source}: {exc}", exc,
                       path=source) from exc
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


def _read_legacy(source: str, dest: ColumnarStore):
    """``(shards, pivots, serving)`` of the 10.x store at ``source``
    (see :func:`_transcode`): a monolithic store, or a sharded root
    whose base record names one monolithic sub-store per shard plus its
    pivots."""
    root, segments = _legacy_store(source, dest)
    if root["kind"] != "sharded":
        return [segments], None, {}
    shards = [_legacy_store(os.path.join(source, name), dest)[1]
              for name in root["shards"]]
    pivots = _v2_copier(source, root, dest) if root["has_pivots"] else None
    return shards, pivots, dict(root["serving_config"])


def _legacy_store(directory: str, dest: ColumnarStore):
    """``(root, segments)`` of one 10.x store: its base record, and —
    unless it is a sharded root — its segments as ``(kind, write,
    dead)`` in log order."""
    path = os.path.join(directory, LOG_NAME)
    try:
        records, _, _ = read_log(path)
    except OSError as exc:
        raise _corrupt(f"cannot read 10.x store log {path}: {exc}", exc,
                       path=path) from exc
    root = records[0]
    if root.get("format_version") != 2:
        raise _corrupt(f"{directory} is not a 10.x store (format_version="
                       f"{root.get('format_version')!r})",
                       path=directory, version=root.get("format_version"))
    segments = [] if root["kind"] == "sharded" else [
        ("delta" if number else "base", _v2_copier(directory, record, dest),
         [int(row) for row in record.get("dead", ())])
        for number, record in enumerate(records)]
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


__all__ = ["ColumnarStore", "convert", "open_store", "require_columnar"]
