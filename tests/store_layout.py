"""The one place tests reach into the on-disk store layout
(docs/STORAGE.md): segment files, their columns, and the manifest log.

Tests that damage or inspect a store go through these helpers, so a
layout change re-points them here instead of in every test.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Any, Callable

from repro.storage.columnar import (
    _MAGIC,
    _PREFIX,
    LOG_NAME,
    ColumnarStore,
    _aligned,
    _column_bytes,
    _record_sum,
    _short_sum,
)


def applied(index, writes: list) -> list:
    """``writes`` (``_BufferedWrite``) applied to ``index`` one by one,
    each stamped with the ``(shard, row)`` it landed in or removed, as
    ``LiveIndex.compact`` stamps them: the batch ``ColumnarStore.append``
    takes."""
    from repro.serving.sharding import ShardedIndex

    placed = ShardedIndex.of(index)
    for write in writes:
        if write.op == "insert":
            write.shard, write.row = placed.insert(
                write.og, write.background, write.clip_ref)
        else:
            write.shard, write.row = placed.delete(write.og_id) or (0, None)
    return writes


def store_of(path) -> ColumnarStore:
    return path if isinstance(path, ColumnarStore) else ColumnarStore(path)


def log_path(path) -> Path:
    return Path(store_of(path).path) / LOG_NAME


def segments(path) -> list[dict[str, Any]]:
    """The committed segments: ``{"seg", "kind", "rows", "bytes", ...}``."""
    return store_of(path).manifest()["segments"]


def segment_file(path, segment: int = 0) -> Path:
    store = store_of(path)
    return Path(store._segment_path(segments(store)[segment]["seg"]))


def column_span(path, column: str, segment: int = 0) -> tuple[Path, int, int]:
    """``(segment file, byte offset, byte length)`` of one column."""
    store = store_of(path)
    entry = segments(store)[segment]
    header = store._header(entry)
    spec = header["index"][column]
    return (Path(store._segment_path(entry["seg"])),
            header["data"] + spec["offset"], _column_bytes(spec))


def column_names(path, segment: int = 0) -> list[str]:
    store = store_of(path)
    return list(store._header(segments(store)[segment])["index"])


def flip_column_byte(path, column: str = "og_values", segment: int = 0,
                     where: float = 0.5) -> None:
    """Flip one byte inside ``column`` (at fraction ``where`` of it)."""
    target, offset, nbytes = column_span(path, column, segment)
    at = offset + min(nbytes - 1, int(nbytes * where))
    with open(target, "r+b") as fh:
        fh.seek(at)
        byte = fh.read(1)
        fh.seek(at)
        fh.write(bytes([byte[0] ^ 0xFF]))


def truncate_segment(path, segment: int = 0, keep: int | None = None) -> None:
    """Cut a segment file to ``keep`` bytes (default: half)."""
    target = segment_file(path, segment)
    size = target.stat().st_size
    os.truncate(target, size // 2 if keep is None else keep)


def log_records(path) -> list[dict[str, Any]]:
    """The complete records of the log, unchecked."""
    blob = log_path(path).read_bytes()
    return [json.loads(line)
            for line in blob[:blob.rfind(b"\n") + 1].splitlines()]


def write_log(path, records: list[dict[str, Any]]) -> None:
    """Replace the log with ``records``, re-chaining their sums (a valid
    log of doctored content).  Replaced, not rewritten in place, as the
    store replaces it: a writer's cached state notices the new inode."""
    previous = ""
    lines = []
    for record in records:
        record = {k: v for k, v in record.items() if k != "sum"}
        record["sum"] = previous = _record_sum(previous, record)
        lines.append(json.dumps(record) + "\n")
    target = log_path(path)
    tmp = target.with_name(target.name + ".edit")
    tmp.write_text("".join(lines), encoding="utf-8")
    os.replace(tmp, target)


def edit_log(path, edit: Callable[[list[dict[str, Any]]], Any]) -> None:
    """Apply ``edit`` to the parsed records (in place) and rewrite the log."""
    records = log_records(path)
    edit(records)
    write_log(path, records)


def rewrite_segment(path, segment: int,
                    edit: Callable[[dict[str, Any]], Any]) -> None:
    """Re-encode one segment with ``edit`` applied to its header (column
    bytes unchanged) and point its log record at the result."""
    store = store_of(path)
    entry = segments(store)[segment]
    header = store._header(entry)
    target = Path(store._segment_path(entry["seg"]))
    blob = target.read_bytes()
    raws = [blob[header["data"] + spec["offset"]:
                 header["data"] + spec["offset"] + _column_bytes(spec)]
            for spec in header["columns"]]
    fresh = {key: header[key] for key in ("kind", "rows", "meta", "columns")}
    edit(fresh)
    encoded = json.dumps(fresh, sort_keys=True).encode("utf-8")
    data = _aligned(_PREFIX + len(encoded))
    out = bytearray(_MAGIC + struct.pack("<Q", len(encoded)) + encoded)
    for spec, raw in zip(fresh["columns"], raws):
        out += b"\0" * (data + spec["offset"] - len(out))
        out += raw
    target.write_bytes(bytes(out))

    def point(records):
        for record in records:
            for named in record["segments"] + [record.get("pivots") or {}]:
                if named.get("seg") == entry["seg"]:
                    named.update(bytes=len(out), hsum=_short_sum(encoded))
    edit_log(store, point)


def column_digests(path) -> dict[str, str]:
    """``{"<segment>:<column>": sha256}`` over every committed column of
    a store, its shards' segments and the pivots alike."""
    store = store_of(path)
    out: dict[str, str] = {}
    for number, entry in enumerate(segments(store)):
        for column in column_names(store, number):
            target, offset, nbytes = column_span(store, column, number)
            with open(target, "rb") as fh:
                fh.seek(offset)
                digest = hashlib.sha256(fh.read(nbytes)).hexdigest()
            out[f"{entry['seg']}:{column}"] = digest
    return out


def without_references(index):
    """A copy of ``index`` (an ``STRGIndex`` or a ``ShardedIndex``) whose
    shards hold no reference set and whose records carry no ``refs``
    row: written, a store with the reference columns left out, as one
    written before its first tier.  ``index`` itself is left as it is."""
    from repro.serving.sharding import ShardedIndex

    sharded = isinstance(index, ShardedIndex)
    shards = [shard.clone() for shard in (index.shards if sharded
                                          else [index])]
    for shard in shards:
        shard._references = None
        for cluster in shard.cluster_records():
            cluster.leaf.refile([None] * len(cluster.leaf))
    if not sharded:
        return shards[0]
    return ShardedIndex.from_shards(shards, index.serving_config(),
                                    index.pivots)
