"""Columnar, memory-mapped snapshot store — the one on-disk format.

An index persists as the flat structured arrays of
:func:`~repro.storage.serialize.index_to_arrays`, each a raw column
that ``numpy`` memory-maps read-only in place: a cold open reads one
small log and stats the segment files, shard processes share page
cache, and commits are log-structured — an ``append()`` writes O(delta)
and a background merge folds segments once the dead-row fraction
crosses a threshold.  ``docs/STORAGE.md`` is the full description.

One store kind.  Every store holds S >= 1 shards of one
:class:`~repro.serving.sharding.ShardedIndex` under one manifest log,
every segment file flat in the store directory::

    corpus.strg/
      manifest.jsonl     <- one checksummed JSON record per commit
      seg-000000.seg     <- base segment of shard 0 (a tree snapshot)
      seg-000001.seg     <- base segment of shard 1
      seg-000002.seg     <- the placement pivots, when there are any
      seg-000003.seg     <- a delta of one shard: op log + payload rows

A monolithic ``STRGIndex`` is written as the one-shard index over
itself (:meth:`ShardedIndex.of
<repro.serving.sharding.ShardedIndex.of>`), and :meth:`ColumnarStore.
load_index` always returns a ``ShardedIndex``.  The base record names
one base segment per shard (``{"shard", "seg", "rows", "bytes",
"hsum"}``), the pivots segment or ``null``, and the serving config;
each later record names one delta per shard its commit wrote, with the
shard rows its ``["d", row]`` ops kill.  Records chain a SHA-256
``sum``; the last is :meth:`ColumnarStore.version`.

Commit protocol.  An append writes and fsyncs one segment per written
shard, fsyncs the directory once, then appends and fsyncs one log
record naming them all: k + 2 fsyncs for k shards, atomic across them.
A full write or merge writes every base segment and the pivots, fsyncs
the directory, then replaces the log (temp + fsync, rename, directory
fsync).  A crash before the record leaves orphans no record names; a
final line without its newline is a torn tail readers ignore and the
next writer truncates.  10.x stores (format version 2) are refused
everywhere except :func:`repro.storage.store.convert`; 9.x stores
(format version 1) everywhere, naming the release that converts them.

Replay.  Loading materializes each shard's base and replays its deltas
through the same deterministic ``insert()``/``delete_row()`` a live
shard evolved through, so a reopened store answers bit-identically.
Rows are numbered per shard (base rows in leaf order, then delta
inserts), and a loaded shard files each OG under its store row.
og_ids never reach the disk (:class:`RowLabels`); a bound store maps
``(shard, index row) -> store row`` where the two differ.
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import hashlib
import json
import logging
import os
import shutil
import struct
import tempfile
import threading
from types import SimpleNamespace
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.errors import (
    IndexCorruptionError,
    InvalidParameterError,
    StorageError,
)
from repro.graph.object_graph import ObjectGraph, reserve_og_ids
from repro.observability import OBS
from repro.resilience.faults import maybe_fail, maybe_truncate
from repro.resilience.journal import IngestJournal, parse_record, split_records
from repro.storage.serialize import (
    SKETCH_COLUMNS,
    SKETCH_PAYLOAD_ERRORS,
    _pack_backgrounds,
    _pack_ogs,
    _pack_ragged,
    _unpack_backgrounds,
    _unpack_ragged,
    index_from_arrays,
    index_to_arrays,
    read_references,
)

logger = logging.getLogger(__name__)

COLUMNAR_FORMAT = "strg-columnar"
COLUMNAR_VERSION = 3
LOG_NAME = "manifest.jsonl"
SEGMENT_SUFFIX = ".seg"
STORE_SUFFIX = ".strg"
#: The commit point of a 9.x (format version 1) store: detected by
#: name so that no entry point binds an empty store over one, never read.
V1_MANIFEST = "manifest.json"
#: Format versions only :func:`repro.storage.store.convert` reads, with
#: the release line that wrote them.
LEGACY_VERSIONS = {2: "10.x"}
#: The last release whose ``convert`` reads 2.x NPZ archives and 9.x
#: stores; the store it writes opens here unchanged.
RETIRED_CONVERTER = "15.0.0 (commit a97a69f)"

_MAGIC = b"STRGSEG2"
_PREFIX = len(_MAGIC) + 8          # magic + u64 header length
_ALIGN = 64                        # column offsets, as .npy aligns data
_SUM_HEX = 16                      # hex digits of a record / header sum
_BASE_KEYS = ("format", "format_version", "serving_config", "pivots",
              "segments")
_ENTRY_KEYS = ("seg", "rows", "bytes", "hsum")
_BG_COLUMNS = ("bg_nodes", "bg_node_offsets", "bg_edges", "bg_frames")
_SEGMENT_KEYS = ("shard",) + _ENTRY_KEYS


def columnar_path(path: str | os.PathLike) -> str:
    """Normalize a store path: a suffix-less path means ``<path>.strg``.

    Appends ``.strg`` unless the path already carries the suffix or
    already names a store directory (has a manifest log, or a 9.x
    manifest), so suffix-less ``save(path)`` / ``load(path)`` round-trips
    keep working.
    """
    p = os.fspath(path)
    if p.endswith(STORE_SUFFIX):
        return p
    if any(os.path.isfile(os.path.join(p, name))
           for name in (LOG_NAME, V1_MANIFEST)):
        return p
    return p + STORE_SUFFIX


def is_columnar_store(path: str | os.PathLike) -> bool:
    """True when ``path`` (after normalization) holds a store log."""
    return os.path.isfile(os.path.join(columnar_path(path), LOG_NAME))


def stored_version(path: str | os.PathLike) -> int | None:
    """The columnar format version of the store at ``path``, read from
    the first log line (1 for a 9.x manifest); ``None`` when there is no
    store or its first record is unreadable."""
    p = columnar_path(path)
    try:
        with open(os.path.join(p, LOG_NAME), "rb") as fh:
            return int(parse_record(fh.readline())["format_version"])
    except FileNotFoundError:
        return 1 if os.path.isfile(os.path.join(p, V1_MANIFEST)) else None
    except (OSError, ValueError, KeyError, TypeError):
        return None


def legacy_refusal(path: str | os.PathLike, version: int) -> StorageError:
    """The error an entry point raises on a store of an older format
    version: every one but ``convert`` on a 10.x store, every one on a
    9.x store (:func:`retired_refusal`)."""
    if version not in LEGACY_VERSIONS:
        return retired_refusal(
            path, f"a 9.x store (columnar format version {version})")
    return StorageError(
        f"{os.fspath(path)} is a {LEGACY_VERSIONS[version]} store "
        f"(columnar format version {version}), which this version only "
        f"converts: run `strg-index convert {os.fspath(path)}`")


def retired_refusal(path: str | os.PathLike, layout: str) -> StorageError:
    """The error every entry point, ``convert`` included, raises on a
    ``layout`` this version no longer reads: a 2.x NPZ archive or a 9.x
    store."""
    return StorageError(
        f"{os.fspath(path)} is {layout}, which this version no longer "
        f"reads: run `strg-index convert {os.fspath(path)}` with release "
        f"{RETIRED_CONVERTER} and open the .strg store it writes here")


def _short_sum(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:_SUM_HEX]


def _record_sum(previous: str, record: dict[str, Any]) -> str:
    """The chained checksum of one log record (its ``sum`` excluded)."""
    body = json.dumps({k: v for k, v in record.items() if k != "sum"},
                      sort_keys=True, separators=(",", ":"), default=str)
    return _short_sum(previous + body)


def read_log(path: str) -> tuple[list[dict[str, Any]], int, int]:
    """``(records, size, file_size)`` of a manifest log: its complete,
    checksum-chained records, the bytes they span and the file's size
    (a torn tail makes the two differ).  A bad record raises
    ``IndexCorruptionError``; the file is read as it is (``OSError``
    propagates)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    lines, size = split_records(blob)
    records: list[dict[str, Any]] = []
    previous = ""
    for number, line in enumerate(lines, 1):
        try:
            record = parse_record(line)
        except ValueError as exc:
            raise _corrupt(f"corrupt record {number} of store log {path}: "
                           f"{exc}", exc, path=path, record=number) from exc
        if record.get("sum") != _record_sum(previous, record):
            raise _corrupt(f"checksum mismatch in record {number} of store "
                           f"log {path}", path=path, record=number)
        previous = record["sum"]
        records.append(record)
    if not records:
        raise _corrupt(f"store log {path} holds no committed record",
                       path=path, bytes=len(blob))
    return records, size, len(blob)


def _corrupt(message: str, cause: BaseException | None = None,
             **details: Any) -> IndexCorruptionError:
    """An ``IndexCorruptionError`` whose ``details`` name the ``cause``'s
    type beside the given fields."""
    if cause is not None:
        details["cause"] = type(cause).__name__
    return IndexCorruptionError(message, details=details)


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _raw(array: np.ndarray) -> np.ndarray:
    """The C-order bytes of ``array`` as a flat ``uint8`` view."""
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8)


def _fsync_dir(path: str) -> None:
    """Make the directory entries created or renamed in ``path`` durable."""
    maybe_fail("storage.sync", path=path)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _column_bytes(spec: dict[str, Any]) -> int:
    return int(np.prod(spec["shape"], dtype=np.int64)) \
        * np.dtype(spec["dtype"]).itemsize


def _entry(record: dict[str, Any], **extra: Any) -> dict[str, Any]:
    return dict({key: record[key] for key in _ENTRY_KEYS}, **extra)


class _ShardLog(NamedTuple):
    """One shard's committed segments (base first, then its deltas in log
    order), its row count and its dead rows."""

    segments: list[dict[str, Any]]
    rows_total: int
    dead: frozenset[int]

    def extended(self, entry: dict[str, Any]) -> "_ShardLog":
        """This shard after the delta ``entry`` (its log fields)."""
        rows_total = self.rows_total + int(entry["rows"])
        dead: set[int] = set()
        for row in map(int, entry["dead"]):
            if not 0 <= row < rows_total or row in self.dead or row in dead:
                raise ValueError(f"record kills bad row {row}")
            dead.add(row)
        return _ShardLog(
            self.segments + [_entry(entry, kind="delta",
                                    shard=int(entry["shard"]))],
            rows_total, self.dead | dead)

    def live_rows(self) -> int:
        return self.rows_total - len(self.dead)


class RowLabels(NamedTuple):
    """The og_ids every read of one committed version gives its rows in
    this process: row ``r`` of shard ``s`` is ``base + starts[s] + r``,
    ``base`` opening a block no other OG is minted from."""

    version: str
    base: int
    starts: tuple[int, ...]     # rows before each shard, then the total

    def first(self, shard: int) -> int:
        """The label of row 0 of ``shard``."""
        return self.base + self.starts[shard]

    def locate(self, og_id: int) -> tuple[int, int]:
        """``(shard, row)`` of the row labelled ``og_id``."""
        offset = int(og_id) - self.base
        if not 0 <= offset < self.starts[-1]:
            raise InvalidParameterError(
                f"og_id {og_id} labels no row of store version "
                f"{self.version}")
        shard = bisect.bisect_right(self.starts, offset) - 1
        return shard, offset - self.starts[shard]


#: Store path -> the labels of the newest version read in this process.
_LABELS: dict[str, RowLabels] = {}
_LABELS_LOCK = threading.Lock()


class _Committed:
    """The committed state of one store, folded from its manifest log.

    The writer publishes a new one per commit (:meth:`appended`), so
    readers on other threads never see a half-applied append.
    """

    def __init__(self, records: list[dict[str, Any]], size: int,
                 file_size: int, ino: int):
        base = records[0]
        self.size = size              # bytes of complete records
        self.file_size = file_size    # ... plus a torn tail, if any
        self.ino = ino
        self.version = base["sum"]
        self.serving_config = dict(base["serving_config"])
        self.pivots = (None if base["pivots"] is None
                       else _entry(base["pivots"], kind="pivots",
                                   shard=None))
        self.shards: list[_ShardLog] = []
        for number, entry in enumerate(base["segments"]):
            if int(entry["shard"]) != number:
                raise ValueError(f"base segment {number} names shard "
                                 f"{entry['shard']}")
            self.shards.append(_ShardLog(
                [_entry(entry, kind="base", shard=number)],
                int(entry["rows"]), frozenset()))
        if not self.shards:
            raise ValueError("the base record names no shard")
        for record in records[1:]:
            self._extend(record)

    def _extend(self, record: dict[str, Any]) -> None:
        for entry in record["segments"]:
            shard = int(entry["shard"])
            if not 0 <= shard < len(self.shards):
                raise ValueError(f"record names unknown shard {shard}")
            self.shards[shard] = self.shards[shard].extended(entry)
        self.version = record["sum"]

    def appended(self, record: dict[str, Any], written: int
                 ) -> "_Committed":
        """The state after ``record`` (``written`` bytes) is appended."""
        clone = copy.copy(self)
        clone.size = clone.file_size = self.size + written
        clone.shards = list(self.shards)
        clone._extend(record)
        return clone

    def segments(self) -> list[dict[str, Any]]:
        """Every committed segment, in log (= name) order."""
        entries = [entry for log in self.shards for entry in log.segments]
        if self.pivots is not None:
            entries.append(self.pivots)
        return sorted(entries, key=lambda entry: entry["seg"])

    def next_ordinal(self) -> int:
        return 1 + max(int(entry["seg"][len("seg-"):])
                       for entry in self.segments())

    def rows_total(self) -> int:
        return sum(log.rows_total for log in self.shards)

    def rows_dead(self) -> int:
        return sum(len(log.dead) for log in self.shards)

    def live_rows(self) -> int:
        return self.rows_total() - self.rows_dead()


def _builds(live: int, writes: Sequence[Any]) -> bool:
    """Whether an insert of ``writes``, applied in order to an index of
    ``live`` OGs, finds it empty — the live index then *builds* the
    batch (``extend_index``), which an append of inserts cannot
    replay."""
    for write in writes:
        if write.op == "insert":
            if live == 0:
                return True
            live += 1
        elif write.row is not None:
            live -= 1
    return False


class _Delta:
    """One shard's share of an append: its ordered ops and the payload
    of the rows they insert."""

    def __init__(self, next_row: int):
        self.next_row = next_row
        self.ops: list[list] = []
        self.ogs: list[ObjectGraph] = []
        self.refs: list[Any] = []
        self.backgrounds: list[Any] = []
        self.dead: list[int] = []
        self._bg_ordinal: dict[int, int] = {}

    def insert(self, write: Any) -> int:
        """Add one insert; returns the shard row it lands in."""
        background = write.background
        ordinal = -1
        if background is not None:
            ordinal = self._bg_ordinal.setdefault(id(background),
                                                  len(self.backgrounds))
            if ordinal == len(self.backgrounds):
                self.backgrounds.append(background)
        self.ops.append(["i", ordinal])
        self.ogs.append(write.og)
        self.refs.append(write.clip_ref)
        self.next_row += 1
        return self.next_row - 1

    def delete(self, row: int) -> None:
        self.ops.append(["d", row])
        self.dead.append(row)

    def arrays(self) -> dict[str, np.ndarray]:
        arrays = _pack_ogs(self.ogs)
        if self.backgrounds:
            arrays.update(_pack_backgrounds([
                SimpleNamespace(background=bg) for bg in self.backgrounds
            ]))
        return arrays


class ColumnarStore:
    """One columnar store directory: S >= 1 shards under one log.

    Thread-safe for writers: ``write_index``/``append``/``merge``
    serialize on an internal lock.  Readers (``load_index``) are
    lock-free — they only ever see committed log records.
    """

    #: Fold segments into fresh bases once this fraction of rows is dead.
    merge_dead_fraction = 0.25
    #: ... or once this many segments accumulate (keeps replay bounded).
    merge_max_segments = 64

    def __init__(self, path: str | os.PathLike):
        self.path = columnar_path(path)
        self._mutate_lock = threading.RLock()
        self._merge_thread: threading.Thread | None = None
        self._state: _Committed | None = None
        #: The append handle, and the inode of the log it was opened on.
        self._log: IngestJournal | None = None
        self._log_ino = -1
        self._reset_rows()

    def _reset_rows(self) -> None:
        #: ``(shard, index row) -> store row`` where the two differ.
        self._row_map: dict[tuple[int, int], int] = {}
        #: Version of the committed state the row map describes; ``None``
        #: when the row map does not reflect the disk.
        self._bound_version: str | None = None

    @property
    def _bound(self) -> bool:
        return self._bound_version is not None

    # -- manifest log ------------------------------------------------------

    @property
    def _log_path(self) -> str:
        return os.path.join(self.path, LOG_NAME)

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.path, name + SEGMENT_SUFFIX)

    def exists(self) -> bool:
        """Whether a committed manifest log is present."""
        return os.path.isfile(self._log_path)

    def _committed(self) -> _Committed:
        """The committed state: the cached one while the log's size and
        inode are unchanged (one ``os.stat``), else a fresh parse."""
        state = self._state
        if state is not None:
            try:
                st = os.stat(self._log_path)
            except OSError:
                st = None
            if st is not None and st.st_size == state.file_size \
                    and st.st_ino == state.ino:
                return state
        state = self._read_log()
        self._state = state
        return state

    def _read_log(self) -> _Committed:
        path = self._log_path
        maybe_fail("storage.read", path=path)
        try:
            ino = os.stat(path).st_ino
            records, size, file_size = read_log(path)
        except FileNotFoundError as exc:
            if os.path.isfile(os.path.join(self.path, V1_MANIFEST)):
                raise legacy_refusal(self.path, 1) from exc
            if os.path.isdir(self.path):
                # The store directory exists but never reached its commit
                # point: an interrupted first write (or a stray empty
                # directory).  Data loss, not a missing store.
                raise _corrupt(
                    f"store directory {self.path} has no committed "
                    "manifest log (empty or partially written)",
                    path=self.path, missing=LOG_NAME,
                    contents=sorted(os.listdir(self.path))[:16]) from exc
            raise StorageError(f"cannot read {path}: {exc}") from exc
        except OSError as exc:
            raise _corrupt(f"cannot read store log {path}: {exc}", exc,
                           path=path) from exc
        for number, record in enumerate(records, 1):
            self._check_record(record, number)
        try:
            return _Committed(records, size, file_size, ino)
        except (KeyError, TypeError, ValueError) as exc:
            raise _corrupt(f"malformed store log {path}: {exc}", exc,
                           path=path) from exc

    def _check_record(self, record: dict[str, Any], number: int) -> None:
        path = self._log_path
        if number == 1:
            if record.get("format") != COLUMNAR_FORMAT:
                raise _corrupt(f"{path} is not a columnar store log "
                               f"(format={record.get('format')!r})",
                               path=path, format=record.get("format"))
            version = record.get("format_version")
            if version in LEGACY_VERSIONS:
                raise legacy_refusal(self.path, version)
            if version != COLUMNAR_VERSION:
                raise _corrupt(f"unsupported columnar format version "
                               f"{version} in {path} (supported: "
                               f"{COLUMNAR_VERSION})", path=path,
                               version=version, supported=COLUMNAR_VERSION)
        required = _BASE_KEYS if number == 1 else ("segments",)
        missing = {key for key in required if key not in record}
        entries = record.get("segments")
        if isinstance(entries, list):
            needed = _SEGMENT_KEYS + (() if number == 1 else ("dead",))
            missing.update(key for entry in entries for key in needed
                           if not isinstance(entry, dict) or key not in entry)
        if missing:
            raise _corrupt(f"incomplete record {number} of store log "
                           f"{path}: missing keys {sorted(missing)} "
                           "(partially written?)", path=path, record=number,
                           missing=sorted(missing))

    def manifest(self) -> dict[str, Any]:
        """The committed state as a fresh dict: ``num_shards``,
        ``serving_config``, ``has_pivots``, the segments in log order
        (``{"shard", "kind", "seg", "rows", "bytes", "hsum"}``), rows
        summed over the shards, and :meth:`version`."""
        state = self._committed()
        return {"format": COLUMNAR_FORMAT,
                "format_version": COLUMNAR_VERSION,
                "version": state.version,
                "num_shards": len(state.shards),
                "serving_config": dict(state.serving_config),
                "has_pivots": state.pivots is not None,
                "segments": [dict(entry) for entry in state.segments()],
                "rows_total": state.rows_total(),
                "rows_dead": state.rows_dead()}

    def version(self) -> str:
        """The committed version: a digest that changes with every commit
        (the chained sum of the last log record)."""
        return self._committed().version

    def _check_sizes(self, entries: Sequence[dict[str, Any]]) -> None:
        """O(#segments) truncation check: stat sizes against the log."""
        for entry in entries:
            target = self._segment_path(entry["seg"])
            try:
                actual = os.path.getsize(target)
            except OSError as exc:
                raise _corrupt(f"store file missing: {target}: {exc}", exc,
                               path=target) from exc
            if actual != entry["bytes"]:
                raise _corrupt(f"truncated store file {target}: {actual} "
                               f"bytes on disk, log says {entry['bytes']}",
                               path=target, actual=actual,
                               expected=entry["bytes"])

    def _open_checked(self) -> _Committed:
        state = self._committed()
        self._check_sizes(state.segments())
        return state

    def _replace_log(self, records: list[dict[str, Any]],
                     fault_point: str) -> _Committed:
        """Atomically replace the log (temp + fsync, rename, directory
        fsync) — the commit point of a full write."""
        previous = ""
        for record in records:
            record["sum"] = previous = _record_sum(previous, record)
        fd, tmp = tempfile.mkstemp(dir=self.path, prefix=LOG_NAME + ".",
                                   suffix=".tmp")
        os.close(fd)
        writer = IngestJournal(tmp)
        try:
            size = sum(writer.append(record) for record in records)
            writer.close()
            maybe_fail(fault_point, path=self._log_path)
            os.replace(tmp, self._log_path)
        except BaseException:
            writer.close()
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        _fsync_dir(self.path)
        if self._log is not None:       # release the replaced file
            self._log.close()
            self._log, self._log_ino = None, -1
        state = _Committed(records, size, size,
                           os.stat(self._log_path).st_ino)
        self._state = state
        return state

    def _append_record(self, state: _Committed, record: dict[str, Any]
                       ) -> _Committed:
        """Durably append one record to the log — the commit point of an
        append."""
        record["sum"] = _record_sum(state.version, record)
        maybe_fail("storage.append", path=self._log_path)
        if self._log_ino != state.ino:
            # The log was replaced (a full write, here or elsewhere)
            # since the handle was opened: append to the file there now.
            if self._log is not None:
                self._log.close()
            self._log = IngestJournal(self._log_path)
            self._log_ino = state.ino
        start = state.size
        state = state.appended(record, self._log.append(record))
        self._state = state
        maybe_truncate("storage.log", self._log_path, start=start)
        maybe_fail("storage.log", path=self._log_path)
        return state

    @staticmethod
    def _base_record(serving_config: dict[str, Any],
                     pivots: dict[str, Any] | None,
                     segments: list[dict[str, Any]]) -> dict[str, Any]:
        return dict(format=COLUMNAR_FORMAT, format_version=COLUMNAR_VERSION,
                    serving_config=serving_config, pivots=pivots,
                    segments=segments)

    # -- segment I/O ------------------------------------------------------

    def _write_segment(self, ordinal: int, kind: str, rows: int,
                       meta: dict[str, Any],
                       arrays: dict[str, np.ndarray]) -> dict[str, Any]:
        """Write one segment file and fsync it (the caller fsyncs the
        directory once per commit); return its log fields (``seg``,
        ``rows``, ``bytes``, ``hsum``).

        A file of the same name is an orphan from a crashed write — by
        definition unreferenced — and is overwritten.
        """
        columns, raws, offset = [], [], 0
        for name, array in arrays.items():
            raw = _raw(array)
            offset = _aligned(offset)
            columns.append({
                "name": name, "dtype": array.dtype.str,
                "shape": list(np.shape(array)), "offset": offset,
                "sha256": hashlib.sha256(raw).hexdigest()})
            raws.append((offset, raw))
            offset += raw.nbytes
        header = json.dumps({"kind": kind, "rows": rows, "meta": meta,
                             "columns": columns},
                            sort_keys=True, default=str).encode("utf-8")
        data = _aligned(_PREFIX + len(header))
        name = f"seg-{ordinal:06d}"
        target = self._segment_path(name)
        with open(target, "wb") as fh:
            fh.write(_MAGIC + struct.pack("<Q", len(header)) + header)
            for column_offset, raw in raws:
                fh.write(b"\0" * (data + column_offset - fh.tell()))
                fh.write(raw)
            fh.flush()
            size = fh.tell()
            maybe_truncate("storage.segment", target)
            os.fsync(fh.fileno())
        return {"seg": name, "rows": rows, "bytes": size,
                "hsum": _short_sum(header)}

    def _header(self, entry: dict[str, Any]) -> dict[str, Any]:
        """One segment's header, checked against its log record."""
        target = self._segment_path(entry["seg"])
        try:
            with open(target, "rb") as fh:
                prefix = fh.read(_PREFIX)
                if len(prefix) != _PREFIX or prefix[:len(_MAGIC)] != _MAGIC:
                    raise ValueError("not a segment file (bad magic)")
                (length,) = struct.unpack("<Q", prefix[len(_MAGIC):])
                raw = fh.read(length)
            if _short_sum(raw) != entry["hsum"]:
                raise ValueError("header checksum mismatch")
            header = json.loads(raw)
            header["data"] = _aligned(_PREFIX + length)
            header["index"] = {spec["name"]: spec
                               for spec in header["columns"]}
        except (OSError, ValueError, KeyError, TypeError,
                struct.error) as exc:
            raise _corrupt(f"corrupt segment header {target}: {exc}", exc,
                           path=target, segment=entry["seg"]) from exc
        return header

    def _columns(self, entry: dict[str, Any], header: dict[str, Any],
                 names: Sequence[str] | None, mmap: bool
                 ) -> dict[str, np.ndarray]:
        """Columns of one segment (``names=None``: all of them).

        With ``mmap=True`` each column is a read-only ``np.memmap`` at
        its offset — zero-copy, pages fault in on touch; with
        ``mmap=False`` only the named columns are read into RAM.
        """
        target = self._segment_path(entry["seg"])
        wanted = list(header["index"]) if names is None else names
        out: dict[str, np.ndarray] = {}
        try:
            with contextlib.ExitStack() as stack:
                fh = None if mmap else stack.enter_context(
                    open(target, "rb"))
                for name in wanted:
                    spec = header["index"].get(name)
                    if spec is None:
                        raise _corrupt(f"segment {entry['seg']} of "
                                       f"{self.path} has no column {name}",
                                       path=target, column=name)
                    dtype, shape = np.dtype(spec["dtype"]), \
                        tuple(spec["shape"])
                    offset = header["data"] + spec["offset"]
                    nbytes = _column_bytes(spec)
                    if nbytes == 0:
                        out[name] = np.zeros(shape, dtype=dtype)
                    elif mmap:
                        out[name] = np.memmap(target, dtype=dtype, mode="r",
                                              offset=offset, shape=shape)
                    else:
                        buf = bytearray(nbytes)
                        fh.seek(offset)
                        if fh.readinto(buf) != nbytes:
                            raise ValueError(f"column {name} is cut short")
                        out[name] = np.frombuffer(buf, dtype=dtype
                                                  ).reshape(shape)
        except (OSError, ValueError, TypeError) as exc:
            raise _corrupt(f"corrupt store file {target}: {exc}", exc,
                           path=target, segment=entry["seg"]) from exc
        return out

    def _collect_garbage(self, state: _Committed) -> None:
        """Drop files/directories the committed log no longer names."""
        keep = {entry["seg"] + SEGMENT_SUFFIX for entry in state.segments()}
        keep.add(LOG_NAME)
        try:
            entries = os.listdir(self.path)
        except OSError:  # pragma: no cover - store dir vanished
            return
        for entry in entries:
            if entry in keep or entry.endswith(".tmp"):
                continue
            target = os.path.join(self.path, entry)
            try:
                if os.path.isdir(target):
                    shutil.rmtree(target)
                else:
                    os.unlink(target)
            except OSError:  # pragma: no cover - best-effort cleanup
                logger.warning("could not collect garbage %s", target)

    # -- full write (base segments) ----------------------------------------

    def write_index(self, index: Any) -> str:
        """Write ``index`` as a fresh store: one base segment per shard
        (an ``STRGIndex`` is the one-shard index over itself), the
        placement pivots when there are any, then the one-record log.

        Also serves as the *merge* target: rewriting an existing store
        folds all segments into new bases and garbage-collects the old
        ones.  Returns the store path; an I/O failure raises
        ``StorageError`` and leaves the previously committed snapshot
        (if any) intact — and this store unbound, so the next
        :meth:`checkpoint` writes in full.
        """
        from repro.serving.sharding import ShardedIndex

        sharded = ShardedIndex.of(index)
        with self._mutate_lock, OBS.span("storage.columnar.write"), \
                self._unbind_on_error():
            try:
                os.makedirs(self.path, exist_ok=True)
                return self._write_base(sharded, self._next_base_ordinal())
            except OSError as exc:
                raise StorageError(
                    f"cannot write index to {self.path}: {exc}") from exc

    @contextlib.contextmanager
    def _unbind_on_error(self):
        """A write that raises may have left the disk anywhere between
        the old state and the new: drop the row binding."""
        try:
            yield
        except BaseException:
            self._bound_version = None
            raise

    def _next_base_ordinal(self) -> int:
        """A segment ordinal no committed record names."""
        if not self.exists():
            if os.path.isfile(os.path.join(self.path, V1_MANIFEST)):
                raise legacy_refusal(self.path, 1)
            return 0
        try:
            return self._committed().next_ordinal()
        except IndexCorruptionError:
            # An unreadable log commits nothing worth protecting; a full
            # write must be able to replace it (crash recovery).
            return 0

    def _write_base(self, index: Any, ordinal: int) -> str:
        entries: list[dict[str, Any]] = []
        row_map: dict[tuple[int, int], int] = {}
        for number, shard in enumerate(index.shards):
            arrays, meta = index_to_arrays(shard)
            entries.append(dict(shard=number, **self._write_segment(
                ordinal + number, "base", len(meta["refs"]), meta, arrays)))
            row_map.update(((number, record.row), stored) for stored, record
                           in enumerate(shard.leaf_records())
                           if record.row != stored)
        pivots = None
        if index.pivots is not None:
            flat, offsets = _pack_ragged(list(index.pivots))
            pivots = self._write_segment(
                ordinal + len(entries), "pivots", 0, {},
                {"pivot_values": flat, "pivot_offsets": offsets})
        _fsync_dir(self.path)
        state = self._replace_log(
            [self._base_record(index.serving_config(), pivots, entries)],
            "storage.write")
        self._collect_garbage(state)
        for entry in entries:
            if maybe_truncate("storage.write",
                              self._segment_path(entry["seg"])):
                logger.warning("injected truncation in segment %s",
                               entry["seg"])
        self._row_map = row_map
        self._bound_version = state.version
        OBS.count("storage.columnar.writes")
        return self.path

    # -- load -------------------------------------------------------------

    def load_index(self, mmap: bool = False) -> Any:
        """Materialize the ``ShardedIndex``: every shard's base snapshot
        plus the deterministic replay of its deltas.

        With ``mmap=True`` trajectory/centroid/sketch columns stay on
        disk as read-only memory-mapped views — the trees hold zero-copy
        slices and pages fault in per query.  The replayed index answers
        queries bit-identically to the live index that wrote the store.
        """
        from repro.serving.sharding import ShardedIndex

        with OBS.span("storage.columnar.load", mmap=mmap):
            state = self._open_checked()
            shards = [self._load_shard(state, number, mmap)
                      for number in range(len(state.shards))]
            pivots = None
            if state.pivots is not None:       # a few series: read them
                columns = self._columns(state.pivots,
                                        self._header(state.pivots),
                                        ("pivot_values", "pivot_offsets"),
                                        mmap=False)
                pivots = _unpack_ragged(columns["pivot_values"],
                                        columns["pivot_offsets"])
            try:
                index = ShardedIndex.from_shards(
                    shards, state.serving_config, pivots)
            except (TypeError, InvalidParameterError) as exc:
                raise _corrupt(f"cannot read sharded store {self.path}: "
                               f"{exc}", exc, path=self.path) from exc
            self._row_map = {}
            self._bound_version = state.version
            OBS.count("storage.columnar.loads")
            return index

    def load_shard(self, shard: int, mmap: bool = False) -> Any:
        """One shard's ``STRGIndex`` — a worker's read of the shards it
        serves; the store stays unbound."""
        state = self._open_checked()
        self._shard_log(state, shard)
        return self._load_shard(state, shard, mmap)

    def row_labels(self) -> RowLabels:
        """How this process labels the rows of the committed version."""
        return self._labels(self._committed())

    def _labels(self, state: _Committed) -> RowLabels:
        """One :class:`RowLabels` per store path and version."""
        key = os.path.realpath(self.path)
        with _LABELS_LOCK:
            labels = _LABELS.get(key)
            if labels is None or labels.version != state.version:
                starts = tuple(np.cumsum(
                    [0] + [log.rows_total for log in state.shards]).tolist())
                labels = _LABELS[key] = RowLabels(
                    state.version, reserve_og_ids(starts[-1]), starts)
            return labels

    def _shard_log(self, state: _Committed, shard: int) -> _ShardLog:
        if not 0 <= shard < len(state.shards):
            raise InvalidParameterError(
                f"store {self.path} has no shard {shard} "
                f"(it holds {len(state.shards)})")
        return state.shards[shard]

    def _load_shard(self, state: _Committed, shard: int, mmap: bool):
        """One shard's ``STRGIndex``: its base, then its deltas replayed."""
        log = state.shards[shard]
        first = self._labels(state).first(shard)
        index = self._materialize_base(log.segments[0], mmap, first)
        reader = ColumnarRowReader(self, log, mmap, first)
        ops, _ = self._delta_ops(log)
        for code, row, background in ops:
            if code == "i":
                og, ref = reader.record(row)
                index.insert(og, background, ref)
            else:
                index.delete_row(row)
        return index

    def _materialize_base(self, entry: dict[str, Any], mmap: bool,
                          first: int):
        header = self._header(entry)
        arrays = self._columns(entry, header, None, mmap)
        try:
            index = index_from_arrays(arrays, header["meta"],
                                      source=self._segment_path(entry["seg"]),
                                      og_id_base=first)
            if len(index) != int(entry["rows"]):
                raise ValueError(f"{len(index)} rows, the log says "
                                 f"{entry['rows']}")
            return index
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            raise _corrupt(f"cannot materialize base segment of "
                           f"{self.path}: {exc}", exc, path=self.path,
                           segment=entry["seg"]) from exc

    def _delta_ops(self, log: _ShardLog) -> tuple[list[tuple], np.ndarray]:
        """Every delta's ops in log order, and the rows they leave live
        (a mask over the shard's rows): ``("i", row, background)``
        inserts store row ``row``, ``("d", row, None)`` kills it.  A
        malformed delta, a delete of a row that is not live, or a dead
        set other than the log's raises ``IndexCorruptionError``."""
        row = int(log.segments[0]["rows"])
        live = np.zeros(log.rows_total, dtype=bool)
        live[:row] = True
        ops: list[tuple] = []
        for entry in log.segments[1:]:
            header = self._header(entry)
            start = row
            try:
                backgrounds = _unpack_backgrounds(self._columns(
                    entry, header, _BG_COLUMNS, mmap=False)) \
                    if "bg_frames" in header["index"] else []
                for code, operand in header["meta"]["ops"]:
                    operand = int(operand)
                    if code == "i":
                        live[row] = True
                        ops.append(("i", row, backgrounds[operand]
                                    if operand >= 0 else None))
                        row += 1
                    elif code != "d":
                        raise ValueError(f"unknown op code {code!r}")
                    elif 0 <= operand < row and live[operand]:
                        live[operand] = False
                        ops.append(("d", operand, None))
                    else:
                        raise _corrupt(f"a delta of {self.path} deletes "
                                       f"dead row {operand}",
                                       path=self.path, row=operand)
                if row - start != int(entry["rows"]):
                    raise ValueError(f"{row - start} inserts, the log "
                                     f"says {entry['rows']}")
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                raise _corrupt(f"cannot replay delta segment "
                               f"{entry['seg']} of {self.path}: {exc}", exc,
                               path=self.path, segment=entry["seg"]) from exc
        dead = np.flatnonzero(~live)
        if set(dead.tolist()) != log.dead:
            shard = log.segments[0]["shard"]
            raise _corrupt(f"dead rows of shard {shard} of {self.path} "
                           "disagree between the log and the delta ops "
                           f"({len(log.dead)} logged vs {len(dead)} "
                           "replayed)", path=self.path, shard=shard,
                           logged=len(log.dead), replayed=len(dead))
        return ops, live

    # -- row-addressed reads + out-of-core sketch --------------------------

    def row_reader(self, mmap: bool = True, shard: int = 0
                   ) -> "ColumnarRowReader":
        """Row-addressed reads over one shard of the committed store (no
        tree load).

        Resolves the shard's row ordinals to zero-copy offsets-table
        slices of the (optionally mmap'd) segment columns — see
        :class:`ColumnarRowReader`.
        """
        state = self._open_checked()
        return ColumnarRowReader(self, self._shard_log(state, shard), mmap,
                                 self._labels(state).first(shard))

    def load_sketch(self, distance: Any = None, mmap: bool = True) -> Any:
        """Attach the persisted sketch tier straight from store columns.

        The out-of-core approximate search entry point: one
        store-attached ``SketchIndex`` per shard holding live rows, in
        shard order, each opened in one pass over the shard's delta ops
        (validated as :meth:`load_index` validates them).  Base rows
        are zero-copy (optionally mmap) views of the base segment's
        ``sketch_*`` columns under one fixed live mask; the delta
        inserts still live are measured once (reference distances by
        ``distance``, default the stored ``MetricEGED``); records of
        both materialize lazily through the row reader.  Records are
        labelled as :meth:`load_index` labels them.  ``None`` when a
        part holds no persisted sketch; callers then materialize the
        index.
        """
        with OBS.span("storage.columnar.load_sketch", mmap=mmap):
            state = self._open_checked()
            labels = self._labels(state)
            sketches = []
            for number, log in enumerate(state.shards):
                if log.live_rows() > 0:
                    sketch = self._attach_sketch(log, distance, mmap,
                                                 labels.first(number))
                    if sketch is None:
                        return None
                    sketches.append(sketch)
            return sketches

    def _attach_sketch(self, log: _ShardLog, distance: Any, mmap: bool,
                       first: int) -> Any:
        """The store-attached sketch of one shard (:meth:`load_sketch`)."""
        from repro.distance.eged import MetricEGED
        from repro.search.sketch import SketchIndex, SketchRows

        base = log.segments[0]
        header = self._header(base)
        meta = header["meta"]
        sketch_meta = meta.get("sketch_meta")
        if sketch_meta is None:
            return None
        base_rows = int(base["rows"])
        reader = ColumnarRowReader(self, log, mmap, first, header)
        # The references are a few series: read them, map the per-row
        # columns.
        columns = self._columns(base, header, SKETCH_COLUMNS[:2], mmap=False)
        columns.update(self._columns(base, header, SKETCH_COLUMNS[2:], mmap))
        try:
            pivots, dists = read_references(columns, sketch_meta, base_rows)
        except SKETCH_PAYLOAD_ERRORS as exc:
            raise _corrupt(f"corrupt sketch tier in {self.path}: {exc}", exc,
                           path=self.path, rows=base_rows) from exc
        _, live = self._delta_ops(log)
        sketch = SketchIndex(pivots, dists,
                             None if live[:base_rows].all()
                             else live[:base_rows], SketchRows(reader))
        if distance is None:
            distance = MetricEGED(meta["config"]["metric_gap"])
        inserts = base_rows + np.flatnonzero(live[base_rows:])
        if len(inserts):
            pairs = [reader.record(row) for row in inserts.tolist()]
            sketch.add(distance, [og for og, _ in pairs],
                       [ref for _, ref in pairs], inserts)
        sketch.replay_distance = distance
        OBS.count("storage.columnar.sketch_loads")
        return sketch

    # -- incremental append -----------------------------------------------

    def append(self, writes: Sequence[Any]) -> list[str] | None:
        """Persist one ordered write batch — one delta segment per
        written shard, one log record — in O(delta).

        ``writes`` have the ``_BufferedWrite`` shape (``op``, ``og``,
        ``background``, ``clip_ref``, and the ``shard`` and ``row`` an
        insert landed in or a delete removed): what one
        ``LiveIndex.compact()`` applied.  A delete of a row the store
        does not hold live raises ``StorageError``.  Returns the new
        segment names, ``None`` when nothing was written.  Raising
        unbinds the store, so the next checkpoint writes in full.
        """
        with self._mutate_lock, self._unbind_on_error():
            if not self.exists():
                raise StorageError(
                    f"cannot append to {self.path}: store does not exist "
                    "(write_index() first)")
            state = self._committed()
            if not self._bound:
                raise StorageError(
                    f"cannot append to {self.path}: store rows are not "
                    "bound to this process (call load_index() or "
                    "write_index() first)")
            if state.version != self._bound_version:
                raise StorageError(
                    f"cannot append to {self.path}: the committed log "
                    "moved since this process bound its rows (a failed "
                    "or foreign commit); write the index in full")
            if state.file_size != state.size:
                # A torn tail from a crashed append: cut it off so the
                # record lands on a line of its own.
                os.truncate(self._log_path, state.size)
                state.file_size = state.size
            with OBS.span("storage.columnar.append", writes=len(writes)):
                return self._append_locked(state, writes)

    def _append_locked(self, state: _Committed,
                       writes: Sequence[Any]) -> list[str] | None:
        # A failure unbinds the store; the next full write remaps it.
        deltas: dict[int, _Delta] = {}
        row_map = self._row_map
        for write in writes:
            if write.op not in ("insert", "delete"):
                raise InvalidParameterError(
                    f"unknown write op {write.op!r}")
            if write.row is None and write.op == "delete":
                continue                  # its label matched no OG
            key = (int(write.shard), int(write.row))
            if not 0 <= key[0] < len(state.shards):
                raise StorageError(
                    f"cannot append to {self.path}: a write names shard "
                    f"{key[0]}, the store holds {len(state.shards)}")
            log = state.shards[key[0]]
            delta = deltas.setdefault(key[0], _Delta(log.rows_total))
            if write.op == "insert":
                row = delta.insert(write)
                if row != key[1]:
                    row_map[key] = row
                continue
            row = row_map.pop(key, key[1])
            if not 0 <= row < delta.next_row or row in log.dead \
                    or row in delta.dead:
                raise StorageError(
                    f"cannot append to {self.path}: a delete names row "
                    f"{key[1]} of shard {key[0]}, which the store does "
                    "not hold live")
            delta.delete(row)
        if not deltas:
            return None
        entries = []
        ordinal = state.next_ordinal()
        for shard in sorted(deltas):
            delta = deltas[shard]
            entries.append(dict(shard=shard, **self._write_segment(
                ordinal, "delta", len(delta.ogs),
                {"ops": delta.ops, "refs": delta.refs}, delta.arrays()),
                dead=delta.dead))
            ordinal += 1
        _fsync_dir(self.path)
        state = self._append_record(state, {"segments": entries})
        for entry in entries:
            if maybe_truncate("storage.append",
                              self._segment_path(entry["seg"])):
                logger.warning("injected truncation in segment %s",
                               entry["seg"])
        self._bound_version = state.version
        OBS.count("storage.columnar.appends")
        OBS.gauge("storage.columnar.segments", len(state.segments()))
        return [entry["seg"] for entry in entries]

    def checkpoint(self, index: Any, writes: Sequence[Any] | None = None
                   ) -> list[str] | None:
        """The cheapest valid persistence step: an append of ``writes``
        (the batch applied since the last checkpoint) to a bound store;
        else a full ``write_index`` — a first checkpoint, an unbound
        store, or a batch with an insert that found the index empty
        (the live index *builds* such a batch; a replay of inserts
        would not)."""
        with self._mutate_lock:
            if writes is not None and self._bound and self.exists() \
                    and not _builds(self._committed().live_rows(), writes):
                return self.append(writes)
            self.write_index(index)
            return None

    # -- merge ------------------------------------------------------------

    def needs_merge(self) -> bool:
        """Whether segment count / dead-row fraction crossed the policy."""
        if not self.exists():
            return False
        state = self._committed()
        if sum(len(log.segments) for log in state.shards) \
                > self.merge_max_segments:
            return True
        return state.rows_dead() / max(state.rows_total(), 1) \
            > self.merge_dead_fraction

    def merge(self) -> bool:
        """Fold every segment into fresh bases (O(corpus), amortized):
        the store materializes its committed state from disk and writes
        it again, so no caller's index — possibly older than the log —
        is ever written over newer appends."""
        with self._mutate_lock:
            if not self.exists():
                return False
            with OBS.span("storage.columnar.merge"):
                # Rows of the materialized index are the old store rows;
                # a bound writer's map is carried through (index row ->
                # old store row -> new store row) so it can keep
                # appending.
                live = self._row_map if self._bound else None
                materialized = self.load_index(mmap=False)
                self.write_index(materialized)
                if live is not None:
                    # Old store row = materialized row; new = leaf position.
                    owner = {(s, old): row for (s, row), old in live.items()}
                    self._row_map = {
                        (s, row): new
                        for s, shard in enumerate(materialized.shards)
                        for new, record in enumerate(shard.leaf_records())
                        for row in [owner.get((s, record.row), record.row)]
                        if row != new}
                OBS.count("storage.columnar.merges")
                return True

    def maybe_merge(self) -> bool:
        """Schedule a :meth:`merge` in a daemon thread if the policy says
        so; returns whether one was scheduled.  Merges serialize on the
        store's write lock, so concurrent appends simply wait their
        turn."""
        if not self.needs_merge():
            return False
        with self._mutate_lock:
            if self._merge_thread is not None \
                    and self._merge_thread.is_alive():
                return False
            worker = threading.Thread(
                target=self._background_merge, name="columnar-merge",
                daemon=True)
            self._merge_thread = worker
            worker.start()
        return True

    def _background_merge(self) -> None:
        try:
            if self.needs_merge():
                self.merge()
        except Exception:  # pragma: no cover - logged, never propagates
            logger.exception("background merge of %s failed", self.path)

    def join_merges(self, timeout: float | None = None) -> None:
        """Wait for an in-flight background merge (tests, clean shutdown)."""
        worker = self._merge_thread
        if worker is not None:
            worker.join(timeout)

    # -- integrity / introspection ----------------------------------------

    def verify(self) -> dict[str, Any]:
        """Full integrity pass: re-hash every column against its header.

        This is the O(corpus) deep check that the O(1) open deliberately
        skips; ``convert`` runs it after every import and crash recovery
        before trusting a snapshot.  A mismatch raises
        ``IndexCorruptionError`` naming the segment and the column.
        Returns ``{"files": n, "columns": n, "bytes": n}`` (the log
        counts as a file).
        """
        state = self._committed()
        entries = state.segments()
        return {"files": 1 + len(entries),
                "columns": self._verify_segments(entries),
                "bytes": state.size + sum(entry["bytes"]
                                          for entry in entries)}

    def _verify_segments(self, entries: Sequence[dict[str, Any]]) -> int:
        """Check the size, header and every column hash of ``entries``;
        returns the number of columns checked."""
        self._check_sizes(entries)
        columns = 0
        for entry in entries:
            header = self._header(entry)
            target = self._segment_path(entry["seg"])
            with open(target, "rb") as fh:
                for spec in header["columns"]:
                    fh.seek(header["data"] + spec["offset"])
                    digest = hashlib.sha256()
                    left = _column_bytes(spec)
                    while left > 0:
                        chunk = fh.read(min(left, 1 << 20))
                        if not chunk:
                            break
                        digest.update(chunk)
                        left -= len(chunk)
                    if digest.hexdigest() != spec["sha256"]:
                        raise _corrupt(
                            f"checksum mismatch in column {spec['name']} "
                            f"of segment {entry['seg']} ({target}): "
                            "payload was altered on disk", path=target,
                            segment=entry["seg"], column=spec["name"],
                            expected=spec["sha256"],
                            actual=digest.hexdigest())
                    columns += 1
        return columns

    def describe(self) -> dict[str, Any]:
        """Small stats dict for CLI/status output."""
        state = self._committed()
        entries = state.segments()
        return {
            "path": self.path,
            "version": state.version,
            "shards": len(state.shards),
            "segments": len(entries),
            "rows_total": state.rows_total(),
            "rows_dead": state.rows_dead(),
            "bytes": state.size + sum(entry["bytes"] for entry in entries),
        }

    def __repr__(self) -> str:
        return f"ColumnarStore({self.path!r})"


class ColumnarRowReader:
    """Row-addressed reads over one shard of a committed store.

    Store rows resolve to ``(segment, local row)`` by a prefix-sum
    binary search; series and frames are zero-copy offsets-table slices
    of the (optionally mmap'd) ``og_*`` columns, loaded lazily per
    segment.  Records are ``ObjectGraph``s labelled as by
    :class:`RowLabels` (``first + row``).  ``base_header``, when the
    caller already verified the base segment's header, spares its
    first row fetch a second parse.
    """

    def __init__(self, store: ColumnarStore, log: _ShardLog,
                 mmap: bool, first: int,
                 base_header: dict[str, Any] | None = None):
        self._store = store
        self._base_header = base_header
        self._mmap = bool(mmap)
        self._first = int(first)
        self._segments = list(log.segments)
        self._columns: list[tuple | None] = [None] * len(self._segments)
        self._refs: list[list | None] = [None] * len(self._segments)
        starts = [0]
        for entry in self._segments:
            starts.append(starts[-1] + int(entry["rows"]))
        self._starts = starts
        self._rows_total = log.rows_total
        self._dead = log.dead

    def __len__(self) -> int:
        return self._rows_total

    def alive_mask(self) -> np.ndarray:
        """Boolean live-row mask over all global row ordinals."""
        alive = np.ones(self._rows_total, dtype=bool)
        if self._dead:
            alive[np.fromiter(self._dead, dtype=np.int64)] = False
        return alive

    def is_alive(self, row: int) -> bool:
        return int(row) not in self._dead

    def _locate(self, row: int) -> tuple[int, int]:
        if not 0 <= row < self._rows_total:
            raise InvalidParameterError(
                f"row {row} out of range [0, {self._rows_total})")
        part = bisect.bisect_right(self._starts, row) - 1
        return part, row - self._starts[part]

    def _load_part(self, part: int) -> None:
        """Map ``(values, offsets, frames, labels)`` and read the refs of
        one segment.

        Columns are held as base-class ``ndarray`` views of the maps:
        still zero-copy, but a slice skips ``np.memmap``'s
        per-``__getitem__`` subclass bookkeeping (3x the cost of the
        slice itself).
        """
        entry = self._segments[part]
        header = (self._base_header if part == 0 and self._base_header
                  else self._store._header(entry))
        if part == 0:
            # Held only until used: dead readers wait in cycles for the
            # collector, and a retained header kept ~3 MB more of them.
            self._base_header = None
        names = ("og_values", "og_offsets", "og_frames", "og_labels")
        loaded = self._store._columns(entry, header, names, self._mmap)
        self._refs[part] = header["meta"].get("refs") or []
        self._columns[part] = tuple(loaded[name].view(np.ndarray)
                                    for name in names)

    def _part_columns(self, part: int) -> tuple:
        if self._columns[part] is None:
            self._load_part(part)
        return self._columns[part]

    def series(self, row: int) -> np.ndarray:
        """Zero-copy ``(n, d)`` float64 trajectory slice of one row."""
        part, local = self._locate(int(row))
        values, offsets, _, _ = self._part_columns(part)
        return values[offsets[local]:offsets[local + 1]]

    def record(self, row: int) -> tuple[Any, Any]:
        """``(og, clip_ref)`` of one row, labelled ``first + row``."""
        row = int(row)
        part, local = self._locate(row)
        values, offsets, frames_flat, labels = self._part_columns(part)
        lo, hi = offsets[local], offsets[local + 1]
        frames = None
        if frames_flat.shape[0] == offsets[-1]:
            frames = frames_flat[lo:hi]
        label = int(labels[local])
        refs = self._refs[part]
        og = ObjectGraph(
            values=values[lo:hi],
            frames=frames,
            label=None if label < 0 else label,
            og_id=self._first + row,
        )
        return og, (refs[local] if local < len(refs) else None)


__all__ = [
    "COLUMNAR_FORMAT",
    "COLUMNAR_VERSION",
    "ColumnarRowReader",
    "ColumnarStore",
    "RowLabels",
    "columnar_path",
    "is_columnar_store",
    "stored_version",
]
