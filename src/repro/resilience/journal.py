"""Append-only JSONL logs: the ingest journal, and the framing the
columnar store's manifest log reuses.

:class:`~repro.serving.ingest.IngestService` — the one write path, which
``VideoDatabase.ingest`` runs through too — appends one JSON line per job
state transition (``QUEUED → RUNNING → INDEXED | QUARANTINED``) and one
``checkpoint`` line per snapshot it persists.  After a crash,
:func:`replay_jobs` folds the journal into the jobs the snapshot holds
and the jobs :meth:`IngestService.recover` must re-run from the spool.

Framing (shared with :mod:`repro.storage.columnar`'s manifest log):
one JSON object per line, each line flushed and fsync'd as it is
appended, so a crash can lose at most the line being written.  A final
line missing its newline is a *torn tail* (the classic kill-mid-append
artifact): :func:`split_records` leaves it out.  What a reader does with
a bad line before the tail is its own policy: the ingest journal
truncates its replay there (the records before it are still trusted),
the store raises.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import IO

logger = logging.getLogger(__name__)


class IngestJournal:
    """Append-only JSONL writer with per-record durability."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._fh: IO[bytes] | None = None

    def append(self, record: dict) -> int:
        """Durably append one record (flush + fsync); returns its bytes."""
        if self._fh is None:
            self._fh = open(self.path, "ab")
        line = (json.dumps(record, default=str) + "\n").encode("utf-8")
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return len(line)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def split_records(blob: bytes) -> tuple[list[bytes], int]:
    """``(lines, end)``: the newline-terminated lines of a JSONL log and
    the byte length they span.  ``blob[end:]`` is the torn tail."""
    end = blob.rfind(b"\n") + 1
    return blob[:end].splitlines(), end


def parse_record(line: bytes) -> dict:
    """One log line as a JSON object; ``ValueError`` if it is not."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"not a JSON object: {line[:40]!r}")
    return record


def read_journal(path: str | os.PathLike) -> tuple[list[dict], bool]:
    """Read a journal, tolerating a torn tail.

    Returns ``(records, truncated)`` where ``truncated`` is True when a
    torn tail or a malformed line stopped the replay early (records
    after it are discarded).  A missing journal reads as ``([], False)``.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        return [], False
    lines, end = split_records(blob)
    records: list[dict] = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(parse_record(line))
        except ValueError:
            logger.warning("journal %s: malformed line %d; replay truncated",
                           path, lineno + 1)
            return records, True
    if end < len(blob):
        logger.warning("journal %s: torn final line; replay truncated", path)
        return records, True
    return records, False


@dataclass
class JobReplay:
    """Journal replay for the streaming ingest service.

    ``jobs_in_order`` holds one merged info dict per job id, in original
    submission order, carrying the last-seen value of every journaled
    field (``state``, ``clip``, ``spool``, ``attempts``, ...).

    ``completed``    job ids INDEXED *before* the last checkpoint — their
                     OGs are durable in the snapshot; never re-run.
    ``pending``      info dicts for jobs that must re-run: last state
                     QUEUED/RUNNING, or INDEXED after the last checkpoint
                     (their OGs died with the process).
    ``quarantined``  info dicts whose last state is QUARANTINED — poison
                     decisions survive restarts and are never retried.
    """

    jobs_in_order: list[dict] = field(default_factory=list)
    completed: list[str] = field(default_factory=list)
    pending: list[dict] = field(default_factory=list)
    quarantined: list[dict] = field(default_factory=list)


def replay_jobs(records: list[dict]) -> JobReplay:
    """Fold job-state journal records into a :class:`JobReplay`.

    ``job`` events merge per job id (last write wins per field); each
    ``checkpoint`` event marks every currently-INDEXED job durable.  The
    classification implements the service's recovery invariant: an
    INDEXED record proves the OGs reached a published snapshot, and a
    later checkpoint proves that snapshot reached disk — so only
    checkpoint-covered INDEXED jobs are completed, and re-running the
    rest can neither lose an OG nor index one twice.
    """
    merged: dict[str, dict] = {}
    durable: list[str] = []
    durable_set: set[str] = set()
    for record in records:
        event = record.get("event")
        if event == "job":
            job_id = str(record.get("job"))
            info = merged.setdefault(job_id, {"job": job_id})
            for key, value in record.items():
                if key != "event" and value is not None:
                    info[key] = value
        elif event == "checkpoint":
            for job_id, info in merged.items():
                if info.get("state") == "INDEXED" \
                        and job_id not in durable_set:
                    durable.append(job_id)
                    durable_set.add(job_id)
    jobs = list(merged.values())
    pending = [info for info in jobs
               if info["job"] not in durable_set
               and info.get("state") in ("QUEUED", "RUNNING", "INDEXED")]
    quarantined = [info for info in jobs
                   if info.get("state") == "QUARANTINED"]
    return JobReplay(jobs_in_order=jobs, completed=durable,
                     pending=pending, quarantined=quarantined)
