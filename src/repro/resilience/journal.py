"""Append-only ingest journal for crash recovery.

:class:`~repro.serving.ingest.IngestService` — the one write path, which
``VideoDatabase.ingest`` runs through too — appends one JSON line per job
state transition (``QUEUED → RUNNING → INDEXED | QUARANTINED``) and one
``checkpoint`` line per snapshot it persists.  After a crash,
:func:`replay_jobs` folds the journal into the jobs the snapshot holds
and the jobs :meth:`IngestService.recover` must re-run from the spool.

Writes are flushed and fsync'd per record, so a crash can lose at most
the line being written.  A torn final line (the classic
kill-mid-append artifact) is detected and skipped on read; garbage in
the *middle* of the journal truncates the replay at that point — the
records before it are still trusted.
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
        self._fh: IO[str] | None = None

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync)."""
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, default=str) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_journal(path: str | os.PathLike) -> tuple[list[dict], bool]:
    """Read a journal, tolerating a torn tail.

    Returns ``(records, truncated)`` where ``truncated`` is True when a
    malformed line stopped the replay early (records after it are
    discarded).  A missing journal reads as ``([], False)``.
    """
    records: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    logger.warning(
                        "journal %s: malformed line %d; replay truncated",
                        path, lineno + 1,
                    )
                    return records, True
                if not isinstance(record, dict):
                    logger.warning(
                        "journal %s: non-object line %d; replay truncated",
                        path, lineno + 1,
                    )
                    return records, True
                records.append(record)
    except FileNotFoundError:
        return [], False
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
