"""Fault policies and quarantine records for graceful-degradation ingest.

A :class:`FaultPolicy` decides what ``VideoDatabase.ingest`` does when a
segment fails with a *recoverable* error (:data:`RECOVERABLE_ERRORS`).
Every policy runs the segment as one
:class:`~repro.serving.ingest.IngestService` job, which is journaled as
quarantined when it fails:

- ``FAIL_FAST``        — one attempt, then the error propagates (right
  for interactive debugging).
- ``SKIP``             — one attempt; the segment stays quarantined and
  ingestion goes on.
- ``RETRY_THEN_SKIP``  — retry the segment under the database's
  :class:`~repro.resilience.retry.RetryPolicy`, then quarantine.  The
  default: transient faults heal, persistent ones are contained.

Programming errors (``TypeError``, ``KeyError``, ...) always propagate
from ``VideoDatabase.ingest`` — quarantine is for degraded *input*, not
broken code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import (
    ClusteringError,
    CorruptSegmentError,
    GraphStructureError,
    SegmentationError,
)

#: Errors that mark one segment as bad input rather than a library bug.
#: ``OSError`` covers decode/read failures from real frame sources.
RECOVERABLE_ERRORS: tuple[type[BaseException], ...] = (
    CorruptSegmentError,
    SegmentationError,
    GraphStructureError,
    ClusteringError,
    OSError,
)


class FaultPolicy(str, Enum):
    """How batch ingestion reacts to a recoverable per-segment failure."""

    FAIL_FAST = "fail-fast"
    SKIP = "skip-and-quarantine"
    RETRY_THEN_SKIP = "retry-then-skip"

    @classmethod
    def coerce(cls, value: "FaultPolicy | str") -> "FaultPolicy":
        """Accept either an enum member or its string value."""
        return value if isinstance(value, cls) else cls(value)


@dataclass
class QuarantineRecord:
    """One quarantined segment and the structured reason."""

    segment: str
    error_type: str
    message: str
    details: dict = field(default_factory=dict)
    attempts: int = 1

    def to_dict(self) -> dict:
        return {
            "segment": self.segment,
            "error_type": self.error_type,
            "message": self.message,
            "details": self.details,
            "attempts": self.attempts,
        }


def quarantine_record(segment: str, error: BaseException,
                      attempts: int = 1) -> QuarantineRecord:
    """Build a :class:`QuarantineRecord` from a caught exception."""
    return QuarantineRecord(
        segment=segment,
        error_type=type(error).__name__,
        message=str(error),
        details=dict(getattr(error, "details", {}) or {}),
        attempts=attempts,
    )
