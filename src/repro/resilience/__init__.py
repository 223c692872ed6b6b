"""Fault tolerance: injection harness, retry policies, quarantine,
journaling and crash recovery (see ``docs/RESILIENCE.md``).

The paper's streaming claim (Sec. 5) only holds in practice if ingestion
survives degraded input and persistence survives being killed.  This
package supplies the machinery; ``repro.pipeline`` and ``repro.storage``
wire it through the hot paths.
"""

from repro.resilience.faults import (
    INJECTION_POINTS,
    FaultInjector,
    FaultSpec,
    active,
    injected,
    install,
    maybe_fail,
    maybe_transform,
    maybe_truncate,
    uninstall,
)
from repro.resilience.journal import (
    IngestJournal,
    JobReplay,
    read_journal,
    replay_jobs,
)
from repro.resilience.policy import (
    RECOVERABLE_ERRORS,
    FaultPolicy,
    QuarantineRecord,
    quarantine_record,
)
from repro.resilience.retry import RetryPolicy, call_with_retry

__all__ = [
    "INJECTION_POINTS",
    "FaultInjector",
    "FaultSpec",
    "FaultPolicy",
    "IngestJournal",
    "JobReplay",
    "QuarantineRecord",
    "RECOVERABLE_ERRORS",
    "RetryPolicy",
    "active",
    "call_with_retry",
    "injected",
    "install",
    "maybe_fail",
    "maybe_transform",
    "maybe_truncate",
    "quarantine_record",
    "read_journal",
    "replay_jobs",
    "uninstall",
]
