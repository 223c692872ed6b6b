"""Retry policies with exponential backoff, jitter and a soft deadline.

:func:`call_with_retry` wraps one pipeline stage (decompose a segment,
write a snapshot) and re-runs it on retryable failures.  Delays follow a
capped exponential schedule with optional jitter; jitter is drawn from a
seeded ``random.Random`` so a policy with a fixed ``seed`` produces the
same schedule on every run — required for reproducible benchmarks and
byte-identical test assertions.

The ``sleep`` and ``clock`` hooks exist so tests can run schedules
instantly against a fake clock.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from repro.errors import InvalidParameterError

T = TypeVar("T")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff configuration for one retried operation.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means up to
    two retries.  Delay before retry ``i`` (1-based) is
    ``min(base_delay * multiplier**(i-1), max_delay)`` plus a uniform
    jitter of up to ``jitter`` times that delay.  ``total_timeout`` is a
    soft deadline: once the elapsed time exceeds it, no further retry is
    attempted and the last error propagates.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.0
    total_timeout: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise InvalidParameterError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise InvalidParameterError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise InvalidParameterError("jitter must be in [0, 1]")

    def delays(self) -> Iterator[float]:
        """The backoff delays before retry 1, 2, ... (without jitter cap
        randomness applied when ``jitter == 0``; deterministic under a
        fixed ``seed`` otherwise)."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            capped = min(delay, self.max_delay)
            if self.jitter:
                capped += capped * self.jitter * rng.random()
            yield capped
            delay *= self.multiplier


def call_with_retry(fn: Callable[[], T],
                    policy: RetryPolicy | None = None, *,
                    retryable: tuple[type[BaseException], ...] = (Exception,),
                    on_retry: Callable[[int, BaseException, float], None]
                    | None = None,
                    sleep: Callable[[float], None] = time.sleep,
                    clock: Callable[[], float] = time.monotonic) -> T:
    """Run ``fn`` under ``policy``, retrying on ``retryable`` errors.

    ``on_retry(attempt, error, delay)`` is called before each sleep (for
    telemetry counters).  Non-retryable exceptions propagate immediately;
    the final retryable exception propagates unchanged once attempts or
    the soft deadline are exhausted.
    """
    policy = policy or RetryPolicy()
    started = clock()
    delays = policy.delays()
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except retryable as exc:
            if attempt >= policy.max_attempts:
                raise
            if (policy.total_timeout is not None
                    and clock() - started >= policy.total_timeout):
                logger.warning("retry deadline exceeded after %d attempt(s)",
                               attempt)
                raise
            delay = next(delays)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            logger.info("attempt %d/%d failed (%s); retrying in %.3fs",
                        attempt, policy.max_attempts, exc, delay)
            if delay > 0:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
