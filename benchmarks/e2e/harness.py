"""Measurement primitives shared by the workloads: blocked timing with a
median over blocks, resident-memory and CPU readings from ``/proc``, the
host calibration kernel, and the ``BENCHMARK.json`` contract."""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

#: The checkout root (``benchmarks/e2e/harness.py`` -> two levels up).
ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch space of a run — stores, ingest state, traces.  Inside the
#: checkout (the contract forbids writing elsewhere) and git-ignored.
OUT_DIR = Path(__file__).resolve().parent / "out"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def load_spec() -> dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


# -- estimators -------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def block_median(blocks: Iterable[Sequence[float]],
                 stat: Callable[[Sequence[float]], float]) -> float:
    """Median over blocks of a per-block statistic.

    A run's timed phase is cut into equal blocks of operations; a burst
    of host noise that hits fewer than half the blocks moves some block
    statistics but not their median.
    """
    return statistics.median(stat(block) for block in blocks)


# -- /proc readings ---------------------------------------------------------

def rss_anon_mb(pids: Iterable[int]) -> float:
    """Sum of ``RssAnon`` (heap the OS cannot reclaim) over ``pids``."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("RssAnon:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time the process ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # Fields after the parenthesised command name; utime and stime
        # are the 14th and 15th fields of the whole line.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def dir_bytes(path: str | os.PathLike) -> int:
    """Total size of the regular files under ``path``."""
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


def child_pids() -> list[int]:
    """Live or unreaped processes whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):   # gone meanwhile
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``multiprocessing`` with the ``spawn`` start method launches a
    resource tracker beside the workers; it outlives ``WorkerPool.
    shutdown`` and ends only some time after its parent, so a run would
    leave it behind.  It is asked to stop first (it then unlinks what it
    tracks); whatever is still there after that — a worker a failed run
    never shut down — is killed.  Every child is waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    try:
        resource_tracker._resource_tracker._stop()
    except Exception:   # best effort: the sweep below ends it anyway
        pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
        try:
            os.waitpid(pid, 0)
        except OSError:   # already reaped
            pass


# -- host calibration -------------------------------------------------------

def calibrate() -> float:
    """Seconds one fixed single-thread kernel takes on this host now.

    Timed before every block.  It diagnoses a disturbed run (the kernel
    does the same work every time, so its spread is the host's) and never
    adjusts a metric.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - started


def cpu_ticks() -> tuple[int, int]:
    """``(stolen, busy)`` CPU ticks of the whole host since boot.

    Stolen ticks are those a virtual CPU wanted and the hypervisor gave
    to a neighbour; busy ticks are all but idle and I/O wait.  A run's
    share of stolen ticks says how disturbed the host was (at 0.25 every
    timing of a k-NN workload read 35 % worse): reported, never used to
    adjust a metric.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        ticks = [int(field) for field in fh.readline().split()[1:]]
    stolen = ticks[7] if len(ticks) > 7 else 0
    return stolen, sum(ticks) - ticks[3] - ticks[4]


def calib_spread(samples: Sequence[float]) -> float:
    """(p90 - p10) / median of the calibration timings of one run."""
    if len(samples) < 2:
        return 0.0
    return ((percentile(samples, 90) - percentile(samples, 10))
            / statistics.median(samples))
