"""Ingest throughput under injected faults + crash-recovery cost.

Beyond the paper: a streaming deployment (Sec. 5's incremental
maintenance) must keep ingesting when segments go bad.  This bench
renders a batch of small segments and measures:

- ingest throughput through the resilient ``VideoDatabase`` at 0%, 1%
  and 5% injected per-segment fault rates (``skip-and-quarantine`` via
  the default retry-then-skip policy with zero backoff);
- the resilience overhead at 0% faults against the seed-style direct
  ``pipeline.process`` loop (must stay under 5%);
- the cost of ``VideoDatabase.recover`` from a state dir: snapshot
  load plus the replay of every job journaled after the checkpoint.

Scale: 30 segments x 6 frames at 48x36 px (seconds, not the paper's
hours of video); throughput ordering, not absolute rate, is the result.
"""

from __future__ import annotations

import time

from conftest import format_table, record_result

NUM_SEGMENTS = 30
FAULT_RATES = (0.0, 0.01, 0.05)
MAX_OVERHEAD = 0.05


def _segments(n=NUM_SEGMENTS, num_frames=6):
    from repro.video.synthesize import (
        Actor,
        BackgroundSpec,
        SceneRenderer,
        linear_trajectory,
        make_vehicle,
    )

    segments = []
    for i in range(n):
        background = BackgroundSpec(width=48, height=36,
                                    base_color=(90, 90, 90))
        y = 10.0 + (i % 4) * 6.0
        scene = SceneRenderer(background, [
            Actor(linear_trajectory((4.0, y), (44.0, y), num_frames),
                  make_vehicle((200, 40, 40))),
        ])
        segments.append(scene.render(num_frames, name=f"seg-{i:03d}"))
    return segments


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_fault_recovery(benchmark, tmp_path_factory):
    from repro.pipeline import VideoPipeline
    from repro.resilience import FaultInjector, RetryPolicy, injected
    from repro.storage.database import VideoDatabase

    segments = _segments()
    retry = RetryPolicy(max_attempts=3, base_delay=0.0)

    def seed_style():
        # The pre-resilience ingest path: bare pipeline.process loop.
        pipeline = VideoPipeline()
        index = None
        for video in segments:
            _, index = pipeline.process(video, index)
        return index

    def resilient(rate, seed=2005):
        db = VideoDatabase(retry_policy=retry)
        injector = FaultInjector(seed=seed)
        if rate > 0:
            injector.inject("decomposition", rate=rate)
        with injected(injector):
            db.ingest_many(segments)
        return db

    def run():
        # Untimed warm-up: the first pipeline pass pays allocator and
        # import costs that would otherwise bias whichever path runs
        # first (observed at ~25% on this workload).
        seed_style()
        resilient(0.0)
        baseline_s, _ = _best_of(seed_style)
        rows = [["seed (pipeline.process loop)", "-",
                 f"{NUM_SEGMENTS / baseline_s:.1f}", "-", "-"]]
        overhead = None
        for rate in FAULT_RATES:
            elapsed, db = _best_of(lambda: resilient(rate))
            health = db.health()
            rows.append([
                f"resilient ingest @ {rate:.0%} faults",
                health["fault_policy"],
                f"{NUM_SEGMENTS / elapsed:.1f}",
                str(health["quarantined"]),
                str(health["retries"]),
            ])
            if rate == 0.0:
                overhead = elapsed / baseline_s - 1.0

        # Crash recovery: snapshot load + exactly-once replay of the jobs
        # journaled after the checkpoint (nothing checkpoints the replay,
        # so every round replays the same jobs).
        state = tmp_path_factory.mktemp("fault_recovery") / "state"
        db = VideoDatabase(retry_policy=retry, state_dir=state)
        db.ingest_many(segments[: NUM_SEGMENTS // 2])
        db.save()
        db.ingest_many(segments[NUM_SEGMENTS // 2:])
        recover_s, recovered = _best_of(
            lambda: VideoDatabase.recover(state), rounds=3
        )
        assert len(recovered.index) == len(db.index)
        return {
            "rows": rows,
            "overhead": overhead,
            "recover_ms": recover_s * 1e3,
            "replayed": len(recovered.recovery.replayed_jobs),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = format_table(
        ["configuration", "policy", "segs/s", "quarantined", "retries"],
        stats["rows"],
    )
    lines.append("")
    lines.append(f"resilience overhead @ 0% faults: "
                 f"{stats['overhead'] * 100:+.2f}% "
                 f"(budget {MAX_OVERHEAD:.0%})")
    lines.append(f"recover from snapshot+journal: {stats['recover_ms']:.1f} ms "
                 f"({stats['replayed']} job(s) replayed)")
    record_result("fault_recovery", lines)
    assert stats["replayed"] == NUM_SEGMENTS - NUM_SEGMENTS // 2
    # The resilience layer must be free when nothing fails.
    assert stats["overhead"] < MAX_OVERHEAD
