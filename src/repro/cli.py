"""Command-line interface.

Subcommands::

    strg-index demo                # synthetic end-to-end demo
    strg-index build  OUT          # build an index from a simulated stream
    strg-index ingest OUT          # fault-tolerant, journaled batch ingest
    strg-index recover STATE_DIR   # exactly-once crash recovery
    strg-index query  INDEX        # k-NN query with a synthetic trajectory
    strg-index convert SRC [DST]   # import a 10.x store
    strg-index bench               # tiny smoke benchmark
    strg-index serve  INDEX        # drive the query service on an index
    strg-index bench-load          # closed-loop load benchmark at N shards

Snapshot paths name a memory-mappable columnar ``.strg/`` store (a
suffix-less path means ``<path>.strg/``; see ``docs/STORAGE.md``).  A
10.x store (columnar format version 2) is refused everywhere except
``convert``, which imports it; a 2.x ``.npz`` archive or a 9.x store
(format version 1) is refused everywhere, naming release 15.0.0, whose
``convert`` still reads it.  Every subcommand prints human-readable
progress to stdout; a storage error prints to stderr and exits 3.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np


def _start_observability(args: argparse.Namespace) -> bool:
    """Enable tracing/metrics when ``--observe`` (or an export path) is set."""
    observe = bool(getattr(args, "observe", False)
                   or getattr(args, "trace_out", None)
                   or getattr(args, "metrics_out", None))
    if observe:
        from repro import observability

        observability.configure(enabled=True, reset_state=True)
    return observe


def _report_observability(args: argparse.Namespace) -> None:
    """Print the span tree and write any requested exports."""
    from repro import observability

    tree = observability.render_trace_tree()
    if tree:
        print("-- trace " + "-" * 40)
        print(tree)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        observability.export_trace_jsonl(trace_out)
        print(f"trace written to {trace_out}")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        observability.export_metrics_prometheus(metrics_out)
        print(f"metrics written to {metrics_out}")


def _add_observe_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--observe", action="store_true",
                     help="enable tracing/metrics and print the span tree")
    sub.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write the span trace as JSONL (implies --observe)")
    sub.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write Prometheus metrics (implies --observe)")


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.index import STRGIndex, STRGIndexConfig
    from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs

    ogs = generate_synthetic_ogs(
        SyntheticConfig(num_ogs=args.num_ogs, noise_fraction=args.noise,
                        seed=args.seed)
    )
    print(f"generated {len(ogs)} synthetic OGs (noise {args.noise:.0%})")
    index = STRGIndex(STRGIndexConfig(n_clusters=args.clusters))
    started = time.perf_counter()
    index.build(ogs)
    print(f"built {index!r} in {time.perf_counter() - started:.2f}s")
    query = ogs[0]
    hits = index.knn(query, k=5)
    print(f"5-NN of OG {query.og_id} (pattern {query.meta.get('pattern')}):")
    for d, og, _ in hits:
        print(f"  d={d:8.2f}  og={og.og_id:<5d} pattern={og.meta.get('pattern')}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.datasets.real import STREAMS, render_stream_segment
    from repro.storage.database import VideoDatabase

    if args.stream not in STREAMS:
        print(f"unknown stream {args.stream!r}; choose from {sorted(STREAMS)}",
              file=sys.stderr)
        return 2
    db = VideoDatabase(shards=args.shards)
    video = render_stream_segment(args.stream, num_frames=args.frames)
    n = db.ingest(video)
    print(f"ingested {video!r}: {n} OGs")
    print(f"stats: {db.stats()}")
    db.save(args.output)
    print(f"index saved to {db.path}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.datasets.real import STREAMS, render_stream_segment
    from repro.errors import IngestDegradedError
    from repro.resilience import FaultInjector, injected
    from repro.storage.database import VideoDatabase

    if args.stream not in STREAMS:
        print(f"unknown stream {args.stream!r}; choose from {sorted(STREAMS)}",
              file=sys.stderr)
        return 2
    observe = _start_observability(args)
    state_dir = args.state_dir or args.output + ".state"
    db = VideoDatabase(fault_policy=args.fault_policy, state_dir=state_dir)
    rng = np.random.default_rng(args.seed)
    videos = []
    for i in range(args.segments):
        video = render_stream_segment(args.stream, num_frames=args.frames,
                                      rng=rng)
        video.name = f"{args.stream}-{i:04d}"
        videos.append(video)
    injector = FaultInjector(seed=args.seed)
    if args.fault_rate > 0:
        injector.inject("decomposition", rate=args.fault_rate)
    try:
        with injected(injector):
            report = db.ingest_many(videos, workers=args.workers)
    except IngestDegradedError as exc:
        print(f"ingest degraded: {exc}", file=sys.stderr)
        print(f"health: {db.health()}", file=sys.stderr)
        return 3
    print(f"ingested {report['segments']} segment(s), "
          f"{report['ogs']} OGs, {report['quarantined']} quarantined")
    db.save()   # the checkpoint recovery starts from
    db.save(args.output)
    print(f"index saved to {db.path} (state: {state_dir})")
    print(f"health: {db.health()}")
    if observe:
        _report_observability(args)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.errors import RecoveryError
    from repro.storage.database import VideoDatabase

    try:
        db = VideoDatabase.recover(args.state_dir)
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 3
    report = db.recovery
    print(f"snapshot {report.snapshot_path}: "
          f"{'loaded' if report.snapshot_loaded else 'UNUSABLE'} "
          f"({report.snapshot_ogs} OGs)")
    if report.snapshot_error:
        print(f"  snapshot error: {report.snapshot_error}")
    print(f"journal {report.journal_path}"
          + (" (torn tail skipped)" if report.journal_truncated else ""))
    for label, jobs in (("completed", report.completed_jobs),
                        ("replayed", report.replayed_jobs),
                        ("quarantined", report.quarantined_jobs),
                        ("lost", report.lost_jobs)):
        print(f"{label} jobs: {len(jobs)}")
        for job_id in jobs[: args.limit]:
            print(f"  {job_id}")
    if report.replayed_jobs:
        db.save()
        print(f"checkpointed {len(db.index)} OGs")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.api import open_database
    from repro.datasets.patterns import pattern_by_id

    observe = _start_observability(args)
    db = open_database(args.index, create=False,
                       mmap=args.mmap != "never")
    pattern = pattern_by_id(args.pattern)
    trajectory = pattern.generate(32)
    hits = db.knn(trajectory, k=args.k, search_budget=args.search_budget)
    out_of_core = args.search_budget is not None and not db.index_loaded
    print(f"{args.k}-NN for pattern {pattern.name}"
          + (f" (budget {args.search_budget} evaluations"
             + (", out-of-core" if out_of_core else "") + ")"
             if args.search_budget is not None else "")
          + ":")
    for hit in hits:
        print(f"  d={hit.distance:8.2f}  og={hit.og.og_id}  ref={hit.clip_ref}")
    if observe:
        _report_observability(args)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.storage.columnar import ColumnarStore
    from repro.storage.store import convert

    started = time.perf_counter()
    dest = convert(args.source, args.dest)
    elapsed = time.perf_counter() - started
    print(f"imported {args.source} -> columnar store {dest.path} "
          f"in {elapsed:.2f}s")
    print(f"verified: {dest.describe()}")
    if os.path.realpath(ColumnarStore(args.source).path) \
            != os.path.realpath(dest.path):       # not converted in place
        print("the source is untouched; delete it once the store is in "
              "service")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core.index import STRGIndex, STRGIndexConfig
    from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
    from repro.distance.base import CountingDistance
    from repro.distance.eged import MetricEGED
    from repro.mtree.tree import MTree, MTreeConfig

    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=args.num_ogs, seed=1))
    counter_strg = CountingDistance(MetricEGED())
    index = STRGIndex(STRGIndexConfig(n_clusters=12),
                      metric_distance=counter_strg)
    index.build(ogs)
    counter_mt = CountingDistance(MetricEGED())
    mtree = MTree(counter_mt, MTreeConfig(split_policy="random"))
    for og in ogs:
        mtree.insert(og, og.og_id)
    counter_strg.reset()
    counter_mt.reset()
    for og in ogs[:10]:
        index.knn(og, k=10)
        mtree.knn(og, k=10)
    print(f"distance evaluations over 10 queries (k=10, n={len(ogs)}):")
    print(f"  STRG-Index: {counter_strg.calls}")
    print(f"  M-tree(RA): {counter_mt.calls}")
    return 0


def _cmd_shots(args: argparse.Namespace) -> int:
    from repro.datasets.real import STREAMS, render_stream_segment
    from repro.video.frames import VideoSegment
    from repro.video.shots import split_into_shots

    segments = []
    for name in args.streams:
        if name not in STREAMS:
            print(f"unknown stream {name!r}; choose from {sorted(STREAMS)}",
                  file=sys.stderr)
            return 2
        segments.append(render_stream_segment(name, num_frames=args.frames))
    video = VideoSegment(
        np.concatenate([s.frames for s in segments]),
        name="+".join(args.streams),
    )
    shots = split_into_shots(video)
    print(f"{video.num_frames} frames -> {len(shots)} shot(s):")
    for i, shot in enumerate(shots):
        print(f"  shot {i}: {shot.num_frames} frames ({shot.name})")
    return 0


def _cmd_motion(args: argparse.Namespace) -> int:
    import math

    from repro.storage.database import VideoDatabase

    db = VideoDatabase.load(args.index)
    direction = math.radians(args.direction) if args.direction is not None else None
    hits = db.query_by_motion(
        direction=direction,
        min_velocity=args.min_velocity,
        max_velocity=args.max_velocity,
        min_duration=args.min_duration,
    )
    print(f"{len(hits)} trajectories match:")
    for og in hits[: args.limit]:
        print(f"  OG {og.og_id}: {og.duration()} frames, "
              f"mean speed {og.mean_velocity():.1f} px/frame")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """One path: build a backend, put the one front on it (behind HTTP
    with ``--http``), drive the load runner once."""
    from contextlib import ExitStack

    from repro.serving import (
        HttpSender,
        LiveIndex,
        NetConfig,
        NetFrontend,
        QueryService,
        ServiceConfig,
        WorkerPool,
        WorkerPoolConfig,
        run_load,
    )

    observe = _start_observability(args)
    http = args.http is not None
    if http:
        host, _, port_text = args.http.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"--http expects HOST:PORT, got {args.http!r}",
                  file=sys.stderr)
            return 2
    # Worker processes serve a written store read-only; a live index
    # (needed to ingest) runs in this process.  Both serve the store's
    # shards as written (`strg-index build --shards N` writes N).
    pooled = http and not args.ingest
    ingest_service = None
    if pooled:
        from repro.storage.store import open_store

        store = open_store(args.index)
        if not store.exists():
            print(f"--http serves worker processes memory-mapping a written "
                  f".strg store; there is none at {store.path}",
                  file=sys.stderr)
            return 2
        backend = WorkerPool(store.path, WorkerPoolConfig(
            workers=args.workers, replicas=args.replicas))
        corpus = store.load_index(mmap=True)
        print(f"starting {args.workers} worker slot(s) x {args.replicas} "
              f"replica(s) over {store.path}...")
    else:
        from repro.api import open_database

        db = open_database(args.index, create=False)
        corpus = db.index
        backend = LiveIndex(corpus)
        if args.ingest:
            from repro.datasets.real import STREAMS, render_stream_segment
            from repro.serving import IngestService, IngestServiceConfig

            if args.ingest_stream not in STREAMS:
                print(f"unknown stream {args.ingest_stream!r}; "
                      f"choose from {sorted(STREAMS)}", file=sys.stderr)
                return 2
            ingest_service = IngestService(
                backend, db.pipeline, state_dir=args.state_dir,
                config=IngestServiceConfig(
                    queue_depth=args.ingest_queue_depth,
                    job_timeout=args.ingest_timeout,
                ))
    # Self-driven demo load: queries drawn from the corpus itself.
    queries = [og for _, og in zip(range(64), corpus.object_graphs())]
    defaults = NetConfig().service if http else ServiceConfig()
    config = ServiceConfig(
        # Over a pool the front's threads only block on worker pipes.
        workers=defaults.workers if pooled else args.workers,
        queue_depth=args.queue_depth,
        default_deadline=args.deadline or defaults.default_deadline)
    with ExitStack() as stack:
        if pooled:
            stack.enter_context(backend)
        if http:
            frontend = stack.enter_context(NetFrontend(
                backend, ingest_service, NetConfig(
                    host=host, port=int(port_text), service=config)))
            print(f"serving {backend!r} (snapshot "
                  f"{backend.health()['snapshot']})")
            print(f"listening on http://{host}:{frontend.port} "
                  "(/knn /range /query /health /metrics /ingest)")
            send = stack.enter_context(HttpSender(host, frontend.port))
        else:
            send = stack.enter_context(QueryService(backend, config)).submit
            print(f"serving {backend!r} with {args.workers} worker(s); "
                  f"driving {args.rate:.0f} req/s for {args.duration:.1f}s"
                  + (f" while ingesting {args.ingest_jobs} clip(s)"
                     if ingest_service else ""))
        if ingest_service is not None:
            # Submit the write load first (backpressured, workers drain
            # concurrently), then drive reads against the moving index.
            rng = np.random.default_rng(0)
            for i in range(args.ingest_jobs):
                video = render_stream_segment(
                    args.ingest_stream, num_frames=args.ingest_frames,
                    rng=rng)
                video.name = f"{args.ingest_stream}-live-{i:04d}"
                ingest_service.submit(video, backpressure=True)
        if http and args.duration <= 0:
            print("serving until interrupted (Ctrl-C)...", flush=True)
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                print("interrupted; shutting down")
        else:
            print(run_load(send, queries, k=args.k, rate=args.rate,
                           duration=args.duration, deadline=args.deadline,
                           search_budget=args.search_budget))
    if ingest_service is not None:
        ingest_service.drain(timeout=120.0)
        health = ingest_service.health()
        ingest_service.shutdown()
        print(f"ingest: {health['indexed_jobs']} job(s) indexed, "
              f"{health['quarantined']} quarantined, "
              f"snapshot v{health['snapshot_version']} "
              f"({health['indexed_ogs']} OGs)")
        if health["freshness_lag"] is not None:
            print(f"ingest freshness lag: {health['freshness_lag'] * 1e3:.0f} ms "
                  "(upload -> queryable)")
    if observe:
        _report_observability(args)
    return 0


def _cmd_bench_load(args: argparse.Namespace) -> int:
    from repro.core.index import STRGIndexConfig
    from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
    from repro.serving import (
        LiveIndex,
        QueryService,
        ServiceConfig,
        ShardedIndex,
        ShardedIndexConfig,
        run_load,
    )

    observe = _start_observability(args)
    ogs = generate_synthetic_ogs(
        SyntheticConfig(num_ogs=args.num_ogs, seed=args.seed))
    queries = generate_synthetic_ogs(SyntheticConfig(num_ogs=32, seed=99))
    throughput = {}
    for shards in args.shards:
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=shards,
            index=STRGIndexConfig(n_clusters=args.clusters)))
        started = time.perf_counter()
        index.build(ogs)
        build_s = time.perf_counter() - started
        with QueryService(LiveIndex(index), ServiceConfig(
                workers=args.workers, queue_depth=args.queue_depth)) as svc:
            report = run_load(svc.submit, queries, k=args.k,
                              num_requests=args.requests,
                              concurrency=args.concurrency)
        throughput[shards] = report.throughput
        print(f"{shards} shard(s) (built in {build_s:.1f}s): {report}")
    if len(throughput) > 1:
        low, high = min(throughput), max(throughput)
        print(f"speedup {high} vs {low} shard(s): "
              f"{throughput[high] / throughput[low]:.2f}x")
    if observe:
        _report_observability(args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="strg-index",
        description="STRG-Index (SIGMOD 2005) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="synthetic end-to-end demo")
    demo.add_argument("--num-ogs", type=int, default=240)
    demo.add_argument("--noise", type=float, default=0.05)
    demo.add_argument("--clusters", type=int, default=12)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo)

    build = sub.add_parser("build", help="index a simulated stream")
    build.add_argument("output", help="output snapshot path")
    build.add_argument("--stream", default="Traffic1")
    build.add_argument("--frames", type=int, default=60)
    build.add_argument("--shards", type=int, default=1,
                       help="shards of the written store (serve serves "
                            "what the store holds)")
    build.set_defaults(func=_cmd_build)

    ingest = sub.add_parser(
        "ingest", help="fault-tolerant batch ingest with journaling"
    )
    ingest.add_argument("output", help="output snapshot path")
    ingest.add_argument("--stream", default="Traffic1")
    ingest.add_argument("--segments", type=int, default=5)
    ingest.add_argument("--frames", type=int, default=12)
    ingest.add_argument("--fault-policy", default="retry-then-skip",
                        choices=["fail-fast", "skip-and-quarantine",
                                 "retry-then-skip"])
    ingest.add_argument("--fault-rate", type=float, default=0.0,
                        help="injected per-segment failure probability")
    ingest.add_argument("--state-dir", default=None,
                        help="journal/spool/checkpoint directory "
                             "(default: <output>.state)")
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--workers", type=int, default=None,
                        help="frame-parallel segmentation workers per "
                             "segment (results are identical at any "
                             "worker count; default serial)")
    _add_observe_options(ingest)
    ingest.set_defaults(func=_cmd_ingest)

    recover = sub.add_parser(
        "recover", help="replay an ingest state dir after a crash"
    )
    recover.add_argument("state_dir", help="ingest state directory")
    recover.add_argument("--limit", type=int, default=10,
                         help="max job ids listed per kind")
    recover.set_defaults(func=_cmd_recover)

    query = sub.add_parser("query", help="k-NN query a saved index")
    query.add_argument("index", help="index store path (.strg)")
    query.add_argument("--pattern", type=int, default=0)
    query.add_argument("-k", type=int, default=5)
    query.add_argument("--search-budget", type=int, default=None,
                       metavar="N",
                       help="max exact distance evaluations (approximate "
                            "sketch-tier search; omit for exact)")
    query.add_argument("--mmap", default="auto",
                       choices=("auto", "always", "never"),
                       help="memory-map the store instead of copying it "
                            "into RAM. With --search-budget, mmap mode "
                            "answers straight from the store's sketch "
                            "columns without materializing the tree "
                            "(out-of-core search); 'never' forces the "
                            "eager in-RAM load")
    _add_observe_options(query)
    query.set_defaults(func=_cmd_query)

    convert = sub.add_parser(
        "convert", help="import a 10.x store into a current columnar "
                        "store (2.x NPZ archives and 9.x stores: run "
                        "release 15.0.0's convert)"
    )
    convert.add_argument("source", help="10.x .strg store")
    convert.add_argument("dest", nargs="?", default=None,
                         help="destination store path (default: convert "
                              "in place)")
    convert.set_defaults(func=_cmd_convert)

    bench = sub.add_parser("bench", help="smoke benchmark vs M-tree")
    bench.add_argument("--num-ogs", type=int, default=240)
    bench.set_defaults(func=_cmd_bench)

    shots = sub.add_parser("shots", help="parse simulated streams into shots")
    shots.add_argument("streams", nargs="+",
                       help="stream names to concatenate (e.g. Traffic1 Lab2)")
    shots.add_argument("--frames", type=int, default=30,
                       help="frames rendered per stream")
    shots.set_defaults(func=_cmd_shots)

    motion = sub.add_parser("motion", help="motion-attribute query on a saved index")
    motion.add_argument("index", help="index store path (.strg)")
    motion.add_argument("--direction", type=float, default=None,
                        help="heading in degrees (0 = east)")
    motion.add_argument("--min-velocity", type=float, default=None)
    motion.add_argument("--max-velocity", type=float, default=None)
    motion.add_argument("--min-duration", type=int, default=None)
    motion.add_argument("--limit", type=int, default=10)
    motion.set_defaults(func=_cmd_motion)

    serve = sub.add_parser(
        "serve", help="run the query service over a saved index"
    )
    serve.add_argument("index",
                       help="index store path (.strg; served with the "
                            "shards it holds)")
    serve.add_argument("--http", default=None, metavar="HOST:PORT",
                       help="serve over HTTP with worker *processes* "
                            "memory-mapping the store (port 0 = "
                            "ephemeral)")
    serve.add_argument("--replicas", type=int, default=1,
                       help="worker processes per shard slot in --http "
                            "mode (2+ keeps shards served through a "
                            "single worker crash)")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--queue-depth", type=int, default=64)
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds")
    serve.add_argument("--rate", type=float, default=50.0,
                       help="offered load in requests/second")
    serve.add_argument("--duration", type=float, default=2.0,
                       help="seconds of open-loop load to drive")
    serve.add_argument("-k", type=int, default=5)
    serve.add_argument("--search-budget", type=int, default=None,
                       metavar="N",
                       help="per-query exact-evaluation budget (approximate "
                            "sketch-tier search; omit for exact)")
    serve.add_argument("--ingest", action="store_true",
                       help="stream clips into the live index while serving")
    serve.add_argument("--ingest-jobs", type=int, default=4,
                       help="clips to ingest during the run")
    serve.add_argument("--ingest-frames", type=int, default=8,
                       help="frames per ingested clip")
    serve.add_argument("--ingest-stream", default="Traffic1",
                       help="simulated stream feeding the ingest service")
    serve.add_argument("--ingest-queue-depth", type=int, default=16)
    serve.add_argument("--ingest-timeout", type=float, default=None,
                       help="per-job processing timeout in seconds")
    serve.add_argument("--state-dir", default=None,
                       help="journal/spool/checkpoint directory "
                            "(enables crash recovery)")
    _add_observe_options(serve)
    serve.set_defaults(func=_cmd_serve)

    bench_load = sub.add_parser(
        "bench-load", help="closed-loop serving benchmark at several shard counts"
    )
    bench_load.add_argument("--shards", type=int, nargs="+", default=[1, 4])
    bench_load.add_argument("--num-ogs", type=int, default=480)
    bench_load.add_argument("--clusters", type=int, default=10,
                            help="per-shard cluster count")
    bench_load.add_argument("--requests", type=int, default=64)
    bench_load.add_argument("--concurrency", type=int, default=2)
    bench_load.add_argument("--workers", type=int, default=2)
    bench_load.add_argument("--queue-depth", type=int, default=64)
    bench_load.add_argument("-k", type=int, default=10)
    bench_load.add_argument("--seed", type=int, default=0)
    _add_observe_options(bench_load)
    bench_load.set_defaults(func=_cmd_bench_load)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``strg-index`` console script."""
    from repro.errors import StorageError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
