"""Fast checks of the benchmark itself, at smoke scale.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository
root (tier-1's ``testpaths = ["tests"]`` does not collect them).
"""

from __future__ import annotations

import json
import multiprocessing
import random
import re
import statistics
import time

import pytest

from . import harness, runner, trace

SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke(workload: str, traced: bool = False, seed: int = 5) -> dict:
    return runner.run_workload(workload, seed, 0.5, traced, "smoke")


@pytest.fixture(scope="module")
def exact_run() -> dict:
    return smoke("knn_exact_inproc")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names)), "a name is used twice"
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, exact_run):
    result = exact_run if workload == "knn_exact_inproc" else smoke(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, f"{name} must never be 0"
    json.dumps({k: v for k, v in result.items() if k != "diagnostics"})


def test_counts_of_two_runs_are_identical(exact_run):
    again = smoke("knn_exact_inproc")
    for name in ("dist_evals_per_query", "recall_at_10",
                 "store_bytes_per_og"):
        assert (again["metrics"][name]["value"]
                == exact_run["metrics"][name]["value"]), name
    assert again["attempted"] >= 1


def test_traced_run_prints_every_layer_and_removes_its_wrappers():
    from repro.distance import batch
    from repro.serving.sharding import ShardedIndex

    before = (batch.one_vs_many, ShardedIndex.__dict__["knn"])
    result = smoke("knn_exact_inproc", traced=True)
    assert (batch.one_vs_many, ShardedIndex.__dict__["knn"]) == before
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    values = {k: m["value"] for k, m in result["metrics"].items()}
    # Separation: this workload never enters these layers.
    for name in ("serving.net.overhead_ms", "serving.workers.overhead_ms",
                 "search.candidates_ms", "storage.row_fetch_ms",
                 "video.segment_ms", "clustering.fit_s"):
        assert values[name] == 0, name
    assert values["distance.kernel_ms"] > 0
    assert values["serving.sharding.self_ms"] > 0
    assert (harness.OUT_DIR / "trace-knn_exact_inproc.jsonl").exists()


def test_stop_children_ends_workers_and_the_resource_tracker():
    # What a run that failed before ``WorkerPool.shutdown`` would leave.
    worker = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,), daemon=True)
    worker.start()
    assert len(harness.child_pids()) >= 2     # the worker and the tracker
    harness.stop_children()
    assert harness.child_pids() == []
    assert not worker.is_alive()


def test_tracer_self_time_and_adoption():
    tracer = trace.Tracer()

    def leaf():
        return sum(range(2000))

    inner = tracer.wrap(leaf, "distance:leaf", "distance")
    outer = tracer.wrap(lambda: [inner(), inner()], "core:outer", "core")
    tracer.client(outer)()
    summary = tracer.summary(client=True)
    assert summary["distance:leaf"]["calls"] == 2
    assert summary["core:outer"]["self"] == pytest.approx(
        summary["core:outer"]["time"] - summary["distance:leaf"]["time"])
    assert not tracer.summary(client=False)


def test_block_median_ignores_a_burst_that_hits_under_half_the_run():
    rng = random.Random(7)
    blocks = [[rng.gauss(1.0, 0.02) for _ in range(100)] for _ in range(24)]
    for block in blocks[5:13]:            # 8 of 24 blocks disturbed
        block[:] = [value * 5 for value in block]
    flat = [value for block in blocks for value in block]
    assert statistics.mean(flat) > 1.3    # a plain mean is off by >30 %
    estimate = harness.block_median(
        blocks, lambda block: harness.percentile(block, 50))
    assert estimate == pytest.approx(1.0, rel=0.02)
