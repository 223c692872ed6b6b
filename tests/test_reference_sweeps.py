"""Reference-batched sweeps: what a write evaluates, and in how many calls.

Keying an OG against every centroid and sketching it against every
reference series is one ``pairwise_matrix`` block per write.  The block
must charge the Section 6.3 cost model exactly what the per-reference
loops it replaced charged (the totals below were recorded with those
loops, with the sketch's share moved from 8 pivots to 16 references,
then into the first builds that fit the set), and an insert must reach
the ERP kernel once per reference set, whatever K is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import observability
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.patterns import ALL_PATTERNS
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance import batch
from repro.distance.base import CountingDistance
from repro.distance.batch import one_vs_many
from repro.distance.eged import EGED, MetricEGED
from repro.serving import sharding
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig


def corpus(num: int, seed: int):
    return generate_synthetic_ogs(SyntheticConfig(
        num_ogs=num, noise_fraction=0.10, seed=seed,
        patterns=ALL_PATTERNS[:8]))


def test_write_sequence_spends_the_recorded_evaluations(monkeypatch):
    """Build with an out-of-sample assignment, 40 inserts, the sketch
    tier, then a 2-shard affine build and inserts: the metric and
    cluster evaluations ``CountingDistance`` sees, and the pairs
    ``observability`` counts, equal the per-reference loops' totals,
    moved by what fitting the set at build moved."""
    ogs = corpus(160, seed=11)
    monkeypatch.setattr(sharding, "COARSE_SAMPLE_SIZE", 32)
    monkeypatch.setattr(sharding, "COARSE_ITERATIONS", 4)
    metric = CountingDistance(MetricEGED())
    cluster = CountingDistance(EGED())
    observability.configure(enabled=True, reset_state=True)
    try:
        index = STRGIndex(
            STRGIndexConfig(n_clusters=6, em_iterations=4,
                            cluster_sample_size=40, seed=0),
            metric_distance=metric, cluster_distance=cluster)
        index.build(ogs[:80])
        for og in ogs[80:120]:
            index.insert(og)
        index.sketch_tier()
        sharded = ShardedIndex(
            ShardedIndexConfig(
                num_shards=2, placement="affine",
                index=STRGIndexConfig(n_clusters=3, em_iterations=4,
                                      seed=0)),
            metric_distance=metric, cluster_distance=cluster)
        sharded.build(ogs[:100])
        for og in ogs[120:160]:
            sharded.insert(og)
        pairs = observability.metrics()["distance.pairs_computed"]
    finally:
        observability.configure(enabled=False, reset_state=True)
    # Recorded with 8 farthest-point pivots: fitting them and sweeping
    # the 120 members cost 2 x 8 x 120.  Fitting 16 references (the
    # centroids' block over the sample, then the greedy's top-up) and
    # sweeping them cost 2 x 16 x 120.
    moved = 2 * (16 - 8) * 120
    # Then each first build fitted the set in its key sweep (6
    # centroids, so a top-up of 10, fitted on every member):
    # - the 80-OG build keyed its 40 EM-sample members once and the 40
    #   others against 6 centroids (280); it sweeps all 80 against the
    #   6, fits the top-up (6 x 80 + 10 x 80) and sweeps it (80 x 10):
    #   2560;
    # - the 2-shard build keyed its 100 members once (100); it sweeps
    #   them against both shards' 6 centroids, fits the top-up (6 x 100
    #   + 10 x 100) and sweeps it (100 x 10): 3200;
    # - the 80 inserts each fill their row against the 16: 80 x 16;
    # - the tier fitted the 16 (6 x 120 + 10 x 120) and swept the 120
    #   members (120 x 16): 3840, now nothing.
    fitted = (2560 - 280) + (3200 - 100) + 80 * 16 - 3840
    assert (metric.calls, cluster.calls, pairs) \
        == (3019 + moved + fitted, 12263, 15282 + moved + fitted)


@pytest.mark.parametrize("clusters", [8, 16])
def test_one_insert_is_one_sweep_per_reference_set(monkeypatch, clusters):
    """Centroid keys and sketch reference columns of one insert are one
    ERP kernel call each, at any K, and the key is the centroid-first
    one."""
    ogs = corpus(12 * clusters + 1, seed=5)
    index = STRGIndex(STRGIndexConfig(n_clusters=clusters, em_iterations=3,
                                      leaf_capacity=64, seed=0))
    index.build(ogs[:-1])
    index.sketch_tier()
    calls = []
    kernel = batch._erp_kernel

    def counting(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(batch, "_erp_kernel", counting)
    index.insert(ogs[-1])
    assert len(calls) <= 2
    assert clusters in calls
    monkeypatch.undo()
    records = index.cluster_records()
    stored = next(r for record in records for r in record.leaf
                  if r.og is ogs[-1])
    assert stored.key == min(
        float(one_vs_many(MetricEGED(), record.centroid, [ogs[-1]])[0])
        for record in records)
