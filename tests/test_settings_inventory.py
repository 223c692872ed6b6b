"""Every setting of the package, pinned.

A setting earns its place only when two callers outside the tests need
different values from it; one that no caller sets is a module constant
(docs/API.md, *Removal policy*).  This test walks every ``*Config``
dataclass in ``repro`` and compares its fields to the inventory below,
so adding, renaming or retiring a setting is a deliberate diff here.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import repro

INVENTORY = {
    "repro.clustering.em.EMConfig": (
        "n_clusters", "max_iterations", "weight_tolerance",
        "warm_start_iterations", "weights_in_posterior", "sigma_band",
        "n_init", "seed"),
    "repro.clustering.khm.KHMConfig": (
        "n_clusters", "max_iterations", "p", "tolerance", "seed"),
    "repro.clustering.kmeans.KMeansConfig": (
        "n_clusters", "max_iterations", "seed"),
    "repro.core.index.STRGIndexConfig": (
        "leaf_capacity", "bg_similarity_threshold", "n_clusters", "k_max",
        "em_iterations", "cluster_sample_size", "seed"),
    "repro.datasets.synthetic.SyntheticConfig": (
        "num_ogs", "noise_fraction", "sigma", "jitter_scale", "seed",
        "patterns"),
    "repro.graph.decomposition.DecompositionConfig": (
        "min_org_length", "min_velocity", "velocity_tolerance",
        "direction_tolerance", "gap_tolerance"),
    "repro.graph.tracking.TrackerConfig": (
        "sim_threshold", "tolerance", "max_candidate_distance"),
    "repro.mtree.tree.MTreeConfig": (
        "node_capacity", "split_policy", "sample_size", "seed"),
    "repro.pipeline.PipelineConfig": (
        "segmenter", "tracker", "decomposition", "index"),
    "repro.rtree3d.tree.RTree3DConfig": ("node_capacity",),
    "repro.serving.ingest.IngestServiceConfig": (
        "queue_depth", "min_workers", "max_workers", "job_timeout",
        "retry_policy", "retry_budget", "checkpoint_every", "store_format",
        "watchdog_interval"),
    "repro.serving.net.NetConfig": ("host", "port", "service"),
    "repro.serving.service.ServiceConfig": (
        "workers", "queue_depth", "default_deadline"),
    "repro.serving.sharding.ShardedIndexConfig": (
        "num_shards", "placement", "index", "seed"),
    "repro.serving.workers.WorkerPoolConfig": (
        "workers", "replicas", "mmap", "heartbeat_interval",
        "start_timeout", "request_timeout", "restart"),
    "repro.video.shots.ShotDetectorConfig": (
        "bins", "threshold", "min_shot_length"),
}


def config_classes() -> dict[str, tuple[str, ...]]:
    """``{"module.Class": field names}`` of every ``*Config`` dataclass
    defined in the package."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (isinstance(value, type) and name.endswith("Config")
                    and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                found[f"{module.__name__}.{name}"] = tuple(
                    field.name for field in dataclasses.fields(value))
    return found


def test_settings_match_the_inventory():
    found = config_classes()
    assert found == INVENTORY, (
        "the package's settings moved.  A setting earns its place only "
        "when two callers outside the tests need different values; "
        "otherwise make it a module constant.  Update INVENTORY only "
        "with a setting that meets that rule.")


def test_inventory_size():
    assert (len(INVENTORY), sum(map(len, INVENTORY.values()))) == (16, 75)
