"""Table 2 — per-stream clustering quality, cluster counts and index size.

Paper results per stream: EM-EGED clustering error (traffic < lab because
traffic content is uniform bidirectional motion), BIC-found cluster count
close to the true count, and STRG-Index size 10-15x (or more) below the
raw STRG size.

Scale: clustering quality is evaluated on a 96-OG sample per stream; the
size accounting (Eqs. 9-10) uses the full simulated OG population and the
stream's true frame count, with the BG footprint taken from a rendered
segment of the stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import format_table, record_result

SAMPLE = 96
# Matches the Figure 8 bench (same sample, same seed), so the two
# experiments report one consistent found-K per stream.
BIC_SAMPLE = 240
BIC_SEED = 42


@pytest.fixture(scope="module")
def table2():
    from repro.clustering.bic import select_num_clusters
    from repro.clustering.em import EMClustering, EMConfig
    from repro.clustering.evaluation import clustering_error_rate
    from repro.core.index import STRGIndex, STRGIndexConfig
    from repro.core.size import index_size_bytes, strg_raw_size_bytes
    from repro.datasets.real import (
        STREAMS,
        render_stream_segment,
        simulate_stream_ogs,
        stream_frame_count,
    )
    from repro.pipeline import PipelineConfig, VideoPipeline

    rows = {}
    pipeline = VideoPipeline(PipelineConfig())
    for name, spec in STREAMS.items():
        all_ogs = simulate_stream_ogs(spec)
        rng = np.random.default_rng(BIC_SEED)
        labels = [og.label for og in all_ogs]

        bic_idx = rng.choice(len(all_ogs),
                             size=min(BIC_SAMPLE, len(all_ogs)),
                             replace=False)
        found_k, _ = select_num_clusters(
            [all_ogs[int(i)] for i in bic_idx], 2, 12, seed=1,
            max_iterations=8, n_init=2,
        )
        em = EMClustering(EMConfig(n_clusters=spec.n_clusters,
                                   max_iterations=10, seed=1, n_init=3))
        result = em.fit(all_ogs)
        error = clustering_error_rate(labels, result.assignments)

        # BG footprint measured from an actually rendered + decomposed
        # segment of this stream.
        video = render_stream_segment(name, num_frames=16)
        decomposition = pipeline.decompose(video)
        bg_bytes = decomposition.background.size_bytes()

        index = STRGIndex(STRGIndexConfig(n_clusters=spec.n_clusters,
                                          em_iterations=6,
                                          cluster_sample_size=SAMPLE))
        index.build(all_ogs, background=decomposition.background)
        raw = strg_raw_size_bytes(all_ogs, bg_bytes,
                                  stream_frame_count(spec))
        compressed = index_size_bytes(index)
        rows[name] = {
            "error": error,
            "true_k": spec.n_clusters,
            "found_k": found_k,
            "raw_mb": raw / 1e6,
            "index_mb": compressed / 1e6,
            "ratio": raw / compressed,
        }
    return rows


def bench_table2_clustering_and_size(benchmark, table2):
    """The full Table 2: error, cluster counts, STRG vs STRG-Index size."""
    rows_by_stream = benchmark.pedantic(lambda: table2, rounds=1, iterations=1)
    rows = []
    for name in ("Lab1", "Lab2", "Traffic1", "Traffic2"):
        r = rows_by_stream[name]
        rows.append([
            name, f"{r['error']:.1f}%", r["true_k"], r["found_k"],
            f"{r['raw_mb']:.2f}MB", f"{r['index_mb']:.3f}MB",
            f"{r['ratio']:.0f}x",
        ])
    record_result("table2_real_streams", format_table(
        ["video", "EM-EGED err", "true K", "BIC K", "STRG size",
         "STRG-Idx size", "reduction"], rows,
    ))

    # Shape assertions from the paper's Table 2:
    # 1. traffic streams cluster more cleanly than lab streams;
    traffic_err = np.mean([rows_by_stream[n]["error"]
                           for n in ("Traffic1", "Traffic2")])
    lab_err = np.mean([rows_by_stream[n]["error"] for n in ("Lab1", "Lab2")])
    assert traffic_err < lab_err
    # 2. BIC lands close to the true cluster count;
    for name, r in rows_by_stream.items():
        assert abs(r["found_k"] - r["true_k"]) <= 2
    # 3. the index is at least 10x smaller than the raw STRG for every
    #    stream, and the reduction grows with stream duration (Lab1, the
    #    40-hour stream, compresses the most).
    for name, r in rows_by_stream.items():
        assert r["ratio"] >= 10.0
    assert rows_by_stream["Lab1"]["ratio"] > rows_by_stream["Traffic2"]["ratio"]
