"""Hit digests of every read path, before and after a write phase.

For each shard count and placement, the ``knn_exact_inproc`` shard
config (8 clusters per shard) is built over the e2e corpus, its
reference rows filled (``sketch_tier()``) and its store written.  Then
one SHA-256 per read path hashes ``(float(d).hex(), clip_ref)`` of every
hit of the fixed reference queries, with the evaluations per query
(``distance.pairs_computed``) beside it:

- **exact**: k-NN at k = 1, 10, 30 and range queries at radii 0, 50,
  150, 300, 600, on the index as built (``ram``), the store loaded
  eagerly (``eager``) and memory-mapped (``mmap``) — at the default
  shards {1, 2, 4} x {hash, affine}, the 18 digests of the exact matrix;
- **budgeted**: k = 10 at budgets 200 and N + R (R references) on the
  same three, and through ``open_database(path, mmap="auto").knn``
  answering out of core (``lazy``).

A **write phase** follows: a ``LiveIndex`` over the built index, with
the store attached, takes 300 new OGs and 150 deletes in one commit
(an append to the store), and every digest is taken again (phase
``written``).

Usage, from a checkout root::

    PYTHONPATH=src:. python -m benchmarks.hit_matrix out.json
    PYTHONPATH=src:. python -m benchmarks.hit_matrix --compare a.json b.json

A run exits 1 when the read paths of one config disagree with each
other — the in-RAM, eager, mmap and lazy answers, and their evaluation
counts, are one contract (self-consistency needs no stored goldens).
``--compare`` prints every digest or count that differs between a
parent run and a change run and exits 1 on any.  The default size
(:data:`DEFAULT`) takes ~10 min a run on a 2-CPU host; ``--smoke`` runs
:data:`SMOKE`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from typing import Any, Callable, NamedTuple

import repro
from benchmarks.e2e.workloads import (SCALES, corpus, reference_queries,
                                      sharded_config)
from repro import observability as obs
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.serving import LiveIndex, ShardedIndex
from repro.storage.store import open_store

EXACT_ASKS = [("k", 1), ("k", 10), ("k", 30), ("r", 0.0), ("r", 50.0),
              ("r", 150.0), ("r", 300.0), ("r", 600.0)]
K = 10
BUDGET = 200
#: Seed of the OGs the write phase inserts (a draw apart from the corpus).
INSERT_SEED = 4811


class Size(NamedTuple):
    ogs: int
    queries: int
    shards: tuple[int, ...]
    inserts: int
    deletes: int


DEFAULT = Size(ogs=4000, queries=96, shards=(1, 2, 4), inserts=300,
               deletes=150)
SMOKE = Size(ogs=600, queries=8, shards=(1, 2), inserts=45, deletes=22)


def portable(hits) -> list[tuple[str, Any]]:
    """``(float(d).hex(), clip_ref)`` of index tuples or database hits."""
    return [(float(h.distance).hex(), h.clip_ref) if hasattr(h, "clip_ref")
            else (float(h[0]).hex(), h[2]) for h in hits]


def digest(ask: Callable[[Any], list], queries) -> tuple[str, float]:
    """SHA-256 of every query's hits, and evaluations per query."""
    sha = hashlib.sha256()
    obs.configure(enabled=True, reset_state=True)
    try:
        for q in queries:
            sha.update(repr(portable(ask(q))).encode())
        pairs = obs.metrics().get("distance.pairs_computed", 0)
    finally:
        obs.configure(enabled=False, reset_state=True)
    return sha.hexdigest(), round(pairs / len(queries), 6)


def read_paths(index, path: str) -> dict[str, Any]:
    return {"ram": index,
            "eager": open_store(path).load_index(mmap=False),
            "mmap": open_store(path).load_index(mmap=True),
            "lazy": repro.open_database(path, create=False, mmap="auto")}


def measure(index, path: str, queries, out: dict, prefix: str) -> None:
    """Every digest of one config and phase into ``out``."""
    paths = read_paths(index, path)
    refs = len(index.shards[0].sketch_tier().pivots)
    for load, layer in paths.items():
        # The first read of each path attaches tables and replays deltas.
        layer.knn(queries[0], K, search_budget=BUDGET)
        if load != "lazy":
            layer.knn(queries[0], 1)
            for kind, arg in EXACT_ASKS:
                ask = ((lambda q, k=arg: layer.knn(q, k)) if kind == "k"
                       else (lambda q, r=arg: layer.range_query(q, r)))
                out[f"{prefix} exact {kind}{arg:g} {load}"] = digest(
                    ask, queries)
        for budget in (BUDGET, len(index) + refs):
            out[f"{prefix} budget{budget} {load}"] = digest(
                lambda q, b=budget: layer.knn(q, K, search_budget=b),
                queries)
    assert not paths["lazy"].index_loaded


def run(size: Size) -> dict[str, Any]:
    ogs, queries = corpus(size.ogs), reference_queries(size.queries)
    extra = generate_synthetic_ogs(SyntheticConfig(
        num_ogs=size.inserts, seed=INSERT_SEED))
    out: dict[str, Any] = {"size": {
        "ogs": size.ogs, "queries": size.queries, "inserts": size.inserts,
        "deletes": size.deletes}, "digests": {}}
    for shards in size.shards:
        for placement in ("hash", "affine"):
            config = sharded_config(SCALES["default"])
            config.num_shards, config.placement = shards, placement
            index = ShardedIndex(config)
            index.build(ogs, clip_refs=[f"og-{i}" for i in range(len(ogs))])
            for shard in index.shards:
                shard.sketch_tier()
            with tempfile.TemporaryDirectory() as tmp:
                store = open_store(f"{tmp}/corpus")
                store.write_index(index)
                measure(index, store.path, queries, out["digests"],
                        f"{shards} {placement} built")
                live = LiveIndex(index.clone())
                live.attach_store(store, write=False)
                for i, og in enumerate(extra):
                    live.insert(og, clip_ref=f"new-{i}")
                step = max(1, len(ogs) // size.deletes)
                for og in ogs[::step][:size.deletes]:
                    live.delete(og.og_id)
                written = live.compact().index
                store.join_merges()
                measure(written, store.path, queries, out["digests"],
                        f"{shards} {placement} written")
            print(f"{shards} {placement} done", file=sys.stderr)
    return out


def disagreements(digests: dict[str, Any]) -> list[str]:
    """Configs whose read paths answer or count differently."""
    groups: dict[str, set] = {}
    for key, value in digests.items():
        config, _, _ = key.rpartition(" ")
        groups.setdefault(config, set()).add(tuple(value))
    return [config for config, values in groups.items() if len(values) > 1]


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Every key whose digest or count differs between two runs."""
    return [f"{key}: {a['digests'].get(key)} != {b['digests'].get(key)}"
            for key in sorted(set(a["digests"]) | set(b["digests"]))
            if a["digests"].get(key) != b["digests"].get(key)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="diff two runs instead of running")
    parser.add_argument("--smoke", action="store_true",
                        help="600 OGs, 8 queries, 1 and 2 shards")
    args = parser.parse_args(argv)
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            diff = compare(json.load(fa), json.load(fb))
        print("\n".join(diff) or "all digests and counts equal")
        return 1 if diff else 0
    out = run(SMOKE if args.smoke else DEFAULT)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
    bad = disagreements(out["digests"])
    for config in bad:
        print(f"read paths disagree: {config}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
