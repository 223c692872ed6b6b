"""M-tree: dynamic balanced metric index.

Stores arbitrary objects under a metric distance.  Leaf entries keep their
distance to the parent pivot; routing entries keep a pivot object, a
covering radius and a child node.  Search prunes with the two classic
triangle-inequality bounds:

- routing entry: skip the subtree when
  ``|d(q, parent_pivot) - d(pivot, parent_pivot)| - radius > range``;
- leaf entry: skip the distance evaluation when
  ``|d(q, parent_pivot) - d(object, parent_pivot)| > range``.

These saved evaluations are precisely what Figure 7(b) counts.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.distance.batch import one_vs_many, pairwise_matrix, supports_batch
from repro.errors import IndexStateError, InvalidParameterError
from repro.mtree.split import SplitPolicy, make_policy, partition_by_closer
from repro.observability import OBS

DistanceFn = Callable[[Any, Any], float]


@dataclass
class MTreeConfig:
    """M-tree tuning: fan-out, split policy and RNG seed."""

    node_capacity: int = 8
    split_policy: str = "random"
    sample_size: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_capacity < 2:
            raise InvalidParameterError(
                f"node_capacity must be >= 2, got {self.node_capacity}"
            )


class _Entry:
    """Leaf entry: an object with its distance to the parent pivot."""

    __slots__ = ("obj", "obj_id", "dist_to_parent")

    def __init__(self, obj: Any, obj_id: Any, dist_to_parent: float = 0.0):
        self.obj = obj
        self.obj_id = obj_id
        self.dist_to_parent = dist_to_parent


class _RoutingEntry:
    """Routing entry: pivot + covering radius + child node."""

    __slots__ = ("pivot", "radius", "dist_to_parent", "child")

    def __init__(self, pivot: Any, radius: float, child: "_Node",
                 dist_to_parent: float = 0.0):
        self.pivot = pivot
        self.radius = radius
        self.dist_to_parent = dist_to_parent
        self.child = child


class _Node:
    """A tree node holding leaf entries or routing entries."""

    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.entries: list = []
        self.is_leaf = is_leaf


class MTree:
    """Dynamic M-tree over arbitrary objects.

    ``distance`` must be a metric for search correctness (use
    :class:`repro.distance.eged.MetricEGED` for OGs); wrap it in
    :class:`repro.distance.base.CountingDistance` to measure evaluation
    counts.
    """

    def __init__(self, distance: DistanceFn,
                 config: MTreeConfig | None = None):
        self.distance = distance
        self.config = config or MTreeConfig()
        self.policy: SplitPolicy = make_policy(
            self.config.split_policy, self.config.sample_size
        )
        self._rng = np.random.default_rng(self.config.seed)
        self._root = _Node(is_leaf=True)
        self._size = 0
        self._id_counter = itertools.count()

    def __len__(self) -> int:
        return self._size

    # -- insertion -----------------------------------------------------------

    def insert(self, obj: Any, obj_id: Any = None) -> Any:
        """Insert an object; returns its id (auto-assigned if omitted)."""
        if obj_id is None:
            obj_id = next(self._id_counter)
        entry = _Entry(obj, obj_id)
        path = self._choose_leaf(entry.obj)
        leaf = path[-1][0]
        parent_pivot = path[-1][1]
        entry.dist_to_parent = (
            self.distance(obj, parent_pivot) if parent_pivot is not None else 0.0
        )
        leaf.entries.append(entry)
        self._size += 1
        self._handle_overflow(path)
        return obj_id

    def bulk_load(self, objects: list, object_ids: list | None = None
                  ) -> list:
        """Bulk-construct an *empty* tree; returns the assigned ids.

        Recursive k-center partition: each level greedily picks up to
        ``node_capacity`` farthest-point pivots, assigns every object to
        its closest pivot, and recurses per group.  Every level costs one
        batched distance sweep per pivot instead of a per-object root-to-
        leaf descent, so building from scratch is far cheaper than
        repeated :meth:`insert` while producing a tree with the same
        search invariants (covering radii bound members via the triangle
        inequality).
        """
        if self._size != 0:
            raise IndexStateError("bulk_load requires an empty M-tree")
        objs = list(objects)
        if object_ids is None:
            ids = [next(self._id_counter) for _ in objs]
        else:
            ids = list(object_ids)
            if len(ids) != len(objs):
                raise InvalidParameterError(
                    f"{len(objs)} objects but {len(ids)} ids"
                )
        if not objs:
            return ids
        self._root, _ = self._bulk_subtree(objs, ids, None)
        self._size = len(objs)
        return ids

    def _bulk_row(self, pivot: Any, objs: list) -> np.ndarray:
        """Distances from one pivot to many objects, batched if possible."""
        if supports_batch(self.distance):
            return one_vs_many(self.distance, pivot, objs)
        return np.array([float(self.distance(obj, pivot)) for obj in objs],
                        dtype=np.float64)

    def _bulk_subtree(self, objs: list, ids: list, parent_pivot: Any
                      ) -> tuple[_Node, float]:
        """Build a subtree; returns ``(node, covering_radius)`` with the
        radius measured from ``parent_pivot``."""
        n = len(objs)
        cap = self.config.node_capacity
        if n <= cap:
            node = _Node(is_leaf=True)
            if parent_pivot is None:
                dists = np.zeros(n, dtype=np.float64)
            else:
                dists = self._bulk_row(parent_pivot, objs)
            for obj, oid, d in zip(objs, ids, dists):
                node.entries.append(_Entry(obj, oid, float(d)))
            return node, float(np.max(dists, initial=0.0))
        # Greedy farthest-point pivot selection (k-center seeding).
        first = int(self._rng.integers(n))
        pivot_idx = [first]
        pivot_rows = [self._bulk_row(objs[first], objs)]
        closest = pivot_rows[0].copy()
        while len(pivot_idx) < cap:
            nxt = int(np.argmax(closest))
            if closest[nxt] <= 0.0:
                break  # every remaining object coincides with a pivot
            pivot_idx.append(nxt)
            pivot_rows.append(self._bulk_row(objs[nxt], objs))
            np.minimum(closest, pivot_rows[-1], out=closest)
        if len(pivot_idx) == 1:
            # All objects identical — distance cannot separate them, so
            # deal round-robin into equal groups to guarantee the
            # recursion shrinks.
            deal = np.arange(n) % cap
            group_list = [
                (int(members[0]), members)
                for g in range(cap)
                if (members := np.where(deal == g)[0]).size
            ]
        else:
            assign = np.argmin(np.vstack(pivot_rows), axis=0)
            # Each pivot anchors its own group, so every group is a
            # strict subset and the recursion terminates.
            assign[np.array(pivot_idx)] = np.arange(len(pivot_idx))
            group_list = [
                (pi, members)
                for p, pi in enumerate(pivot_idx)
                if (members := np.where(assign == p)[0]).size
            ]
        child_pivots = [objs[pi] for pi, _ in group_list]
        if parent_pivot is None:
            pivot_d = np.zeros(len(group_list), dtype=np.float64)
        else:
            pivot_d = self._bulk_row(parent_pivot, child_pivots)
        node = _Node(is_leaf=False)
        radius = 0.0
        for (pi, members), child_pivot, d_parent in zip(
                group_list, child_pivots, pivot_d):
            child, child_radius = self._bulk_subtree(
                [objs[int(i)] for i in members],
                [ids[int(i)] for i in members],
                child_pivot,
            )
            node.entries.append(
                _RoutingEntry(child_pivot, child_radius, child,
                              float(d_parent))
            )
            radius = max(radius, float(d_parent) + child_radius)
        return node, radius

    def _choose_leaf(self, obj: Any) -> list[tuple[_Node, Any, int]]:
        """Descend to the best leaf; returns the path as
        ``(node, parent_pivot, entry_index_in_parent)`` tuples."""
        path: list[tuple[_Node, Any, int]] = [(self._root, None, -1)]
        node = self._root
        while not node.is_leaf:
            best: _RoutingEntry | None = None
            best_idx = -1
            best_key = (1, float("inf"))  # (needs_enlargement, metric)
            for idx, routing in enumerate(node.entries):
                d = self.distance(obj, routing.pivot)
                if d <= routing.radius:
                    key = (0, d)
                else:
                    key = (1, d - routing.radius)
                if key < best_key:
                    best_key = key
                    best = routing
                    best_idx = idx
            assert best is not None
            if best_key[0] == 1:
                best.radius += best_key[1]  # enlarge to cover the new object
            path.append((best.child, best.pivot, best_idx))
            node = best.child
        return path

    def _handle_overflow(self, path: list[tuple[_Node, Any, int]]) -> None:
        """Split overflowing nodes bottom-up along the insertion path."""
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth][0]
            if len(node.entries) <= self.config.node_capacity:
                continue
            parent = path[depth - 1][0] if depth > 0 else None
            parent_entry_idx = path[depth][2]
            self._split(node, parent, parent_entry_idx,
                        path[depth - 1][1] if depth > 0 else None)

    def _split(self, node: _Node, parent: _Node | None,
               parent_entry_idx: int, grandparent_pivot: Any) -> None:
        """Split ``node`` into two; install routing entries in the parent
        (creating a new root when ``node`` is the root)."""
        entries = node.entries
        pivots_obj = [
            e.obj if node.is_leaf else e.pivot for e in entries
        ]
        cache: dict[tuple[int, int], float] = {}
        if (self.policy.wants_full_matrix
                and supports_batch(self.distance)
                and getattr(self.distance, "cache_token", None) is not None):
            # Sampling promotion scores many candidate pairs and ends up
            # touching most of the matrix; one batched sweep beats the
            # lazy scalar fills.  CountingDistance keeps token=None, so
            # evaluation-count benchmarks still measure the lazy path.
            matrix = pairwise_matrix(self.distance, pivots_obj)
            n = len(entries)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    cache[(i, j)] = float(matrix[i, j])

        def pairwise(i: int, j: int) -> float:
            key = (min(i, j), max(i, j))
            if key not in cache:
                cache[key] = self.distance(pivots_obj[i], pivots_obj[j])
            return cache[key]

        a, b = self.policy.promote(len(entries), pairwise, self._rng)
        members_a, members_b, _, _ = partition_by_closer(
            len(entries), a, b, pairwise
        )
        node_a = _Node(node.is_leaf)
        node_b = _Node(node.is_leaf)
        radius_a = self._fill(node_a, entries, members_a, pivots_obj[a], pairwise, a)
        radius_b = self._fill(node_b, entries, members_b, pivots_obj[b], pairwise, b)

        routing_a = _RoutingEntry(pivots_obj[a], radius_a, node_a)
        routing_b = _RoutingEntry(pivots_obj[b], radius_b, node_b)
        if parent is None:
            new_root = _Node(is_leaf=False)
            new_root.entries = [routing_a, routing_b]
            self._root = new_root
        else:
            if grandparent_pivot is not None:
                routing_a.dist_to_parent = self.distance(
                    routing_a.pivot, grandparent_pivot
                )
                routing_b.dist_to_parent = self.distance(
                    routing_b.pivot, grandparent_pivot
                )
            parent.entries[parent_entry_idx] = routing_a
            parent.entries.append(routing_b)

    def _fill(self, target: _Node, entries: list, members: list[int],
              pivot_obj: Any, pairwise, pivot_idx: int) -> float:
        """Move member entries into ``target``; return the covering radius."""
        radius = 0.0
        for i in members:
            entry = entries[i]
            d = 0.0 if i == pivot_idx else pairwise(i, pivot_idx)
            entry.dist_to_parent = d
            if isinstance(entry, _RoutingEntry):
                radius = max(radius, d + entry.radius)
            else:
                radius = max(radius, d)
            target.entries.append(entry)
        return radius

    # -- search ---------------------------------------------------------------

    def knn(self, query: Any, k: int) -> list[tuple[float, Any, Any]]:
        """k nearest neighbors as ``(distance, obj_id, obj)``, ascending."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        if self._size == 0:
            raise IndexStateError("cannot search an empty M-tree")
        # Max-heap of current best (negated distances).
        best: list[tuple[float, int, Any, Any]] = []
        counter = itertools.count()

        def kth_bound() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        # Min-heap of (lower_bound, tiebreak, node, d(q, parent_pivot)).
        pending: list[tuple[float, int, _Node, float]] = [
            (0.0, next(counter), self._root, 0.0)
        ]
        while pending:
            bound, _, node, d_parent = heapq.heappop(pending)
            OBS.count("mtree.node_visits")
            if bound > kth_bound():
                continue
            if node.is_leaf:
                for entry in node.entries:
                    if abs(d_parent - entry.dist_to_parent) > kth_bound():
                        continue
                    d = self.distance(query, entry.obj)
                    if d <= kth_bound():
                        heapq.heappush(
                            best, (-d, next(counter), entry.obj_id, entry.obj)
                        )
                        if len(best) > k:
                            heapq.heappop(best)
            else:
                for routing in node.entries:
                    cheap = abs(d_parent - routing.dist_to_parent) - routing.radius
                    if cheap > kth_bound():
                        continue
                    d_pivot = self.distance(query, routing.pivot)
                    child_bound = max(d_pivot - routing.radius, 0.0)
                    if child_bound <= kth_bound():
                        heapq.heappush(
                            pending,
                            (child_bound, next(counter), routing.child, d_pivot),
                        )
        results = sorted(((-d, oid, obj) for d, _, oid, obj in best),
                         key=lambda item: item[0])
        return results

    def range_query(self, query: Any, radius: float) -> list[tuple[float, Any, Any]]:
        """All objects within ``radius``, as ``(distance, obj_id, obj)``."""
        if radius < 0:
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        results: list[tuple[float, Any, Any]] = []

        def visit(node: _Node, d_parent: float) -> None:
            OBS.count("mtree.node_visits")
            if node.is_leaf:
                for entry in node.entries:
                    if abs(d_parent - entry.dist_to_parent) > radius:
                        continue
                    d = self.distance(query, entry.obj)
                    if d <= radius:
                        results.append((d, entry.obj_id, entry.obj))
            else:
                for routing in node.entries:
                    if (abs(d_parent - routing.dist_to_parent)
                            - routing.radius > radius):
                        continue
                    d_pivot = self.distance(query, routing.pivot)
                    if d_pivot - routing.radius <= radius:
                        visit(routing.child, d_pivot)

        visit(self._root, 0.0)
        return sorted(results, key=lambda item: item[0])

    # -- introspection ---------------------------------------------------------

    def height(self) -> int:
        """Tree height (1 for a root-only tree)."""
        h = 1
        node = self._root
        while not node.is_leaf:
            node = node.entries[0].child
            h += 1
        return h

    def node_count(self) -> int:
        """Total number of nodes."""
        def count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return 1 + sum(count(r.child) for r in node.entries)
        return count(self._root)

    def __repr__(self) -> str:
        return (
            f"MTree(size={self._size}, height={self.height()}, "
            f"policy={self.policy.name})"
        )
