"""Fluent query builder over an STRG-Index database.

Combines the two retrieval modalities the paper supports — similarity
search (Algorithm 3) and attribute predicates on moving objects — into a
single composable query:

    >>> from repro.query import Query
    >>> hits = (Query(db)
    ...         .similar_to(example_trajectory)
    ...         .heading(0.0)                 # eastbound
    ...         .velocity(minimum=2.0)
    ...         .between_frames(0, 500)
    ...         .limit(5)
    ...         .run())

Predicates filter; ``similar_to`` ranks.  Without ``similar_to`` results
are returned in index order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.distance.base import Distance
from repro.distance.batch import one_vs_many
from repro.errors import IndexStateError, InvalidParameterError
from repro.graph.attributes import angle_difference
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS


@dataclass
class QueryResult:
    """One query hit: the OG and (when ranked) its distance."""

    og: ObjectGraph
    distance: float | None = None


class Query:
    """Composable retrieval over any queryable source.

    Accepts a :class:`~repro.storage.database.VideoDatabase`, a bare
    :class:`~repro.core.index.STRGIndex`, or a
    :class:`~repro.pipeline.VideoPipeline` — anything that either *is*
    an index (has ``object_graphs``) or *carries* one via an ``index``
    attribute.  A source whose index does not exist yet (an empty
    database, a pipeline that has not processed a segment) is accepted
    and resolved lazily at :meth:`run` time, where it yields ``[]``.
    """

    def __init__(self, source):
        if not (hasattr(source, "object_graphs") or hasattr(source, "index")):
            raise IndexStateError(
                f"{type(source).__name__} is not queryable: it has neither "
                "an 'object_graphs' iterator nor an 'index' attribute"
            )
        self._source = source
        self._predicates: list[Callable[[ObjectGraph], bool]] = []
        self._example = None
        self._distance: Distance | None = None
        self._limit: int | None = None
        self._budget: int | None = None

    def _resolve_index(self):
        """The live index behind the source (``None`` when empty).

        Resolved per :meth:`run`, so a query built over a fresh database
        or pipeline sees whatever index exists when it executes.
        """
        if hasattr(self._source, "object_graphs"):
            return self._source
        index = self._source.index
        if index is not None and not hasattr(index, "object_graphs"):
            raise IndexStateError(
                f"source index {type(index).__name__} has no object_graphs"
            )
        return index

    # -- ranking -------------------------------------------------------------

    def similar_to(self, example, distance: Distance | None = None) -> "Query":
        """Rank results by similarity to an example trajectory/OG.

        ``distance`` defaults to the index's metric distance (EGED_M).
        """
        self._example = example
        self._distance = distance
        return self

    # -- predicates ---------------------------------------------------------------

    def where(self, predicate: Callable[[ObjectGraph], bool]) -> "Query":
        """Arbitrary boolean predicate over OGs."""
        self._predicates.append(predicate)
        return self

    def heading(self, direction: float,
                tolerance: float = math.pi / 4) -> "Query":
        """Overall movement heading within ``tolerance`` of ``direction``."""

        def predicate(og: ObjectGraph) -> bool:
            deltas = np.diff(og.values[:, :2], axis=0)
            if deltas.shape[0] == 0:
                return False
            total = deltas.sum(axis=0)
            if not np.any(total):
                return False
            return angle_difference(
                math.atan2(total[1], total[0]), direction
            ) <= tolerance

        return self.where(predicate)

    def velocity(self, minimum: float | None = None,
                 maximum: float | None = None) -> "Query":
        """Mean velocity band (pixels/frame)."""
        if minimum is None and maximum is None:
            raise InvalidParameterError("velocity() needs a bound")

        def predicate(og: ObjectGraph) -> bool:
            v = og.mean_velocity()
            if minimum is not None and v < minimum:
                return False
            if maximum is not None and v > maximum:
                return False
            return True

        return self.where(predicate)

    def duration(self, minimum: int | None = None,
                 maximum: int | None = None) -> "Query":
        """Trajectory length band (frames)."""
        if minimum is None and maximum is None:
            raise InvalidParameterError("duration() needs a bound")

        def predicate(og: ObjectGraph) -> bool:
            n = og.duration()
            if minimum is not None and n < minimum:
                return False
            if maximum is not None and n > maximum:
                return False
            return True

        return self.where(predicate)

    def between_frames(self, start: int, stop: int) -> "Query":
        """Trajectory overlaps the frame interval ``[start, stop]``."""
        if start > stop:
            raise InvalidParameterError(
                f"empty frame interval [{start}, {stop}]"
            )

        def predicate(og: ObjectGraph) -> bool:
            return og.start_frame <= stop and start <= og.end_frame

        return self.where(predicate)

    def limit(self, k: int) -> "Query":
        """Cap the number of results (``0`` legally yields no results)."""
        if k < 0:
            raise InvalidParameterError(f"limit must be >= 0, got {k}")
        self._limit = k
        return self

    def budget(self, evaluations: int) -> "Query":
        """Bound the exact distance evaluations of a ranked query.

        Routes :meth:`run` through the index's approximate sketch tier
        (``search_budget=``, see ``docs/SEARCH.md``) instead of ranking
        every predicate survivor exactly.  Requires :meth:`similar_to`
        (there is nothing to rank otherwise) and :meth:`limit`; because
        ranking happens *before* predicate filtering on this path, a
        heavily filtered query may return fewer than ``limit`` rows —
        raise the budget or drop it to get exhaustive semantics back.
        """
        if evaluations < 1:
            raise InvalidParameterError(
                f"budget must be >= 1, got {evaluations}"
            )
        self._budget = evaluations
        return self

    # -- execution -------------------------------------------------------------------

    def _matches(self, og: ObjectGraph) -> bool:
        return all(predicate(og) for predicate in self._predicates)

    def run(self) -> list[QueryResult]:
        """Execute: filter by all predicates, then rank (if requested).

        An empty or not-yet-built index and a ``limit(0)`` both yield
        ``[]`` — a query over nothing has no results, not an error.
        """
        with OBS.span("query.run", ranked=self._example is not None) as sp:
            index = self._resolve_index()
            if index is None or self._limit == 0:
                return []
            if self._budget is not None:
                return self._run_budgeted(index, sp)
            candidates = [og for og in index.object_graphs()
                          if self._matches(og)]
            sp.set(candidates=len(candidates))
            if self._example is None:
                results = [QueryResult(og) for og in candidates]
                if self._limit is not None:
                    return results[: self._limit]
                return results
            if not candidates:
                return []
            distance = self._distance or index.metric_distance
            # One batched sweep ranks every candidate; with a limit,
            # heapq.nsmallest is O(N log k) instead of a full O(N log N)
            # sort (both are stable, so ties keep index order either way).
            dists = one_vs_many(distance, self._example, candidates)
            results = [QueryResult(og, float(d))
                       for og, d in zip(candidates, dists)]
            if self._limit is not None and self._limit < len(results):
                return heapq.nsmallest(self._limit, results,
                                       key=lambda r: r.distance)
            return sorted(results, key=lambda r: r.distance)

    def _run_budgeted(self, index, sp) -> list[QueryResult]:
        """Budgeted execution: approximate rank first, then filter."""
        if self._example is None:
            raise InvalidParameterError(
                "budget() needs similar_to(): an unranked query has no "
                "distance evaluations to bound"
            )
        if self._limit is None:
            raise InvalidParameterError(
                "budget() needs limit(): the approximate tier searches "
                "for a fixed top-k"
            )
        if self._distance is not None:
            raise InvalidParameterError(
                "budget() uses the index's own metric; drop the custom "
                "distance or the budget"
            )
        if not hasattr(index, "knn"):
            raise IndexStateError(
                f"source index {type(index).__name__} has no knn(); "
                "budgeted queries need a searchable index"
            )
        hits = index.knn(self._example, self._limit,
                         search_budget=self._budget)
        sp.set(candidates=len(hits))
        return [QueryResult(og, float(d)) for d, og, _ in hits
                if self._matches(og)]

    def count(self) -> int:
        """Number of OGs matching the predicates (ignores limit)."""
        index = self._resolve_index()
        if index is None:
            return 0
        return sum(1 for og in index.object_graphs()
                   if self._matches(og))
