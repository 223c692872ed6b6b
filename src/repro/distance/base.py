"""Shared machinery for sequence distances.

All distances in this package operate on *value series*: a float array of
shape ``(n, d)`` where ``n`` is the number of temporal nodes of an Object
Graph and ``d`` the attribute dimension.  :func:`as_series` normalizes the
accepted inputs (1-D arrays, lists of vectors, or any object exposing a
``values`` attribute, such as :class:`repro.graph.object_graph.ObjectGraph`).
"""

from __future__ import annotations

import abc
import functools
import itertools
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import DimensionMismatchError, EmptySequenceError

#: Anything convertible to a value series.
SeriesLike = Any


def as_series(x: SeriesLike) -> np.ndarray:
    """Coerce ``x`` into a float64 array of shape ``(n, d)``.

    Accepts a 1-D array (interpreted as scalar-valued nodes, ``d = 1``),
    a 2-D array, a sequence of vectors, or any object with a ``values``
    attribute.  Raises :class:`EmptySequenceError` for empty input.  A
    non-empty 2-D float64 ndarray is returned as it is.
    """
    if (type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 2
            and x.shape[0]):
        return x
    values = getattr(x, "values", x)
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise DimensionMismatchError(
            f"value series must be 1-D or 2-D, got shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise EmptySequenceError("value series is empty")
    return arr


def series_key(x: SeriesLike) -> tuple:
    """A hashable key two series share when their values are equal bit
    for bit (a centroid and the reference series it became)."""
    arr = as_series(x)
    return arr.shape, arr.tobytes()


def check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    """Raise :class:`DimensionMismatchError` unless ``a`` and ``b`` share a
    feature dimension."""
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )


class Distance(abc.ABC):
    """A dissimilarity function over value series.

    Subclasses implement :meth:`compute` on normalized ``(n, d)`` arrays;
    instances are callables accepting anything :func:`as_series` accepts.
    """

    #: Whether the distance satisfies the metric axioms.
    is_metric: bool = False

    def __call__(self, x: SeriesLike, y: SeriesLike) -> float:
        a = as_series(x)
        b = as_series(y)
        check_same_dim(a, b)
        return float(self.compute(a, b))

    @abc.abstractmethod
    def compute(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two normalized ``(n, d)`` series."""

    def compute_many(self, query: np.ndarray,
                     batch: Sequence[np.ndarray]) -> np.ndarray:
        """Distances from ``query`` to every normalized series in ``batch``
        (a list, or a :class:`repro.distance.batch.PaddedBatch` — which
        iterates as one).

        The default is a per-pair loop with the ``(query, item)`` argument
        order preserved; the EGED/ERP/DTW/LCS kernels override it with the
        wavefront-batched DPs of :mod:`repro.distance.batch`.
        """
        return np.array([self.compute(query, b) for b in batch],
                        dtype=np.float64)

    def compute_matrix(self, refs: Sequence[np.ndarray],
                       batch: Sequence[np.ndarray]) -> np.ndarray:
        """``(len(refs), len(batch))`` distances: row ``q`` is
        ``compute_many(refs[q], batch)``.

        The default stacks one :meth:`compute_many` per ref; the metric
        EGED overrides it with one reference-batched sweep
        (:func:`repro.distance.batch.batch_erp_matrix`), bit for bit the
        same rows.
        """
        return np.array([self.compute_many(r, batch) for r in refs],
                        dtype=np.float64).reshape(len(refs), len(batch))

    #: Hashable identity of the distance function *and* its parameters,
    #: or ``None`` when results must not be memoized.  Distances exposing
    #: a token promise to be symmetric and deterministic, which is what
    #: lets :class:`repro.distance.cache.DistanceCache` store each pair
    #: once under a canonical key.
    cache_token: Any = None

    @property
    def name(self) -> str:
        """Short human-readable identifier (used in benchmark tables)."""
        return type(self).__name__


class FunctionDistance(Distance):
    """Adapt a plain callable ``f(a, b) -> float`` into a :class:`Distance`."""

    def __init__(self, func: Callable[[np.ndarray, np.ndarray], float],
                 name: str | None = None, is_metric: bool = False):
        self._func = func
        self._name = name or getattr(func, "__name__", "distance")
        self.is_metric = is_metric

    def compute(self, a: np.ndarray, b: np.ndarray) -> float:
        return self._func(a, b)

    @property
    def name(self) -> str:
        return self._name


class CountingDistance(Distance):
    """Wrap a distance and count invocations.

    The paper's k-NN cost model (Section 6.3) treats the *number of distance
    evaluations* as the dominant query cost; this wrapper is how the Figure
    7(b) benchmark measures it.
    """

    def __init__(self, inner: Distance):
        self.inner = inner
        self.calls = 0
        self.is_metric = inner.is_metric

    def __call__(self, x: SeriesLike, y: SeriesLike) -> float:
        self.calls += 1
        return self.inner(x, y)

    def compute(self, a: np.ndarray, b: np.ndarray) -> float:
        self.calls += 1
        return self.inner.compute(a, b)

    def compute_many(self, query: np.ndarray,
                     batch: Sequence[np.ndarray]) -> np.ndarray:
        """Batched evaluation still counts one call per pair (the paper's
        cost model charges per distance *evaluation*, however computed).

        ``cache_token`` stays ``None`` so counting distances bypass the
        memo cache — a cache hit would silently drop evaluations from the
        Figure 7(b) counts.
        """
        self.calls += len(batch)
        return self.inner.compute_many(query, batch)

    def compute_matrix(self, refs: Sequence[np.ndarray],
                       batch: Sequence[np.ndarray]) -> np.ndarray:
        """A block counts one call per pair, ``len(refs) * len(batch)``."""
        self.calls += len(refs) * len(batch)
        return self.inner.compute_matrix(refs, batch)

    def reset(self) -> None:
        """Zero the call counter."""
        self.calls = 0

    @property
    def name(self) -> str:
        return f"counting({self.inner.name})"


def pairwise_matrix(distance: Distance | Callable[[Any, Any], float],
                    items: Sequence[SeriesLike],
                    others: Sequence[SeriesLike] | None = None) -> np.ndarray:
    """Dense distance matrix between ``items`` and ``others``.

    When ``others`` is omitted the matrix is the symmetric self-distance
    matrix of ``items`` and only the upper triangle is evaluated.
    :class:`Distance` instances are evaluated one batched row at a time
    (see :mod:`repro.distance.batch`); plain callables fall back to the
    per-pair loop.
    """
    if isinstance(distance, Distance):
        from repro.distance.batch import pairwise_matrix as _batched

        return _batched(distance, items, others)
    if others is None:
        n = len(items)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = distance(items[i], items[j])
        return out
    out = np.empty((len(items), len(others)), dtype=np.float64)
    for i, x in enumerate(items):
        for j, y in enumerate(others):
            out[i, j] = distance(x, y)
    return out


def check_metric_axioms(distance: Distance | Callable[[Any, Any], float],
                        points: Sequence[SeriesLike],
                        atol: float = 1e-9) -> list[str]:
    """Empirically check the metric axioms on a sample of points.

    Returns a list of violation descriptions (empty when no violation was
    observed).  Used by tests and by the metric/non-metric ablation bench.
    """
    violations: list[str] = []
    n = len(points)
    d = pairwise_matrix(distance, points)
    for i in range(n):
        self_dist = distance(points[i], points[i])
        if abs(self_dist) > atol:
            violations.append(f"reflexivity: d(p{i}, p{i}) = {self_dist}")
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] < -atol:
                violations.append(f"non-negativity: d(p{i}, p{j}) = {d[i, j]}")
            if abs(d[i, j] - d[j, i]) > atol:
                violations.append(
                    f"symmetry: d(p{i}, p{j})={d[i, j]} != d(p{j}, p{i})={d[j, i]}"
                )
    for i, j, k in itertools.permutations(range(n), 3):
        if d[i, k] > d[i, j] + d[j, k] + atol:
            violations.append(
                "triangle inequality: "
                f"d(p{i}, p{k})={d[i, k]:.6g} > "
                f"d(p{i}, p{j})+d(p{j}, p{k})={d[i, j] + d[j, k]:.6g}"
            )
    return violations


def node_cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs L2 node substitution costs, shape ``(len(a), len(b))``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def resample_series(a: np.ndarray, length: int) -> np.ndarray:
    """Linearly resample a ``(n, d)`` series to ``(length, d)``.

    Used by the Lp baseline, which requires equal-length inputs.
    """
    if length < 1:
        raise EmptySequenceError("target length must be >= 1")
    n = a.shape[0]
    if n == length:
        return a
    if n == 1:
        return np.repeat(a, length, axis=0)
    src = np.linspace(0.0, 1.0, n)
    dst = np.linspace(0.0, 1.0, length)
    cols = [np.interp(dst, src, a[:, k]) for k in range(a.shape[1])]
    return np.stack(cols, axis=1)


@functools.lru_cache(maxsize=256)
def _resample_plan(n: int, length: int) -> tuple[np.ndarray, ...]:
    """The part of resampling ``n`` nodes to ``length`` that does not
    depend on the values.  Per target position: the nodes left and right
    of its segment (``src[j] <= dst < src[j + 1]``), the segment's width,
    the offset into it, whether it sits on the left node, and whether it
    is at the right end.  Read-only: every caller gets the same arrays.
    """
    src = np.linspace(0.0, 1.0, n)
    dst = np.linspace(0.0, 1.0, length)
    j = np.minimum(np.searchsorted(src, dst, side="right") - 1, n - 2)
    x0 = src[j]
    plan = (j, j + 1, (src[j + 1] - x0)[:, None], (dst - x0)[:, None],
            (dst == x0)[:, None], dst >= src[-1])
    for part in plan:
        part.flags.writeable = False
    return plan


def resample_stack(stack: np.ndarray, length: int) -> np.ndarray:
    """:func:`resample_series` of ``G`` equal-length series in one pass:
    ``(G, n, d)`` to ``(G, length, d)``.

    Bit for bit what ``np.interp`` returns per series and column: its
    ``slope * (x - x0) + f0`` with ``slope = (f1 - f0) / (x1 - x0)``, the
    left node itself where ``x == x0``, and the last node at the right
    end.
    """
    if length < 1:
        raise EmptySequenceError("target length must be >= 1")
    n = stack.shape[1]
    if n == length:
        return stack
    if n == 1:
        return np.repeat(stack, length, axis=1)
    left, right, width, offset, on_node, at_end = _resample_plan(n, length)
    f0 = stack[:, left]
    out = np.where(on_node, f0,
                   (stack[:, right] - f0) / width * offset + f0)
    out[:, at_end] = stack[:, -1:]
    return out
