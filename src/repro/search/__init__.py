"""``repro.search`` — the two-stage approximate k-NN tier.

Stage 1 generates candidates from each OG's distances to the corpus's
reference series (triangle lower bounds); stage 2 reranks the shortlist
with the exact batched EGED_M kernel under a hard budget of distance
evaluations.  See ``docs/SEARCH.md`` for the reference columns and
budget semantics; the usual entry point is the ``search_budget=``
parameter of ``db.knn`` / ``STRGIndex.knn`` rather than this module
directly.  ``repro.search.request`` holds the search contract every
layer speaks (``SearchRequest`` in, ``SearchResult`` out; see
``docs/API.md``).
"""

from repro.search.request import SearchRequest, SearchResult
from repro.search.sketch import SketchIndex, approx_knn

__all__ = [
    "SearchRequest",
    "SearchResult",
    "SketchIndex",
    "approx_knn",
]
