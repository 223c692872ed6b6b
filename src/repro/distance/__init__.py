"""Distance functions over Object Graph value sequences.

The central contribution is :class:`~repro.distance.eged.EGED` (Definition 9
of the paper) with its metric specialization (Theorem 2).  The module also
implements every baseline the paper evaluates against: Dynamic Time Warping,
Longest Common Subsequence, Edit distance with Real Penalty and the Lp
norms.
"""

from repro.distance.base import (
    Distance,
    CountingDistance,
    as_series,
    pairwise_matrix,
    check_metric_axioms,
)
from repro.distance.batch import (
    PaddedBatch,
    batch_dtw,
    batch_eged,
    batch_erp,
    batch_lcs,
    one_vs_many,
    supports_batch,
)
from repro.distance.cache import (
    DistanceCache,
    cached_one_vs_many,
    get_default_cache,
    set_default_cache,
)
from repro.observability.registry import CacheStats
from repro.distance.lp import LpDistance, lp_distance
from repro.distance.dtw import DTW, dtw
from repro.distance.lcs import LCSDistance, lcs_length, lcs_distance
from repro.distance.erp import ERP, erp
from repro.distance.eged import EGED, MetricEGED, eged
from repro.distance.bounds import gap_mass, eged_metric_lower_bound
from repro.distance.edr import EDRDistance, edr, edr_distance
from repro.distance.frechet import FrechetDistance, discrete_frechet
from repro.distance.subsequence import SubsequenceMatch, eged_subsequence

__all__ = [
    "Distance",
    "CountingDistance",
    "as_series",
    "pairwise_matrix",
    "check_metric_axioms",
    "PaddedBatch",
    "batch_dtw",
    "batch_eged",
    "batch_erp",
    "batch_lcs",
    "one_vs_many",
    "supports_batch",
    "CacheStats",
    "DistanceCache",
    "cached_one_vs_many",
    "get_default_cache",
    "set_default_cache",
    "LpDistance",
    "lp_distance",
    "DTW",
    "dtw",
    "LCSDistance",
    "lcs_length",
    "lcs_distance",
    "ERP",
    "erp",
    "EGED",
    "MetricEGED",
    "eged",
    "gap_mass",
    "eged_metric_lower_bound",
    "EDRDistance",
    "edr",
    "edr_distance",
    "FrechetDistance",
    "discrete_frechet",
    "SubsequenceMatch",
    "eged_subsequence",
]
