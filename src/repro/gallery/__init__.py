"""Gallery subsystem: persistent signature store and sharded matching.

This package turns the paper's one-shot fit-and-identify attack into a
service-shaped workflow:

``factors``
    Cached SVD factors and leverage scores (the ``svd`` and ``leverage``
    artifact kinds) — fit once per reference content, hit forever after.
``matching``
    Sharded correlation matching with bit-for-bit equivalence to the
    single-block path, optionally fanned out over an
    :class:`~repro.runtime.runner.ExperimentRunner` pool.
``reference``
    :class:`ReferenceGallery` — the fitted, persistent, incrementally
    growable gallery object serving repeated ``identify`` queries (the
    ``gallery`` artifact kind holds its reduced signature matrix).

Every identify runs the one exact full scan of :func:`match_normalized`.
"""

from repro.gallery.factors import (
    cached_leverage_scores,
    cached_svd_factors,
    fit_principal_features_cached,
    leverage_cache_key,
)
from repro.gallery.matching import (
    match_against_gallery,
    match_normalized,
    normalize_columns,
    shard_similarity,
    shard_slices,
    similarity_kernel,
)
from repro.gallery.reference import ReferenceGallery

__all__ = [
    # factors
    "cached_leverage_scores",
    "cached_svd_factors",
    "fit_principal_features_cached",
    "leverage_cache_key",
    # matching
    "match_against_gallery",
    "match_normalized",
    "normalize_columns",
    "shard_similarity",
    "shard_slices",
    "similarity_kernel",
    # reference
    "ReferenceGallery",
]
