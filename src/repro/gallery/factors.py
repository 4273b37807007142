"""Cached SVD factors and leverage scores for the gallery subsystem.

Fitting the Principal Features Subspace is the expensive part of the attack:
one factorization of the reference group matrix.  For the default
``rank=None`` exact fit, :func:`fit_principal_features_cached` computes the
leverage scores by the certified Gram route
(:class:`~repro.linalg.leverage.IncrementalLeverage`: one Cholesky pass with
a measured error bound) and runs the economy SVD only when that route cannot
certify the top-``n_features`` order.  Gram-route scores are never cached:
recomputing them costs little more than hashing the data for a key.

SVD results go through a content-keyed
:class:`~repro.runtime.cache.ArtifactCache` under the reserved ``svd`` and
``leverage`` kinds, so refitting the same reference data — in another
pipeline, another worker sharing the disk tier, or another session — is a
cache hit instead of a factorization.

Rank-``k`` and randomized results are bit-identical to the uncached paths:
the same SVD routine runs on the same matrix, and the leverage scores are
the same row norms of the same basis.  ``rank=None`` fits are
selection-identical: the selected indices and their order equal
``PrincipalFeaturesSubspace(...).fit``'s, while the scores may differ from
the SVD's in the low bits, within the recorded ``scores_bound_``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.linalg.leverage import (
    IncrementalLeverage,
    PrincipalFeaturesSubspace,
    leverage_scores,
    rank_k_leverage_scores,
)
from repro.linalg.svd import economy_svd, randomized_svd
from repro.runtime.cache import ArtifactCache
from repro.exceptions import ValidationError
from repro.utils.rng import RandomStateLike
from repro.utils.validation import check_matrix, check_positive_int

#: Sentinel for random states that cannot be rendered into a stable cache key.
_UNSTABLE = object()


def _stable_seed(random_state: RandomStateLike):
    """Render a random state into a cache-key-stable value.

    ``None`` and integers are stable; generator objects are not (their state
    advances), so factor caching is bypassed for them when the backend is
    randomized.
    """
    if random_state is None:
        return None
    if isinstance(random_state, (int, np.integer)):
        return int(random_state)
    return _UNSTABLE


def cacheable_fit(
    rank: Optional[int], method: str, random_state: RandomStateLike
) -> bool:
    """Whether a fit with these parameters can be served from the cache.

    Only the randomized backend draws randomness, and only an *integer* seed
    makes that draw reproducible from a content key.  Generator objects
    (state advances) and ``None`` (a fresh nondeterministic draw every call)
    cannot be keyed — caching either would serve one draw's artifacts as if
    they were another's — so those fits bypass the cache entirely.
    """
    if method != "randomized" or rank is None:
        return True
    seed = _stable_seed(random_state)
    return seed is not _UNSTABLE and seed is not None


def _factor_params(rank: Optional[int], method: str, seed) -> dict:
    """Canonical key parameters shared by the ``svd`` and ``leverage`` kinds."""
    return {
        "rank": -1 if rank is None else int(rank),
        "method": str(method),
        "seed": -1 if seed is None else int(seed),
    }


def _compute_factors(
    data: np.ndarray,
    rank: Optional[int],
    method: str,
    random_state: RandomStateLike,
) -> Tuple[np.ndarray, np.ndarray]:
    """The uncached factorization, matching :mod:`repro.linalg.leverage`.

    Returns the left singular-vector block used for leverage scores and the
    corresponding singular values.  ``rank=None`` keeps the full economy
    basis (filtering happens at score time, exactly like
    :func:`~repro.linalg.leverage.leverage_scores`).
    """
    if method not in ("exact", "randomized"):
        raise ValidationError("method must be 'exact' or 'randomized'")
    if rank is None or method == "exact":
        u, s, _ = economy_svd(data)
        if rank is not None:
            u, s = u[:, :rank], s[:rank]
        return u, s
    u, s, _ = randomized_svd(data, rank=rank, random_state=random_state)
    return u, s


def cached_svd_factors(
    data: np.ndarray,
    rank: Optional[int] = None,
    method: str = "exact",
    random_state: RandomStateLike = None,
    cache: Optional[ArtifactCache] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values, served from the ``svd`` kind.

    Parameters
    ----------
    data:
        ``(n_features, n_subjects)`` group-matrix data block.
    rank:
        ``None`` for the full economy basis, or the truncation rank.
    method:
        ``"exact"`` or ``"randomized"`` SVD backend (randomized requires a
        rank).
    random_state:
        Seed for the randomized backend; generators bypass the cache because
        their draw is not reproducible from a key.
    cache:
        Artifact cache; ``None`` computes directly.
    """
    a = check_matrix(data, name="data")
    if rank is not None:
        rank = check_positive_int(rank, name="rank")
        if rank > min(a.shape):
            raise ValidationError(f"rank must be <= {min(a.shape)}, got {rank}")
    if cache is None or not cacheable_fit(rank, method, random_state):
        return _compute_factors(a, rank, method, random_state)

    seed = _stable_seed(random_state)
    params = _factor_params(rank, method, seed if seed is not _UNSTABLE else None)
    u_key = cache.key("svd", a, factor="u", **params)
    s_key = cache.key("svd", a, factor="s", **params)
    u = cache.get("svd", u_key)
    s = cache.get("svd", s_key)
    if u is None or s is None:
        u, s = _compute_factors(a, rank, method, random_state)
        cache.put("svd", u_key, u)
        cache.put("svd", s_key, s)
    return u, s


def leverage_cache_key(
    cache: ArtifactCache,
    data: np.ndarray,
    rank: Optional[int] = None,
    method: str = "exact",
    random_state: RandomStateLike = None,
) -> str:
    """Content key of the leverage-score vector for ``data``.

    Exposed so :meth:`ReferenceGallery.load
    <repro.gallery.reference.ReferenceGallery.load>` can prime the cache
    with a rank-``k`` or seeded randomized archive's scores.
    """
    seed = _stable_seed(random_state)
    params = _factor_params(rank, method, seed if seed is not _UNSTABLE else None)
    return cache.key("leverage", np.asarray(data), **params)


def cached_leverage_scores(
    data: np.ndarray,
    rank: Optional[int] = None,
    method: str = "exact",
    random_state: RandomStateLike = None,
    cache: Optional[ArtifactCache] = None,
    n_features: Optional[int] = None,
):
    """Row leverage scores of ``data``, served from the ``leverage`` kind.

    Identical to :func:`repro.linalg.leverage.leverage_scores` (``rank=None``)
    or :func:`~repro.linalg.leverage.rank_k_leverage_scores` otherwise, but a
    repeat call with the same content is a cache hit, and a miss reuses any
    cached ``svd`` factors instead of refactorizing.

    With ``n_features`` (``rank=None`` exact fits only) the Gram-route kernel
    runs first and the result is the pair ``(scores, state)``: the kernel's
    scores and its :class:`~repro.linalg.leverage.IncrementalLeverage` state
    (bound and factor) when they certify the top-``n_features`` order, with
    no cache key, lookup or put; otherwise the SVD's scores as above and
    ``None``.
    """
    a = check_matrix(data, name="data")
    if n_features is None:
        return _svd_leverage_scores(a, rank, method, random_state, cache)
    if rank is not None or method != "exact":
        raise ValidationError("n_features applies to rank=None exact fits only")
    state = IncrementalLeverage.fit(a)
    if state is not None and state.certified_order(n_features) is not None:
        return state.scores, state
    return _svd_leverage_scores(a, None, method, random_state, cache), None


def _svd_leverage_scores(
    a: np.ndarray,
    rank: Optional[int],
    method: str,
    random_state: RandomStateLike,
    cache: Optional[ArtifactCache],
) -> np.ndarray:
    """The SVD-backed body of :func:`cached_leverage_scores`."""
    if cache is None or not cacheable_fit(rank, method, random_state):
        if rank is None:
            return leverage_scores(a)
        return rank_k_leverage_scores(a, rank=rank, method=method, random_state=random_state)

    def compute() -> np.ndarray:
        u, s = cached_svd_factors(
            a, rank=rank, method=method, random_state=random_state, cache=cache
        )
        if rank is None:
            positive = s > s.max() * 1e-12 if s.size else np.zeros(0, dtype=bool)
            u = u[:, positive]
        return np.sum(u * u, axis=1)

    key = leverage_cache_key(cache, a, rank=rank, method=method, random_state=random_state)
    return cache.get_or_compute("leverage", key, compute)


def fit_principal_features_cached(
    data: np.ndarray,
    n_features: int,
    rank: Optional[int] = None,
    method: str = "exact",
    random_state: RandomStateLike = None,
    cache: Optional[ArtifactCache] = None,
) -> PrincipalFeaturesSubspace:
    """A fitted :class:`PrincipalFeaturesSubspace` built from cached scores.

    Equivalent to ``PrincipalFeaturesSubspace(...).fit(data)`` — the same
    selected indices in the same order.  With a cache, ``rank=None`` exact
    fits take their scores from the certified Gram route and record its
    bound in ``scores_bound_`` and its factor in ``factor_``; when the
    route cannot certify, they take the SVD's scores and leave both
    ``None``.  Rank-``k`` and randomized fits get the same scores and
    ``argsort`` tie-breaking as the direct fit, from the cache, so two
    selectors with different ``n_features`` over the same data share one
    factorization.
    """
    a = check_matrix(data, name="data")
    n_features = check_positive_int(n_features, name="n_features")
    if n_features > a.shape[0]:
        raise ValidationError(
            f"n_features ({n_features}) exceeds feature count ({a.shape[0]})"
        )
    selector = PrincipalFeaturesSubspace(
        n_features=n_features, rank=rank, method=method, random_state=random_state
    )
    if cache is None:
        return selector.fit(a)
    if rank is None and method == "exact":
        scores, state = cached_leverage_scores(a, cache=cache, n_features=n_features)
        if state is not None:
            selector.scores_bound_, selector.factor_ = state.bound, state.factor
    else:
        scores = cached_leverage_scores(
            a, rank=rank, method=method, random_state=random_state, cache=cache
        )
    selector.scores_ = scores
    selector.selected_indices_ = np.argsort(scores)[::-1][:n_features]
    return selector
