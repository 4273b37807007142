"""Tests for the cached SVD/leverage factor helpers."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.gallery.factors import (
    cached_leverage_scores,
    cached_svd_factors,
    fit_principal_features_cached,
    leverage_cache_key,
)
from repro.linalg.leverage import (
    PrincipalFeaturesSubspace,
    leverage_scores,
    rank_k_leverage_scores,
)
from repro.runtime.cache import ArtifactCache


class TestCachedLeverageScores:
    def test_matches_uncached_full_rank(self, tall_matrix):
        cache = ArtifactCache()
        cached = cached_leverage_scores(tall_matrix, cache=cache)
        assert np.array_equal(cached, leverage_scores(tall_matrix))

    def test_matches_uncached_rank_k_exact(self, tall_matrix):
        cache = ArtifactCache()
        cached = cached_leverage_scores(tall_matrix, rank=4, cache=cache)
        assert np.array_equal(cached, rank_k_leverage_scores(tall_matrix, rank=4))

    def test_matches_uncached_randomized_with_seed(self, tall_matrix):
        cache = ArtifactCache()
        cached = cached_leverage_scores(
            tall_matrix, rank=4, method="randomized", random_state=7, cache=cache
        )
        direct = rank_k_leverage_scores(
            tall_matrix, rank=4, method="randomized", random_state=7
        )
        assert np.array_equal(cached, direct)

    def test_no_cache_falls_through(self, tall_matrix):
        assert np.array_equal(
            cached_leverage_scores(tall_matrix, cache=None),
            leverage_scores(tall_matrix),
        )

    def test_repeat_call_is_a_hit(self, tall_matrix):
        cache = ArtifactCache()
        cached_leverage_scores(tall_matrix, cache=cache)
        assert cache.stats("leverage").misses == 1
        cached_leverage_scores(tall_matrix, cache=cache)
        stats = cache.stats("leverage")
        assert stats.hits == 1
        assert stats.misses == 1

    def test_different_rank_is_a_different_key(self, tall_matrix):
        cache = ArtifactCache()
        full = cached_leverage_scores(tall_matrix, cache=cache)
        low = cached_leverage_scores(tall_matrix, rank=3, cache=cache)
        assert not np.array_equal(full, low)
        assert cache.stats("leverage").misses == 2

    def test_generator_random_state_bypasses_cache(self, tall_matrix):
        cache = ArtifactCache()
        rng = np.random.default_rng(0)
        cached_leverage_scores(
            tall_matrix, rank=3, method="randomized", random_state=rng, cache=cache
        )
        assert cache.stats("leverage").lookups == 0

    def test_none_random_state_randomized_bypasses_cache(self, tall_matrix):
        # random_state=None means a fresh nondeterministic draw per call;
        # caching it would serve one draw's scores as another's.
        cache = ArtifactCache()
        cached_leverage_scores(
            tall_matrix, rank=3, method="randomized", random_state=None, cache=cache
        )
        assert cache.stats("leverage").lookups == 0
        assert cache.stats("svd").lookups == 0

    def test_invalid_method_rejected(self, tall_matrix):
        with pytest.raises(ValidationError, match="method"):
            cached_svd_factors(tall_matrix, rank=3, method="bogus", cache=ArtifactCache())

    def test_n_features_takes_the_gram_route_without_keys(self, tall_matrix):
        cache = ArtifactCache()
        scores, state = cached_leverage_scores(tall_matrix, cache=cache, n_features=5)
        assert state.scores is scores
        bound = state.bound
        assert 0.0 < bound < 1e-10
        assert np.max(np.abs(scores - leverage_scores(tall_matrix))) <= bound
        for kind in ("leverage", "svd"):
            assert cache.stats(kind).lookups == 0

    def test_n_features_falls_back_to_the_svd(self, tall_matrix):
        # Two equal rows tie exactly, and the selection keeps all rows but
        # one, so the tie is inside the certified order.
        tied = np.vstack([tall_matrix[:1], tall_matrix])
        cache = ArtifactCache()
        scores, state = cached_leverage_scores(tied, cache=cache, n_features=tied.shape[0] - 1)
        assert state is None
        assert np.array_equal(scores, leverage_scores(tied))
        assert cache.stats("leverage").misses == 1

    def test_n_features_rejects_rank_k(self, tall_matrix):
        with pytest.raises(ValidationError, match="n_features"):
            cached_leverage_scores(tall_matrix, rank=3, cache=ArtifactCache(), n_features=5)


class TestSVDFactorReuse:
    def test_two_selectors_share_one_factorization(self, tall_matrix):
        # Rank-k fits go through the factor cache; rank=None fits take the
        # Gram route and key nothing there.
        cache = ArtifactCache()
        fit_principal_features_cached(tall_matrix, n_features=5, rank=3, cache=cache)
        svd_after_first = cache.stats("svd").misses
        fit_principal_features_cached(tall_matrix, n_features=9, rank=3, cache=cache)
        # Second fit reuses the leverage scores outright: no new svd misses.
        assert cache.stats("svd").misses == svd_after_first
        assert cache.stats("leverage").hits == 1
        for n_features in (5, 9):
            selector = fit_principal_features_cached(
                tall_matrix, n_features=n_features, cache=cache
            )
            assert selector.scores_bound_ is not None
        assert cache.stats("leverage").lookups == 2
        assert cache.stats("svd").misses == svd_after_first

    def test_factors_survive_the_disk_tier(self, tall_matrix, tmp_path):
        first = ArtifactCache(cache_dir=tmp_path)
        cached_leverage_scores(tall_matrix, cache=first)
        second = ArtifactCache(cache_dir=tmp_path)  # fresh memory tier
        cached_leverage_scores(tall_matrix, cache=second)
        stats = second.stats("leverage")
        assert stats.hits == 1
        assert stats.disk_hits == 1
        assert stats.misses == 0


class TestFitPrincipalFeaturesCached:
    def test_identical_to_direct_fit(self, tall_matrix):
        # rank=None fits are selection-identical; their scores are within
        # the Gram route's bound of the SVD's.  Rank-k fits are bitwise.
        cache = ArtifactCache()
        cached = fit_principal_features_cached(tall_matrix, n_features=7, cache=cache)
        direct = PrincipalFeaturesSubspace(n_features=7).fit(tall_matrix)
        assert np.array_equal(cached.selected_indices_, direct.selected_indices_)
        assert np.max(np.abs(cached.scores_ - direct.scores_)) <= cached.scores_bound_
        cached = fit_principal_features_cached(tall_matrix, n_features=7, rank=4, cache=cache)
        direct = PrincipalFeaturesSubspace(n_features=7, rank=4).fit(tall_matrix)
        assert np.array_equal(cached.selected_indices_, direct.selected_indices_)
        assert np.array_equal(cached.scores_, direct.scores_)
        assert cached.scores_bound_ is None

    def test_transform_works_on_cached_selector(self, tall_matrix):
        selector = fit_principal_features_cached(
            tall_matrix, n_features=6, cache=ArtifactCache()
        )
        reduced = selector.transform(tall_matrix)
        assert reduced.shape == (6, tall_matrix.shape[1])

    def test_too_many_features_rejected(self, tall_matrix):
        with pytest.raises(ValidationError, match="n_features"):
            fit_principal_features_cached(
                tall_matrix, n_features=tall_matrix.shape[0] + 1, cache=ArtifactCache()
            )


class TestLeverageCacheKey:
    def test_key_changes_with_content_and_params(self, tall_matrix):
        cache = ArtifactCache()
        base = leverage_cache_key(cache, tall_matrix)
        assert leverage_cache_key(cache, tall_matrix) == base
        assert leverage_cache_key(cache, tall_matrix, rank=3) != base
        perturbed = tall_matrix.copy()
        perturbed[0, 0] += 1.0
        assert leverage_cache_key(cache, perturbed) != base
