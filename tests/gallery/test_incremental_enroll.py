"""The certified Gram route: full fits and incremental enrolls against fresh
SVD fits, their fallbacks, the cache/archive contract for leverage scores that
did not come from the SVD, and the traced-span entry points of a fit."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.base import ScanRecord
from repro.datasets.hcp import HCPLikeDataset
from repro.exceptions import ValidationError
from repro.gallery import factors
from repro.gallery import reference as reference_module
from repro.gallery.factors import fit_principal_features_cached, leverage_cache_key
from repro.gallery.reference import ReferenceGallery
from repro.linalg.leverage import IncrementalLeverage, PrincipalFeaturesSubspace
from repro.runtime.batch import build_group_matrix_batched
from repro.runtime.cache import ArtifactCache


def _scans(rng, count, n_regions, first=0, n_timepoints=30):
    return [
        ScanRecord(
            subject_id=f"s{first + i}",
            task="REST",
            session="S1",
            timeseries=rng.standard_normal((n_regions, n_timepoints)),
        )
        for i in range(count)
    ]


def _tied_scans(rng, count):
    """Scans whose top-``n_features`` selection ends inside an exact tie.

    Region 1 repeats region 0, so features (0, k) and (1, k) are equal rows
    for every subject: their leverage scores tie exactly.
    """
    scans = _scans(rng, count, 10)
    for scan in scans:
        scan.timeseries[1] = scan.timeseries[0]
    data = build_group_matrix_batched(scans, cache=ArtifactCache()).data
    order = np.argsort(PrincipalFeaturesSubspace(n_features=1).fit(data).scores_)[::-1]
    position = next(
        p for p in range(len(order) - 1)
        if np.array_equal(data[order[p]], data[order[p + 1]])
    )
    return scans, position + 1


def _assert_selection_matches_the_svd(selector, direct):
    assert np.array_equal(selector.selected_indices_, direct.selected_indices_)
    if selector.scores_bound_ is None:
        assert np.array_equal(selector.scores_, direct.scores_)
    else:
        assert np.max(np.abs(selector.scores_ - direct.scores_)) <= selector.scores_bound_


def _assert_matches_fresh_fit(gallery, probe, bound):
    """Selection, signatures, fingerprint and identify equal a from-scratch fit."""
    data = gallery.reference.data
    selector = PrincipalFeaturesSubspace(n_features=gallery.n_features).fit(data)
    fresh = ReferenceGallery(
        gallery.reference, n_features=gallery.n_features, cache=ArtifactCache()
    )
    for expected in (selector.selected_indices_, fresh.selector_.selected_indices_):
        assert np.array_equal(gallery.selector_.selected_indices_, expected)
    assert np.array_equal(gallery.signatures_, fresh.signatures_)
    assert gallery.fingerprint == fresh.fingerprint
    grown, scratch = gallery.identify_group(probe), fresh.identify_group(probe)
    assert grown.similarity.tobytes() == scratch.similarity.tobytes()
    assert np.array_equal(grown.predicted_reference_index, scratch.predicted_reference_index)
    assert grown.reference_subject_ids == scratch.reference_subject_ids
    assert np.max(np.abs(gallery.selector_.scores_ - selector.scores_)) <= bound


class TestExactnessProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_regions=st.integers(5, 9),
        n_reference=st.integers(1, 6),
        batches=st.lists(st.integers(1, 3), min_size=1, max_size=6),
        feature_share=st.floats(0.0, 1.0),
        round_trips=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_enroll_sequences_match_a_fresh_fit(
        self, seed, n_regions, n_reference, batches, feature_share, round_trips
    ):
        rng = np.random.default_rng(seed)
        n_total = n_regions * (n_regions - 1) // 2
        # Identify needs two features; F - 1 keeps one row out of the selection.
        n_features = 2 + int(feature_share * (n_total - 3))
        scans = _scans(rng, n_reference + sum(batches), n_regions)
        probe = build_group_matrix_batched(
            _scans(rng, 3, n_regions, first=1000), cache=ArtifactCache()
        )
        gallery = ReferenceGallery.from_scans(
            scans[:n_reference], n_features=n_features, cache=ArtifactCache()
        )
        start, bound = n_reference, 0.0
        with tempfile.TemporaryDirectory() as directory:
            for size, round_trip in zip(batches, round_trips):
                assert gallery.enroll(scans[start:start + size]) == size
                start += size
                # The Gram route and the update record their bound; an SVD
                # fit gives the SVD's own scores.  A load keeps the scores,
                # so the bound stays.
                bound = gallery.selector_.scores_bound_ or 0.0
                _assert_matches_fresh_fit(gallery, probe, bound)
                if round_trip:
                    gallery.save(Path(directory) / "gal")
                    gallery = ReferenceGallery.load(
                        Path(directory) / "gal", cache=ArtifactCache()
                    )
                    _assert_matches_fresh_fit(gallery, probe, bound)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_features=st.sampled_from([100, 200, 400]),
        n_reference=st.integers(8, 24),
        batches=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    )
    def test_enroll_sequences_at_paper_selection_sizes(
        self, seed, n_features, n_reference, batches
    ):
        # 30 regions give 435 features, so t = 400 still leaves rows out.
        rng = np.random.default_rng(seed)
        scans = _scans(rng, n_reference + sum(batches), 30)
        probe = build_group_matrix_batched(
            _scans(rng, 3, 30, first=1000), cache=ArtifactCache()
        )
        gallery = ReferenceGallery.from_scans(
            scans[:n_reference], n_features=n_features, cache=ArtifactCache()
        )
        _assert_matches_fresh_fit(gallery, probe, gallery.selector_.scores_bound_ or 0.0)
        start = n_reference
        for size in batches:
            assert gallery.enroll(scans[start:start + size]) == size
            start += size
            _assert_matches_fresh_fit(gallery, probe, gallery.selector_.scores_bound_ or 0.0)
        assert gallery.refit_count_ == 1 + len(batches)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(2, 80),
        column_share=st.floats(0.0, 1.0),
        feature_share=st.floats(0.0, 1.0),
        column_scales=st.floats(0.0, 4.0),
    )
    def test_random_tall_matrices_match_the_svd_fit(
        self, seed, n_rows, column_share, feature_share, column_scales
    ):
        rng = np.random.default_rng(seed)
        n_columns = 1 + int(column_share * (n_rows - 1))
        n_features = 1 + int(feature_share * (n_rows - 1))
        # Columns scaled over up to 4 decades spread the conditioning.
        scales = 10.0 ** rng.uniform(-column_scales / 2, column_scales / 2, n_columns)
        matrix = rng.standard_normal((n_rows, n_columns)) * scales
        selector = fit_principal_features_cached(
            matrix, n_features=n_features, cache=ArtifactCache()
        )
        direct = PrincipalFeaturesSubspace(n_features=n_features).fit(matrix)
        _assert_selection_matches_the_svd(selector, direct)


@pytest.mark.parametrize(
    "n_subjects, n_regions", [(1024, 100), (512, 200)], ids=["4950x1024", "19900x512"]
)
def test_scan_derived_galleries_certify_without_fallback(n_subjects, n_regions):
    dataset = HCPLikeDataset(
        n_subjects=n_subjects, n_regions=n_regions, n_timepoints=64, random_state=39602
    )
    group = build_group_matrix_batched(
        dataset.generate_session("REST", encoding="LR", day=1), cache=ArtifactCache()
    )
    # The top-t order is a prefix of the top-400 order.
    direct = PrincipalFeaturesSubspace(n_features=400).fit(group.data)
    for n_features in (100, 200, 400):
        gallery = ReferenceGallery(group, n_features=n_features, cache=ArtifactCache())
        selector = gallery.selector_
        assert gallery.fit_fallbacks_ == 0
        assert np.array_equal(selector.selected_indices_, direct.selected_indices_[:n_features])
        assert np.max(np.abs(selector.scores_ - direct.scores_)) <= selector.scores_bound_


@pytest.fixture()
def rng():
    return np.random.default_rng(20261017)


class TestFallbacks:
    def _fallback_equals_fresh(self, gallery, scans):
        before = gallery.fit_fallbacks_
        assert gallery.enroll(scans) == len(scans)
        assert gallery.fit_fallbacks_ == before + 1
        assert gallery._incremental is None
        probe = build_group_matrix_batched(scans, cache=ArtifactCache())
        _assert_matches_fresh_fit(gallery, probe, 0.0)

    def test_plain_enroll_takes_the_incremental_path(self, rng):
        scans = _scans(rng, 12, 12)
        gallery = ReferenceGallery.from_scans(scans[:10], n_features=20, cache=ArtifactCache())
        gallery.enroll(scans[10:11])
        gallery.enroll(scans[11:])
        assert (gallery.incremental_enrolls_, gallery.fit_fallbacks_) == (2, 0)
        assert gallery.refit_count_ == 3
        info = gallery.info()
        assert (info["incremental_enrolls"], info["fit_fallbacks"]) == (2, 0)

    def test_exact_tie_straddling_the_selection_boundary(self, rng):
        scans, n_features = _tied_scans(rng, 8)
        gallery = ReferenceGallery.from_scans(
            scans[:7], n_features=n_features, cache=ArtifactCache()
        )
        self._fallback_equals_fresh(gallery, scans[7:])

    def test_linearly_dependent_column(self, rng):
        scans = _scans(rng, 6, 10)
        gallery = ReferenceGallery.from_scans(scans, n_features=12, cache=ArtifactCache())
        twin = ScanRecord(
            subject_id="twin", task="REST", session="S1", timeseries=scans[2].timeseries
        )
        self._fallback_equals_fresh(gallery, [twin])

    def test_failing_cholesky(self, rng, monkeypatch):
        scans = _scans(rng, 7, 10)
        gallery = ReferenceGallery.from_scans(scans[:6], n_features=12, cache=ArtifactCache())

        def failing(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        self._fallback_equals_fresh(gallery, scans[6:])

    def test_ill_conditioned_reference(self, rng):
        scans = _scans(rng, 4, 10)
        near_twin = ScanRecord(
            subject_id="near-twin", task="REST", session="S1",
            timeseries=scans[0].timeseries + 1e-9 * rng.standard_normal((10, 30)),
        )
        reference = scans[:3] + [near_twin]
        assert IncrementalLeverage.fit(
            build_group_matrix_batched(reference, cache=ArtifactCache()).data
        ) is None
        gallery = ReferenceGallery.from_scans(reference, n_features=12, cache=ArtifactCache())
        self._fallback_equals_fresh(gallery, scans[3:])

    @pytest.mark.parametrize(
        "params", [{"rank": 3}, {"rank": 3, "method": "randomized", "random_state": 7}]
    )
    def test_rank_k_and_randomized_always_refit(self, rng, monkeypatch, params):
        scans = _scans(rng, 8, 10)
        gallery = ReferenceGallery.from_scans(
            scans[:6], n_features=12, cache=ArtifactCache(), **params
        )

        def forbidden(matrix):
            raise AssertionError("the incremental basis must not be built")

        monkeypatch.setattr(IncrementalLeverage, "fit", forbidden)
        gallery.enroll(scans[6:7])
        gallery.enroll(scans[7:])
        assert (gallery.incremental_enrolls_, gallery.fit_fallbacks_) == (0, 0)
        assert gallery.refit_count_ == 3
        fresh = ReferenceGallery(
            gallery.reference, n_features=12, cache=ArtifactCache(), **params
        )
        assert np.array_equal(
            gallery.selector_.selected_indices_, fresh.selector_.selected_indices_
        )


class TestFitFallbacks:
    """Each case runs the SVD once and equals the SVD fit bit for bit."""

    def _fallback_equals_the_svd(self, scans, n_features):
        group = build_group_matrix_batched(scans, cache=ArtifactCache())
        gallery = ReferenceGallery(group, n_features=n_features, cache=ArtifactCache())
        assert gallery.fit_fallbacks_ == 1
        assert gallery.selector_.scores_bound_ is None
        direct = PrincipalFeaturesSubspace(n_features=n_features).fit(group.data)
        assert np.array_equal(gallery.selector_.scores_, direct.scores_)
        assert np.array_equal(gallery.selector_.selected_indices_, direct.selected_indices_)
        assert np.array_equal(gallery.signatures_, group.data[direct.selected_indices_])
        return gallery

    def test_exact_tie_straddling_the_selection_boundary(self, rng):
        self._fallback_equals_the_svd(*_tied_scans(rng, 8))

    def test_dependent_column(self, rng):
        scans = _scans(rng, 6, 10)
        twin = ScanRecord(
            subject_id="twin", task="REST", session="S1", timeseries=scans[2].timeseries
        )
        self._fallback_equals_the_svd(scans + [twin], 12)

    def test_wide_matrix(self, rng):
        # 5 regions give 10 features for 12 subjects.
        self._fallback_equals_the_svd(_scans(rng, 12, 5), 4)

    def test_failing_cholesky(self, rng, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        self._fallback_equals_the_svd(_scans(rng, 7, 10), 12)


class TestCacheContract:
    def test_incremental_scores_never_prime_the_exact_key(self, rng, tmp_path):
        scans = _scans(rng, 11, 12)
        gallery = ReferenceGallery.from_scans(scans[:10], n_features=20, cache=ArtifactCache())
        gallery.enroll(scans[10:])
        assert gallery.incremental_enrolls_ == 1
        gallery.save(tmp_path / "gal")
        assert json.loads((tmp_path / "gal" / "gallery.json").read_text())[
            "incremental_scores"
        ] is True
        cache = ArtifactCache()
        loaded = ReferenceGallery.load(tmp_path / "gal", cache=cache)
        key = leverage_cache_key(cache, loaded.reference.data)
        assert cache.get("leverage", key) is None
        assert cache.get("gallery", loaded.fingerprint) is not None
        # Saving the loaded gallery again keeps the marker.
        loaded.save(tmp_path / "again")
        again = json.loads((tmp_path / "again" / "gallery.json").read_text())
        assert again["incremental_scores"] is True

    def test_enroll_puts_no_factor_entries(self, rng):
        scans = _scans(rng, 11, 12)
        cache = ArtifactCache()
        gallery = ReferenceGallery.from_scans(scans[:10], n_features=20, cache=cache)
        puts = {kind: cache.stats(kind).as_dict() for kind in ("leverage", "svd", "gallery")}
        gallery.enroll(scans[10:])
        assert gallery.incremental_enrolls_ == 1
        for kind, stats in puts.items():
            assert cache.stats(kind).as_dict() == stats

    def test_unmarked_archive_digest_is_unchanged(self, rng, tmp_path, monkeypatch):
        # Only scores the SVD produced go unmarked: fail the Gram route.
        def failing(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", failing)
            gallery = ReferenceGallery.from_scans(
                _scans(rng, 6, 10), n_features=12, cache=ArtifactCache()
            )
        assert gallery.fit_fallbacks_ == 1
        gallery.save(tmp_path / "gal")
        meta = json.loads((tmp_path / "gal" / "gallery.json").read_text())
        assert "incremental_scores" not in meta
        expected = gallery.cache.key(
            "gallery-archive",
            gallery.reference.data,
            gallery.signatures_,
            gallery.selector_.selected_indices_,
            gallery.selector_.scores_,
            n_features=12, rank=-1, method="exact", seed=-1,
        )
        assert meta["integrity"] == expected

    def test_removing_the_marker_fails_the_integrity_check(self, rng, tmp_path):
        scans = _scans(rng, 11, 12)
        gallery = ReferenceGallery.from_scans(scans[:10], n_features=20, cache=ArtifactCache())
        gallery.enroll(scans[10:])
        gallery.save(tmp_path / "gal")
        meta_path = tmp_path / "gal" / "gallery.json"
        meta = json.loads(meta_path.read_text())
        del meta["incremental_scores"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="integrity"):
            ReferenceGallery.load(tmp_path / "gal", cache=ArtifactCache())

    def test_gram_fit_archive_is_marked(self, rng, tmp_path):
        gallery = ReferenceGallery.from_scans(
            _scans(rng, 6, 10), n_features=12, cache=ArtifactCache()
        )
        assert gallery.selector_.scores_bound_ is not None
        gallery.save(tmp_path / "gal")
        meta = json.loads((tmp_path / "gal" / "gallery.json").read_text())
        assert meta["incremental_scores"] is True
        loaded = ReferenceGallery.load(tmp_path / "gal", cache=ArtifactCache())
        assert np.array_equal(loaded.selector_.scores_, gallery.selector_.scores_)

    def test_rank_k_load_still_primes_the_leverage_kind(self, rng, tmp_path):
        gallery = ReferenceGallery.from_scans(
            _scans(rng, 6, 10), n_features=12, rank=3, cache=ArtifactCache()
        )
        gallery.save(tmp_path / "gal")
        meta = json.loads((tmp_path / "gal" / "gallery.json").read_text())
        assert "incremental_scores" not in meta
        cache = ArtifactCache()
        loaded = ReferenceGallery.load(tmp_path / "gal", cache=cache)
        key = leverage_cache_key(cache, loaded.reference.data, rank=3)
        assert np.array_equal(cache.get("leverage", key), gallery.selector_.scores_)


@pytest.mark.parametrize("params", [{}, {"rank": 3}], ids=["gram", "rank-k"])
def test_fit_reaches_the_traced_span_attributes(rng, monkeypatch, params):
    # The serving benchmark's traced run times gallery fits by patching
    # these two module attributes; a fit that bypassed either would leave
    # its span silent.
    calls = []
    for module, name in (
        (reference_module, "fit_principal_features_cached"),
        (factors, "cached_leverage_scores"),
    ):
        original = getattr(module, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    ReferenceGallery.from_scans(_scans(rng, 6, 10), n_features=12, cache=ArtifactCache(), **params)
    assert calls == ["fit_principal_features_cached", "cached_leverage_scores"]
