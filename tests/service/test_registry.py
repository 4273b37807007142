"""Tests for the gallery registry: naming, eviction, persistence, lazy load."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import GalleryRegistry, ServiceConfig


class TestMembership:
    def test_build_registers_and_lists(self, registry):
        assert "hcp" in registry
        assert registry.names() == ["hcp"]
        assert len(registry) == 1

    def test_get_unknown_gallery_is_a_clean_error(self, registry):
        with pytest.raises(ValidationError, match="unknown gallery"):
            registry.get("nope")

    def test_duplicate_build_rejected(self, registry, sessions):
        with pytest.raises(ValidationError, match="already exists"):
            registry.build("hcp", sessions[0])

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b"])
    def test_bad_names_rejected(self, registry, name):
        with pytest.raises(ValidationError):
            registry.get(name)


class TestConfigPlumbing:
    def test_build_uses_the_registry_config(self, sessions):
        registry = GalleryRegistry(
            config=ServiceConfig(n_features=40, shard_size=5), cache=ArtifactCache()
        )
        gallery = registry.build("g", sessions[0])
        assert gallery.n_features == 40
        assert gallery.shard_size == 5
        assert gallery.cache is registry.cache

    def test_build_overrides_win(self, sessions):
        registry = GalleryRegistry(
            config=ServiceConfig(n_features=40), cache=ArtifactCache()
        )
        gallery = registry.build("g", sessions[0], n_features=30)
        assert gallery.n_features == 30

    def test_registry_attaches_its_runner_to_registered_galleries(self, sessions):
        from repro.runtime.runner import ExperimentRunner

        runner = ExperimentRunner(max_workers=2)
        registry = GalleryRegistry(cache=ArtifactCache(), runner=runner)
        gallery = registry.build("g", sessions[0][:4], n_features=20)
        assert gallery.runner is runner


class TestPersistence:
    def test_persist_evict_and_lazy_reload(self, tmp_path, sessions):
        reference_scans, probe_scans = sessions
        cache = ArtifactCache()
        registry = GalleryRegistry(
            root=tmp_path, config=ServiceConfig(n_features=60), cache=cache
        )
        gallery = registry.build("site-a", reference_scans)
        expected = gallery.identify(probe_scans)
        registry.persist("site-a")
        assert (tmp_path / "site-a" / "gallery.bin").exists()

        assert registry.evict("site-a")
        assert "site-a" in registry  # still on disk
        reloaded = registry.get("site-a")  # lazily loaded, never re-fitted
        assert reloaded.refit_count_ == 0
        assert np.array_equal(
            reloaded.identify(probe_scans).similarity, expected.similarity
        )

    def test_evict_with_delete_removes_the_directory(self, tmp_path, sessions):
        registry = GalleryRegistry(root=tmp_path, cache=ArtifactCache())
        registry.build("gone", sessions[0][:4], n_features=20)
        registry.persist("gone")
        assert registry.evict("gone", delete=True)
        assert "gone" not in registry
        assert not (tmp_path / "gone").exists()
        assert not registry.evict("gone")  # nothing left to evict

    def test_persist_without_root_needs_a_directory(self, registry, tmp_path):
        with pytest.raises(ValidationError, match="root"):
            registry.persist("hcp")
        registry.persist("hcp", tmp_path / "explicit")
        assert (tmp_path / "explicit" / "gallery.bin").exists()

    def test_load_all_restores_every_persisted_gallery(self, tmp_path, sessions):
        registry = GalleryRegistry(root=tmp_path, cache=ArtifactCache())
        for name in ("a", "b"):
            registry.build(name, sessions[0][:6], n_features=20)
            registry.persist(name)
            registry.evict(name)
        fresh = GalleryRegistry(root=tmp_path, cache=ArtifactCache())
        assert fresh.load_all() == ["a", "b"]
        assert fresh.info()["galleries"]["a"]["resident"]

    def test_registered_foreign_gallery_adopts_the_pool(self, sessions):
        registry = GalleryRegistry(cache=ArtifactCache())
        gallery = ReferenceGallery.from_scans(
            sessions[0][:4], n_features=20, cache=registry.cache
        )
        registry.register("adopted", gallery)
        assert registry.get("adopted") is gallery


class FakeClock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestResidencyPolicy:
    def _persisted_registry(self, tmp_path, sessions, **kwargs):
        clock = FakeClock()
        registry = GalleryRegistry(
            root=tmp_path, config=ServiceConfig(n_features=20),
            cache=ArtifactCache(), clock=clock, **kwargs,
        )
        return registry, clock

    def test_ttl_evicts_idle_persisted_galleries(self, tmp_path, sessions):
        registry, clock = self._persisted_registry(tmp_path, sessions, ttl_seconds=60.0)
        registry.build("a", sessions[0][:4])
        registry.persist("a")
        registry.build("b", sessions[0][4:8])
        registry.persist("b")
        clock.advance(30.0)
        registry.get("a")  # refreshes a's idle clock; b stays untouched
        clock.advance(45.0)  # b idle 75s (> ttl), a idle 45s (< ttl)
        assert registry.get("a").refit_count_ >= 0
        info = registry.info()
        assert info["galleries"]["a"]["resident"]
        assert not info["galleries"]["b"]["resident"]
        assert info["auto_evictions"] == 1

    def test_evicted_gallery_lazily_reloads_with_identical_results(
        self, tmp_path, sessions
    ):
        registry, clock = self._persisted_registry(tmp_path, sessions, ttl_seconds=10.0)
        reference_scans, probe_scans = sessions
        gallery = registry.build("site", reference_scans[:6])
        expected = gallery.identify(probe_scans[:6])
        registry.persist("site")
        clock.advance(11.0)
        # Any registry access runs the eviction pass; touch another name.
        registry.build("poke", reference_scans[6:10])
        assert not registry.info()["galleries"]["site"]["resident"]
        reloaded = registry.get("site")
        assert reloaded is not gallery
        assert reloaded.refit_count_ == 0  # load(), never a re-fit
        assert np.array_equal(
            reloaded.identify(probe_scans[:6]).similarity, expected.similarity
        )

    def test_memory_only_galleries_are_never_auto_evicted(self, tmp_path, sessions):
        registry, clock = self._persisted_registry(
            tmp_path, sessions, ttl_seconds=5.0, max_galleries=1
        )
        registry.build("volatile", sessions[0][:4])  # never persisted
        registry.build("saved", sessions[0][4:8])
        registry.persist("saved")
        clock.advance(100.0)
        registry.build("third", sessions[0][8:12])
        info = registry.info()
        assert info["galleries"]["volatile"]["resident"]  # exempt: not on disk
        assert not info["galleries"]["saved"]["resident"]  # ttl + capacity

    def test_capacity_evicts_least_recently_used_first(self, tmp_path, sessions):
        registry, clock = self._persisted_registry(
            tmp_path, sessions, max_galleries=2
        )
        for index, name in enumerate(("a", "b", "c")):
            if index:
                clock.advance(1.0)
            if name != "c":
                registry.build(name, sessions[0][2 * index:2 * index + 2])
                registry.persist(name)
        clock.advance(1.0)
        registry.get("a")  # a is now more recently used than b
        clock.advance(1.0)
        registry.build("c", sessions[0][4:6])
        registry.persist("c")
        info = registry.info()
        assert info["galleries"]["a"]["resident"]
        assert info["galleries"]["c"]["resident"]
        assert not info["galleries"]["b"]["resident"]  # the LRU victim
        assert registry.get("b").n_subjects == 2  # and it reloads fine

    def test_enrolled_but_unpersisted_galleries_are_protected(
        self, tmp_path, sessions
    ):
        registry, clock = self._persisted_registry(tmp_path, sessions, ttl_seconds=5.0)
        reference_scans, _ = sessions
        gallery = registry.build("site", reference_scans[:4])
        registry.persist("site")
        # Enroll AFTER persisting: the disk snapshot is now stale, so the
        # residency policy must not drop the in-memory state.
        registry.enroll("site", reference_scans[4:8])
        assert gallery.n_subjects == 8
        clock.advance(100.0)
        registry.build("poke", reference_scans[8:10])  # triggers the pass
        assert registry.info()["galleries"]["site"]["resident"]
        assert registry.get("site").n_subjects == 8
        # Re-persisting the enrolled state makes it evictable again.
        registry.persist("site")
        clock.advance(100.0)
        registry.get("poke")
        assert not registry.info()["galleries"]["site"]["resident"]
        assert registry.get("site").n_subjects == 8  # reloads the new snapshot

    def test_metadata_mutations_protect_from_eviction_until_repersisted(
        self, tmp_path, sessions
    ):
        registry, clock = self._persisted_registry(tmp_path, sessions, ttl_seconds=5.0)
        reference_scans, _ = sessions
        gallery = registry.build("site", reference_scans[:4], metadata={"v": 1})
        registry.persist("site")
        gallery.metadata["v"] = 2  # in-place edit; disk still holds v=1
        clock.advance(100.0)
        registry.build("poke", reference_scans[4:6])  # triggers the pass
        assert registry.info()["galleries"]["site"]["resident"]
        assert registry.get("site").metadata["v"] == 2
        registry.persist("site")
        clock.advance(100.0)
        registry.get("poke")
        assert not registry.info()["galleries"]["site"]["resident"]
        assert registry.get("site").metadata["v"] == 2  # reloaded snapshot

    def test_auto_eviction_preserves_a_custom_gallery_backend(
        self, tmp_path, sessions
    ):
        registry, clock = self._persisted_registry(tmp_path, sessions, ttl_seconds=5.0)
        reference_scans, _ = sessions
        gallery = ReferenceGallery.from_scans(
            reference_scans[:4], n_features=20, cache=registry.cache,
            backend="blas_blocked",
        )
        registry.register("custom", gallery)
        registry.persist("custom")
        clock.advance(100.0)
        registry.build("poke", reference_scans[4:6])  # triggers the pass
        assert not registry.info()["galleries"]["custom"]["resident"]
        reloaded = registry.get("custom")
        assert reloaded.backend == "blas_blocked"  # not the registry default

    def test_policy_defaults_come_from_the_config(self, tmp_path):
        registry = GalleryRegistry(
            root=tmp_path,
            config=ServiceConfig(max_galleries=3, gallery_ttl_s=120.0),
            cache=ArtifactCache(),
        )
        assert registry.max_galleries == 3
        assert registry.ttl_seconds == 120.0
        info = registry.info()
        assert info["max_galleries"] == 3
        assert info["ttl_seconds"] == 120.0

    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="max_galleries"):
            GalleryRegistry(root=tmp_path, cache=ArtifactCache(), max_galleries=0)
        with pytest.raises(ValidationError, match="ttl_seconds"):
            GalleryRegistry(root=tmp_path, cache=ArtifactCache(), ttl_seconds=0.0)


class TestInfo:
    def test_info_reports_residency_and_fingerprint(self, tmp_path, sessions):
        registry = GalleryRegistry(root=tmp_path, cache=ArtifactCache())
        registry.build("mem", sessions[0][:4], n_features=20)
        registry.persist("mem")
        registry.build("other", sessions[0][4:8], n_features=20)
        registry.evict("other")  # memory-only gallery, evicted without persist
        info = registry.info()
        assert info["root"] == str(tmp_path)
        assert info["galleries"]["mem"]["resident"]
        assert info["galleries"]["mem"]["n_subjects"] == 4
        assert "fingerprint" in info["galleries"]["mem"]
