"""Tests for the content-keyed artifact cache."""

import hashlib

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.runtime.cache import (
    ArtifactCache,
    _hash_part,
    get_default_cache,
    set_default_cache,
)
from repro.runtime.faults import FaultPlan, install_plan


class TestKeys:
    def test_same_content_same_key(self):
        cache = ArtifactCache()
        a = np.arange(12.0).reshape(3, 4)
        assert cache.key("connectome", a, fisher=False) == cache.key(
            "connectome", a.copy(), fisher=False
        )

    def test_mutated_array_changes_key(self):
        cache = ArtifactCache()
        a = np.arange(12.0).reshape(3, 4)
        before = cache.key("connectome", a)
        a[0, 0] = 99.0
        assert cache.key("connectome", a) != before

    def test_params_and_kind_feed_the_key(self):
        cache = ArtifactCache()
        a = np.ones(5)
        assert cache.key("leverage", a, rank=2) != cache.key("leverage", a, rank=3)
        assert cache.key("leverage", a) != cache.key("group_matrix", a)

    def test_shape_distinguishes_same_bytes(self):
        cache = ArtifactCache()
        a = np.arange(12.0)
        assert cache.key("x", a.reshape(3, 4)) != cache.key("x", a.reshape(4, 3))


def _copying_array_digest(array):
    """The array digest as first defined: tag, dtype, shape, ``tobytes()``."""
    contiguous = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(b"\x00array")
    digest.update(str(contiguous.dtype).encode("utf-8"))
    digest.update(str(contiguous.shape).encode("utf-8"))
    digest.update(contiguous.tobytes())
    return digest.hexdigest()


class TestArrayDigestBytes:
    """Hashing the buffer in place feeds sha256 the bytes ``tobytes`` did."""

    @pytest.mark.parametrize(
        "array",
        [
            np.linspace(-1.0, 1.0, 12).reshape(3, 4),
            np.array([True, False, True]),
            np.arange(-5, 5, dtype=np.int64),
            np.array(2.5),
            np.zeros((0, 3)),
            np.asfortranarray(np.arange(12.0).reshape(3, 4)),
            np.arange(24.0).reshape(4, 6)[::2, 1::2],
        ],
        ids=["float64", "bool", "int64", "0-d", "empty", "fortran", "strided-view"],
    )
    def test_digest_matches_the_copying_formula(self, array):
        digest = hashlib.sha256()
        _hash_part(digest, array)
        assert digest.hexdigest() == _copying_array_digest(array)

    def test_golden_key(self):
        key = ArtifactCache().key(
            "golden",
            np.arange(6.0).reshape(2, 3),
            np.array([True, False]),
            flag=np.arange(3, dtype=np.int64),
        )
        assert key == "3fc1e8cab9ee30f9b49f71336a40a5f3f3b383c94eab675669c4b98595278ba2"


class TestLookup:
    def test_miss_then_hit(self):
        cache = ArtifactCache()
        key = cache.key("leverage", np.ones(4))
        calls = []

        def compute():
            calls.append(1)
            return np.full(4, 7.0)

        first = cache.get_or_compute("leverage", key, compute)
        second = cache.get_or_compute("leverage", key, compute)
        assert len(calls) == 1
        np.testing.assert_array_equal(first, second)
        stats = cache.stats("leverage")
        assert stats.misses == 1 and stats.hits == 1 and stats.puts == 1

    def test_mutated_input_is_a_miss(self):
        cache = ArtifactCache()
        data = np.ones((4, 6))
        cache.get_or_compute("connectome", cache.key("connectome", data), lambda: data.sum())
        data[2, 2] = -1.0
        cache.get_or_compute("connectome", cache.key("connectome", data), lambda: data.sum())
        assert cache.stats("connectome").misses == 2
        assert cache.stats("connectome").hits == 0

    def test_compute_returning_none_rejected(self):
        cache = ArtifactCache()
        with pytest.raises(ValidationError, match="None"):
            cache.get_or_compute("x", "deadbeef", lambda: None)

    def test_lru_eviction_counts(self):
        cache = ArtifactCache(max_memory_items=2)
        for index in range(4):
            cache.put("x", f"key-{index}", np.asarray([index]))
        assert len(cache) == 2
        assert cache.stats("x").evictions == 2
        assert cache.get("x", "key-0") is None  # evicted
        assert cache.get("x", "key-3") is not None

    def test_eviction_charged_to_evicted_kind(self):
        cache = ArtifactCache(max_memory_items=2)
        cache.put("a", "k1", np.ones(2))
        cache.put("a", "k2", np.ones(2))
        cache.put("b", "k3", np.ones(2))  # evicts an 'a' entry
        assert cache.stats("a").evictions == 1
        assert cache.stats("b").evictions == 0

    def test_byte_budget_bounds_memory(self):
        cache = ArtifactCache(max_memory_items=100, max_memory_bytes=3 * 8 * 10)
        for index in range(6):
            cache.put("x", f"key-{index}", np.full(10, float(index)))
        assert len(cache) == 3  # 3 x 80-byte arrays fit the budget
        assert cache.stats("x").evictions == 3

    def test_cached_arrays_are_frozen_against_mutation(self):
        cache = ArtifactCache()
        cache.put("x", "k", np.zeros(4))
        hit = cache.get("x", "k")
        with pytest.raises(ValueError, match="read-only"):
            hit[0] = 99.0  # silent cache poisoning must be impossible

    def test_clear_drops_memory_and_optionally_stats(self):
        cache = ArtifactCache()
        cache.put("x", "k", np.ones(3))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats("x").puts == 1
        cache.clear(reset_stats=True)
        assert cache.stats().puts == 0


class TestDiskTier:
    def test_disk_round_trip_after_memory_clear(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        value = np.arange(10.0)
        cache.put("group_matrix", "abc123", value)
        cache.clear()  # memory gone, disk survives
        restored = cache.get("group_matrix", "abc123")
        np.testing.assert_array_equal(restored, value)
        stats = cache.stats("group_matrix")
        assert stats.disk_hits == 1

    def test_second_process_view_shares_disk(self, tmp_path):
        first = ArtifactCache(cache_dir=tmp_path)
        first.put("leverage", "k1", np.full(3, 2.0))
        second = ArtifactCache(cache_dir=tmp_path)
        np.testing.assert_array_equal(second.get("leverage", "k1"), np.full(3, 2.0))

    def test_entry_from_the_compressed_writer_is_still_a_disk_hit(self, tmp_path):
        # The tier writes np.savez; entries in the earlier np.savez_compressed
        # format must keep serving the same bytes.
        value = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        path = tmp_path / "svd" / "old-key.npz"
        path.parent.mkdir()
        np.savez_compressed(path, artifact=value)
        cache = ArtifactCache(cache_dir=tmp_path)
        restored = cache.get("svd", "old-key")
        assert restored.tobytes() == value.tobytes()
        assert restored.dtype == value.dtype and restored.shape == value.shape
        assert cache.stats("svd").disk_hits == 1

    def test_non_array_values_stay_memory_only(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        cache.put("meta", "k", {"accuracy": 0.9})
        cache.clear()
        assert cache.get("meta", "k") is None


class TestDefaultCache:
    def test_default_cache_is_process_wide(self):
        original = get_default_cache()
        try:
            replacement = ArtifactCache(max_memory_items=4)
            set_default_cache(replacement)
            assert get_default_cache() is replacement
        finally:
            set_default_cache(original)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValidationError, match="max_memory_items"):
            ArtifactCache(max_memory_items=0)


class TestFrozenArrayDigest:
    def test_digest_matches_key_content_semantics(self):
        from repro.runtime.cache import frozen_array_digest

        array = np.arange(6, dtype=np.float64)
        other = np.arange(6, dtype=np.float64)
        assert frozen_array_digest(array) == frozen_array_digest(other)
        assert frozen_array_digest(array) != frozen_array_digest(other + 1)

    def test_owning_arrays_are_frozen_and_memoized(self):
        from repro.runtime.cache import frozen_array_digest

        array = np.arange(8, dtype=np.float64)
        digest = frozen_array_digest(array)
        assert not array.flags.writeable  # frozen: the memo cannot go stale
        with pytest.raises(ValueError):
            array[0] = 99.0
        assert frozen_array_digest(array) == digest

    def test_views_are_not_frozen(self):
        from repro.runtime.cache import frozen_array_digest

        base = np.arange(12, dtype=np.float64)
        view = base[2:8]
        digest = frozen_array_digest(view)
        assert base.flags.writeable  # a view's base stays mutable
        base[2] = 100.0  # mutating through the base must change the digest
        assert frozen_array_digest(view) != digest


class TestInjectedDiskFaults:
    """The ``cache.read_error``/``cache.write_error`` fault sites: the disk
    tier is best-effort, so an injected I/O fault degrades to a miss (or a
    skipped persist), is counted in ``disk_errors``, and never corrupts."""

    def test_read_fault_degrades_to_a_counted_miss(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        value = np.arange(8.0)
        cache.put("group_matrix", "k", value)
        cache.clear()  # memory gone: the next get must go through disk
        plan = FaultPlan([{"site": "cache.read_error", "start": 0, "limit": 1}])
        try:
            install_plan(plan)
            assert cache.get("group_matrix", "k") is None  # degraded to a miss
        finally:
            install_plan(None)
        stats = cache.stats("group_matrix")
        assert stats.disk_errors == 1
        assert stats.as_dict()["disk_errors"] == 1
        # The archive itself was never touched: the fault-free retry hits.
        np.testing.assert_array_equal(cache.get("group_matrix", "k"), value)
        assert cache.stats("group_matrix").disk_hits == 1

    def test_write_fault_skips_persist_counts_and_leaves_no_litter(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        value = np.arange(6.0)
        plan = FaultPlan([{"site": "cache.write_error", "start": 0, "limit": 1}])
        try:
            install_plan(plan)
            cache.put("leverage", "k", value)
        finally:
            install_plan(None)
        # The memory tier still serves this process...
        np.testing.assert_array_equal(cache.get("leverage", "k"), value)
        # ...but nothing reached disk — no archive and no tmp litter — so a
        # second process view misses: the failed write costs a recompute,
        # never correctness.
        assert list(tmp_path.rglob("*")) in ([], [tmp_path / "leverage"])
        assert cache.stats("leverage").disk_errors == 1
        assert ArtifactCache(cache_dir=tmp_path).get("leverage", "k") is None
        # With the plan exhausted, the same put persists normally.
        cache.put("leverage", "k", value)
        np.testing.assert_array_equal(
            ArtifactCache(cache_dir=tmp_path).get("leverage", "k"), value
        )
