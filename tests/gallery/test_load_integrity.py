"""Integrity-digest tamper detection and archive format in gallery persistence.

The persisted archive is covered by a digest over *every* array plus the fit
parameters; these tests corrupt persisted state in ways a bit-flip, a partial
write, or a malicious edit could and assert the load fails loudly — and,
just as important, that a failed load never primes the artifact cache with
poisoned arrays.
"""

import json
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.hcp import HCPLikeDataset
from repro.exceptions import ValidationError
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import GalleryRegistry


@pytest.fixture()
def saved_gallery(small_hcp, tmp_path):
    """A fitted gallery persisted to ``tmp_path / 'gal'``."""
    scans = small_hcp.generate_session("REST", encoding="LR", day=1)
    gallery = ReferenceGallery.from_scans(scans, n_features=40, cache=ArtifactCache())
    directory = gallery.save(tmp_path / "gal")
    return gallery, directory


def _corrupt_array(directory, name):
    """Flip one value of one persisted array inside the npz archive."""
    archive = directory / "gallery.npz"
    with np.load(archive) as data:
        arrays = {key: data[key].copy() for key in data.files}
    flat = arrays[name].reshape(-1)
    flat[0] = flat[0] + 1.0 if np.issubdtype(flat.dtype, np.floating) else flat[0] + 1
    np.savez_compressed(archive, **arrays)


class TestTamperDetection:
    def test_single_corrupted_signature_value_is_a_clear_error(self, saved_gallery):
        _, directory = saved_gallery
        _corrupt_array(directory, "signatures")
        with pytest.raises(ValidationError, match="integrity"):
            ReferenceGallery.load(directory, cache=ArtifactCache())

    def test_corrupted_leverage_scores_are_a_clear_error(self, saved_gallery):
        _, directory = saved_gallery
        _corrupt_array(directory, "leverage_scores")
        with pytest.raises(ValidationError, match="integrity"):
            ReferenceGallery.load(directory, cache=ArtifactCache())

    def test_tampered_fit_parameters_are_a_clear_error(self, saved_gallery):
        # Editing gallery.json (e.g. claiming a different n_features) breaks
        # the digest even though every array is untouched.
        _, directory = saved_gallery
        meta_path = directory / "gallery.json"
        meta = json.loads(meta_path.read_text())
        meta["n_features"] = meta["n_features"] - 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="integrity"):
            ReferenceGallery.load(directory, cache=ArtifactCache())

    def test_tampered_integrity_field_is_a_clear_error(self, saved_gallery):
        _, directory = saved_gallery
        meta_path = directory / "gallery.json"
        meta = json.loads(meta_path.read_text())
        meta["integrity"] = "0" * len(meta["integrity"])
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="integrity"):
            ReferenceGallery.load(directory, cache=ArtifactCache())

    def test_failed_load_does_not_prime_the_cache(self, saved_gallery):
        # A tampered archive must not leave poisoned leverage/gallery
        # artifacts behind for later fits to hit.
        _, directory = saved_gallery
        _corrupt_array(directory, "leverage_scores")
        cache = ArtifactCache()
        with pytest.raises(ValidationError):
            ReferenceGallery.load(directory, cache=cache)
        assert cache.stats("leverage").puts == 0
        assert cache.stats("gallery").puts == 0

    def test_untampered_archive_still_loads(self, saved_gallery):
        gallery, directory = saved_gallery
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.fingerprint == gallery.fingerprint


def _zip_compression(archive):
    with zipfile.ZipFile(archive) as handle:
        return {info.compress_type for info in handle.infolist()}


class TestArchiveFormat:
    """Archives are written uncompressed; earlier compressed ones still load."""

    def test_save_writes_an_uncompressed_archive(self, saved_gallery):
        _, directory = saved_gallery
        assert _zip_compression(directory / "gallery.npz") == {zipfile.ZIP_STORED}

    def test_compressed_archive_in_the_old_layout_loads(self, saved_gallery):
        gallery, directory = saved_gallery
        archive = directory / "gallery.npz"
        with np.load(archive) as data:
            arrays = {key: data[key] for key in data.files}
        np.savez_compressed(archive, **arrays)
        assert _zip_compression(archive) == {zipfile.ZIP_DEFLATED}
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.fingerprint == gallery.fingerprint
        assert np.array_equal(loaded.signatures_, gallery.signatures_)
        assert np.array_equal(
            loaded.selector_.selected_indices_, gallery.selector_.selected_indices_
        )

    def test_either_writer_gives_identical_digests(
        self, saved_gallery, tmp_path, monkeypatch
    ):
        # Both digests hash arrays, never file bytes, so the writer is free.
        gallery, directory = saved_gallery
        monkeypatch.setattr(np, "savez", np.savez_compressed)
        compressed = gallery.save(tmp_path / "compressed")
        assert _zip_compression(compressed / "gallery.npz") == {zipfile.ZIP_DEFLATED}
        plain_meta = json.loads((directory / "gallery.json").read_text())
        old_meta = json.loads((compressed / "gallery.json").read_text())
        assert old_meta["integrity"] == plain_meta["integrity"]
        assert old_meta["fingerprint"] == plain_meta["fingerprint"]
        ReferenceGallery.load(compressed, cache=ArtifactCache())

    def test_archive_digested_by_copying_bytes_still_loads(
        self, saved_gallery, tmp_path, monkeypatch
    ):
        # Arrays were once hashed through ``tobytes()``; an archive whose
        # digests were made that way must pass today's integrity check.
        from repro.runtime import cache as cache_module

        gallery, directory = saved_gallery
        hash_part = cache_module._hash_part

        def copying_hash_part(digest, part):
            if not isinstance(part, np.ndarray):
                return hash_part(digest, part)
            array = np.ascontiguousarray(part)
            digest.update(b"\x00array")
            digest.update(str(array.dtype).encode("utf-8"))
            digest.update(str(array.shape).encode("utf-8"))
            digest.update(array.tobytes())

        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "_hash_part", copying_hash_part)
            old = gallery.save(tmp_path / "copying")
        old_meta = json.loads((old / "gallery.json").read_text())
        assert old_meta["integrity"] == json.loads(
            (directory / "gallery.json").read_text()
        )["integrity"]
        loaded = ReferenceGallery.load(old, cache=ArtifactCache())
        assert loaded.fingerprint == gallery.fingerprint


class TestCrashSafeSave:
    def test_failed_array_write_keeps_the_previous_state_loadable(
        self, saved_gallery, small_hcp, monkeypatch
    ):
        gallery, directory = saved_gallery
        before = {
            name: (directory / name).read_bytes()
            for name in ("gallery.npz", "gallery.json")
        }
        gallery.enroll(small_hcp.generate_session("REST", encoding="RL", day=2)[:1])

        def partial_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", partial_savez)
        with pytest.raises(OSError, match="disk full"):
            gallery.save(directory)
        monkeypatch.undo()

        assert sorted(path.name for path in directory.iterdir()) == [
            "gallery.json", "gallery.npz",
        ]
        for name, content in before.items():
            assert (directory / name).read_bytes() == content
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.n_subjects == gallery.n_subjects - 1

    def test_registry_ignores_leftover_temp_files(self, saved_gallery, tmp_path):
        # A save killed before its first rename leaves only temp files; the
        # registry recognises a gallery by its gallery.json alone.
        _, directory = saved_gallery
        stray = tmp_path / "stray"
        stray.mkdir()
        (stray / ".gallery.npz.1.2.tmp").write_bytes(b"partial")
        (stray / ".gallery.json.1.2.tmp").write_bytes(b"{")
        registry = GalleryRegistry(root=tmp_path, cache=ArtifactCache())
        assert registry.names() == [directory.name]


#: A gallery saved when archives could also carry a candidate-pruning index:
#: 8 subjects of ``HCPLikeDataset(n_subjects=12, n_regions=32,
#: n_timepoints=80, random_state=7)``, REST LR day 1, ``n_features=24``,
#: with an index of rank 4 (arrays ``index_projection``/``index_sketch``/
#: ``index_residual``, JSON entry ``"index"``).
LEGACY_INDEXED_GALLERY = Path(__file__).parent / "data" / "legacy_indexed_gallery"
_INDEX_ARRAYS = ("index_projection", "index_sketch", "index_residual")


@pytest.fixture()
def legacy_indexed(tmp_path):
    """A writable copy of the index-bearing archive."""
    return Path(shutil.copytree(LEGACY_INDEXED_GALLERY, tmp_path / "legacy"))


def _rewrite_archive(directory, edit):
    """Apply ``edit`` to the archive's arrays (a name -> array dict) in place."""
    archive = directory / "gallery.npz"
    with np.load(archive) as data:
        arrays = {key: data[key].copy() for key in data.files}
    edit(arrays)
    np.savez(archive, **arrays)


def _flip_first_byte(arrays, name):
    arrays[name].reshape(-1).view(np.uint8)[0] ^= 0x01


class TestLegacyIndexArchive:
    """Archives that still carry pruning-index arrays load, and their digest
    still covers those arrays."""

    def test_loads_with_the_archived_signatures_and_selection(self, legacy_indexed):
        loaded = ReferenceGallery.load(legacy_indexed, cache=ArtifactCache())
        with np.load(legacy_indexed / "gallery.npz") as data:
            assert set(_INDEX_ARRAYS) <= set(data.files)
            assert np.array_equal(loaded.signatures_, data["signatures"])
            assert np.array_equal(
                loaded.selector_.selected_indices_, data["selected_indices"]
            )
        assert loaded.n_subjects == 8

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda arrays: _flip_first_byte(arrays, "index_sketch"),
            lambda arrays: arrays.pop("index_residual"),
        ],
        ids=["flipped-index-sketch-byte", "deleted-index-residual"],
    )
    def test_tampered_index_arrays_fail_integrity(self, legacy_indexed, tamper):
        _rewrite_archive(legacy_indexed, tamper)
        with pytest.raises(ValidationError, match="integrity"):
            ReferenceGallery.load(legacy_indexed, cache=ArtifactCache())

    def test_enroll_and_save_write_an_archive_without_the_index(
        self, legacy_indexed, tmp_path
    ):
        cohort = HCPLikeDataset(
            n_subjects=12, n_regions=32, n_timepoints=80, random_state=7
        )
        gallery = ReferenceGallery.load(legacy_indexed, cache=ArtifactCache())
        assert gallery.enroll(cohort.generate_session("REST", encoding="LR", day=1)[8:]) == 4
        directory = gallery.save(tmp_path / "saved")
        with np.load(directory / "gallery.npz") as data:
            assert not set(_INDEX_ARRAYS) & set(data.files)
        assert "index" not in json.loads((directory / "gallery.json").read_text())
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.n_subjects == 12
        assert loaded.fingerprint == gallery.fingerprint
        assert np.array_equal(loaded.signatures_, gallery.signatures_)
