"""Integrity-digest tamper detection, crash safety and archive formats of
gallery persistence.

A saved gallery is one format-2 archive whose digest covers every array and
the whole JSON document (fit parameters and subject labels included).  These
tests corrupt persisted state in ways a bit-flip, a partial write, a killed
writer or a malicious edit could and assert the load fails loudly — and,
just as important, that a failed load never primes the artifact cache with
poisoned arrays.  Format-1 archives (``gallery.npz`` + ``gallery.json``)
still load under their own digest and are rewritten as format 2 by the next
save.
"""

import json
import os
import select
import shutil
import signal
import sys
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


def _save_format1(gallery, directory, savez=np.savez):
    """Write ``gallery`` as format-1 ``save`` did: ``gallery.npz`` + ``gallery.json``.

    The format-1 digest hashes the four arrays and the fit parameters (plus
    a marker for scores that did not come from the SVD), not the labels.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {
        "reference": gallery.reference.data,
        "signatures": gallery.signatures_,
        "selected_indices": gallery.selector_.selected_indices_,
        "leverage_scores": gallery.selector_.scores_,
    }
    marker = {"scores": "incremental"} if gallery._gram_scores else {}
    meta = {
        "format_version": 1,
        "n_features": gallery.n_features,
        "rank": gallery.rank,
        "fisher": gallery.fisher,
        "method": gallery.method,
        "seed": None,
        "shard_size": gallery.shard_size,
        "subject_ids": gallery.reference.subject_ids,
        "tasks": gallery.reference.tasks,
        "sessions": gallery.reference.sessions,
        "fingerprint": "not read by load",
        "integrity": gallery.cache.key(
            "gallery-archive", *arrays.values(),
            n_features=gallery.n_features, rank=-1, method="exact", seed=-1, **marker,
        ),
        "metadata": gallery.metadata,
    }
    if marker:
        meta["incremental_scores"] = True
    savez(directory / "gallery.npz", **arrays)
    (directory / "gallery.json").write_text(json.dumps(meta, indent=2))
    return directory


def _state(gallery):
    """Everything a load must reproduce, as bytes and plain values."""
    return (
        np.asarray(gallery.reference.data).tobytes(order="F"),
        gallery.signatures_.tobytes(),
        np.asarray(gallery.selector_.selected_indices_, dtype=np.int64).tobytes(),
        gallery.selector_.scores_.tobytes(),
        gallery.reference.subject_ids,
        gallery.reference.tasks,
        gallery.reference.sessions,
        gallery.metadata,
    )


def _assert_fails_integrity(directory):
    cache = ArtifactCache()
    with pytest.raises(ValidationError, match="integrity"):
        ReferenceGallery.load(directory, cache=cache)
    for kind in ("leverage", "gallery"):
        assert cache.stats(kind).puts == 0


class TestTamperDetection:
    def test_single_corrupted_signature_value_is_a_clear_error(
        self, saved_gallery, archive_file
    ):
        _, directory = saved_gallery
        archive_file(directory).flip("signatures")
        _assert_fails_integrity(directory)

    def test_corrupted_leverage_scores_are_a_clear_error(self, saved_gallery, archive_file):
        _, directory = saved_gallery
        archive_file(directory).flip("leverage_scores", at=8)
        _assert_fails_integrity(directory)

    @pytest.mark.parametrize(
        "region",
        ["header", "document", "reference", "signatures", "selected_indices",
         "leverage_scores", "factor"],
    )
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_a_flipped_byte_in_any_region_fails_integrity(
        self, saved_gallery, archive_file, region, where
    ):
        _, directory = saved_gallery
        archive = archive_file(directory)
        start, stop = archive.regions()[region]
        archive.flip(region, at=0 if where == "first" else stop - start - 1)
        _assert_fails_integrity(directory)

    @pytest.mark.parametrize("keep", [0.0, 0.5, 0.999])
    def test_a_truncated_archive_fails_integrity(self, saved_gallery, keep):
        _, directory = saved_gallery
        path = directory / "gallery.bin"
        raw = path.read_bytes()
        path.write_bytes(raw[: int(keep * len(raw))])
        _assert_fails_integrity(directory)

    def test_a_trailing_byte_fails_integrity(self, saved_gallery):
        _, directory = saved_gallery
        with open(directory / "gallery.bin", "ab") as handle:
            handle.write(b"\0")
        _assert_fails_integrity(directory)

    @pytest.mark.parametrize("field", ["subject_ids", "tasks", "sessions"])
    def test_edited_labels_fail_integrity(self, saved_gallery, archive_file, field):
        # Swapping two ids would make identify answer the wrong subject.
        _, directory = saved_gallery

        def edit(document):
            document[field][0] = document[field][0] + "-edited"

        archive_file(directory).edit_document(edit)
        _assert_fails_integrity(directory)

    def test_swapped_subject_ids_fail_integrity(self, saved_gallery, archive_file):
        _, directory = saved_gallery

        def swap(document):
            ids = document["subject_ids"]
            ids[0], ids[1] = ids[1], ids[0]

        archive_file(directory).edit_document(swap)
        _assert_fails_integrity(directory)

    def test_tampered_fit_parameters_are_a_clear_error(self, saved_gallery, archive_file):
        # Claiming a different n_features breaks the digest even though
        # every array is untouched.
        _, directory = saved_gallery

        def edit(document):
            document["n_features"] -= 1

        archive_file(directory).edit_document(edit)
        _assert_fails_integrity(directory)

    def test_tampered_integrity_field_is_a_clear_error(self, saved_gallery, archive_file):
        _, directory = saved_gallery
        path = directory / "gallery.bin"
        raw = bytearray(path.read_bytes())
        start = archive_file.HEADER.size - 64
        raw[start:start + 64] = b"0" * 64
        path.write_bytes(bytes(raw))
        _assert_fails_integrity(directory)

    def test_failed_load_does_not_prime_the_cache(self, saved_gallery, archive_file):
        # A tampered archive must not leave poisoned leverage/gallery
        # artifacts behind for later fits to hit.
        _, directory = saved_gallery
        archive_file(directory).flip("leverage_scores")
        cache = ArtifactCache()
        with pytest.raises(ValidationError):
            ReferenceGallery.load(directory, cache=cache)
        assert cache.stats("leverage").puts == 0
        assert cache.stats("gallery").puts == 0

    def test_untampered_archive_still_loads(self, saved_gallery):
        gallery, directory = saved_gallery
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.fingerprint == gallery.fingerprint
        assert _state(loaded) == _state(gallery)

    def test_a_factor_of_the_wrong_shape_fails_the_load(self, saved_gallery, tmp_path):
        # Consistently saved, so the digest holds: the shape check catches it.
        gallery, _ = saved_gallery
        width = gallery.n_subjects
        gallery.selector_.factor_ = np.eye(width + 1)
        directory = gallery.save(tmp_path / "wrong-factor")
        with pytest.raises(ValidationError, match="factor"):
            ReferenceGallery.load(directory, cache=ArtifactCache())


def _zip_compression(archive):
    with zipfile.ZipFile(archive) as handle:
        return {info.compress_type for info in handle.infolist()}


class TestArchiveFormat:
    """One uncompressed format-2 file; format-1 archives still load."""

    def test_save_writes_an_uncompressed_archive(self, saved_gallery, archive_file):
        gallery, directory = saved_gallery
        assert sorted(path.name for path in directory.iterdir()) == ["gallery.bin"]
        raw = (directory / "gallery.bin").read_bytes()
        regions = archive_file(directory).regions()
        assert raw[:8] == b"RPGALv2\n"
        document = ReferenceGallery.saved_document(directory)
        assert document["format_version"] == 2
        assert document["subject_ids"] == gallery.reference.subject_ids
        # The reference is stored column-major, the small arrays as they are.
        start, stop = regions["reference"]
        assert raw[start:stop] == gallery.reference.data.tobytes(order="F")
        start, stop = regions["signatures"]
        assert raw[start:stop] == gallery.signatures_.tobytes()
        start, stop = regions["factor"]
        assert raw[start:stop] == np.ascontiguousarray(gallery.selector_.factor_).tobytes()
        assert stop == len(raw)

    def test_a_load_maps_the_reference_and_copies_the_small_arrays(self, saved_gallery):
        _, directory = saved_gallery
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.reference.data.flags.f_contiguous
        assert loaded.reference.data.base is not None
        for array in (loaded.signatures_, loaded.selector_.scores_,
                      loaded.selector_.selected_indices_, loaded.selector_.factor_):
            assert array.base is None

    @pytest.mark.parametrize("savez", [np.savez, np.savez_compressed],
                             ids=["uncompressed", "compressed"])
    def test_format1_archives_load_and_resave_as_format2(self, saved_gallery, tmp_path, savez):
        gallery, _ = saved_gallery
        old = _save_format1(gallery, tmp_path / "old", savez=savez)
        loaded = ReferenceGallery.load(old, cache=ArtifactCache())
        assert loaded.fingerprint == gallery.fingerprint
        assert _state(loaded) == _state(gallery)
        assert loaded.selector_.factor_ is None
        loaded.save(old)
        assert sorted(path.name for path in old.iterdir()) == ["gallery.bin"]
        again = ReferenceGallery.load(old, cache=ArtifactCache())
        assert _state(again) == _state(gallery)
        assert again.fingerprint == gallery.fingerprint

    def test_compressed_archive_in_the_old_layout_loads(self, saved_gallery, tmp_path):
        gallery, _ = saved_gallery
        old = _save_format1(gallery, tmp_path / "old", savez=np.savez_compressed)
        assert _zip_compression(old / "gallery.npz") == {zipfile.ZIP_DEFLATED}
        loaded = ReferenceGallery.load(old, cache=ArtifactCache())
        assert loaded.fingerprint == gallery.fingerprint
        assert np.array_equal(loaded.signatures_, gallery.signatures_)
        assert np.array_equal(
            loaded.selector_.selected_indices_, gallery.selector_.selected_indices_
        )

    def test_either_writer_gives_identical_digests(self, saved_gallery, tmp_path):
        # Format-1 digests hash arrays, never file bytes, so the writer is free.
        gallery, _ = saved_gallery
        plain = _save_format1(gallery, tmp_path / "plain")
        compressed = _save_format1(gallery, tmp_path / "compressed", np.savez_compressed)
        assert _zip_compression(plain / "gallery.npz") == {zipfile.ZIP_STORED}
        assert _zip_compression(compressed / "gallery.npz") == {zipfile.ZIP_DEFLATED}
        digests = [
            json.loads((path / "gallery.json").read_text())["integrity"]
            for path in (plain, compressed)
        ]
        assert digests[0] == digests[1]
        for path in (plain, compressed):
            ReferenceGallery.load(path, cache=ArtifactCache())

    def test_archive_digested_by_copying_bytes_still_loads(
        self, saved_gallery, tmp_path, monkeypatch
    ):
        # Arrays were once hashed through ``tobytes()``; a format-1 archive
        # whose digest was made that way must pass today's integrity check.
        from repro.runtime import cache as cache_module

        gallery, _ = saved_gallery
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
            old = _save_format1(gallery, tmp_path / "copying")
        assert json.loads((old / "gallery.json").read_text())["integrity"] == json.loads(
            (_save_format1(gallery, tmp_path / "viewing") / "gallery.json").read_text()
        )["integrity"]
        loaded = ReferenceGallery.load(old, cache=ArtifactCache())
        assert loaded.fingerprint == gallery.fingerprint

    def test_saved_document_reads_either_format(self, saved_gallery, tmp_path):
        gallery, directory = saved_gallery
        gallery.metadata["site"] = "unit-test"
        old = _save_format1(gallery, tmp_path / "old")
        new = gallery.save(tmp_path / "new")
        for path in (old, new):
            assert ReferenceGallery.is_saved(path)
            assert ReferenceGallery.saved_document(path)["metadata"] == {"site": "unit-test"}
        assert not ReferenceGallery.is_saved(tmp_path)
        with pytest.raises(ValidationError, match="no saved gallery"):
            ReferenceGallery.saved_document(tmp_path)


#: File-system audit events a save can raise.
_FS_EVENTS = ("open", "os.mkdir", "os.rename", "os.remove")


def _save_in_child(gallery, directory, kill_at=None):
    """Fork a process that saves ``gallery`` and kills itself before step ``kill_at``.

    Steps are the file-system calls on paths under ``directory``, counted by
    an audit hook; the child is SIGKILLed just before step ``kill_at`` runs,
    i.e. right after step ``kill_at - 1``.  Returns the number of steps a
    save that was not killed made.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        os.close(read)
        try:
            steps = 0

            def hook(event, args):
                nonlocal steps
                if event in _FS_EVENTS and str(directory) in str(args[0]):
                    steps += 1
                    if steps == kill_at:
                        os.kill(os.getpid(), signal.SIGKILL)

            sys.addaudithook(hook)
            gallery.save(directory)
            os.write(write, str(steps).encode())
        finally:
            os._exit(0)
    os.close(write)
    ready, _, _ = select.select([read], [], [], 120)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    with os.fdopen(read) as pipe:
        reported = pipe.read() if ready else ""
    _, status = os.waitpid(pid, 0)
    assert ready, "the saving child hung"
    if kill_at is None:
        assert os.WIFEXITED(status) and reported
        return int(reported)
    assert os.WIFSIGNALED(status) or reported
    return None


class TestCrashSafeSave:
    def test_failed_array_write_keeps_the_previous_state_loadable(
        self, saved_gallery, small_hcp, monkeypatch
    ):
        gallery, directory = saved_gallery
        before = (directory / "gallery.bin").read_bytes()
        gallery.enroll(small_hcp.generate_session("REST", encoding="RL", day=2)[:1])

        from repro.gallery import reference as reference_module

        def failing_blocks(data):
            yield np.zeros(16, dtype=np.uint8)
            raise OSError("disk full")

        monkeypatch.setattr(reference_module, "_column_blocks", failing_blocks)
        with pytest.raises(OSError, match="disk full"):
            gallery.save(directory)
        monkeypatch.undo()

        assert sorted(path.name for path in directory.iterdir()) == ["gallery.bin"]
        assert (directory / "gallery.bin").read_bytes() == before
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.n_subjects == gallery.n_subjects - 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("old_format", [2, 1])
    def test_a_killed_saver_leaves_the_old_or_the_new_state(
        self, saved_gallery, small_hcp, tmp_path, old_format
    ):
        # Power loss is out of scope (nothing is fsynced); a process death at
        # any step of a save must leave a loadable archive of either state.
        gallery, directory = saved_gallery
        pristine = tmp_path / "pristine"
        if old_format == 1:
            shutil.rmtree(directory)
            _save_format1(gallery, directory)
        shutil.copytree(directory, pristine)
        old = _state(gallery)
        gallery.enroll(small_hcp.generate_session("REST", encoding="RL", day=2)[:1])
        new = _state(gallery)
        assert new != old

        steps = _save_in_child(gallery, directory)
        assert steps >= 2
        assert _state(ReferenceGallery.load(directory, cache=ArtifactCache())) == new
        seen = set()
        for kill_at in range(1, steps + 1):
            shutil.rmtree(directory)
            shutil.copytree(pristine, directory)
            _save_in_child(gallery, directory, kill_at=kill_at)
            state = _state(ReferenceGallery.load(directory, cache=ArtifactCache()))
            assert state in (old, new), f"killed before step {kill_at}"
            seen.add("old" if state == old else "new")
        assert "old" in seen

    def test_registry_ignores_leftover_temp_files(self, saved_gallery, tmp_path):
        # A save killed before its rename leaves only a temp file; the
        # registry recognises a gallery by a published archive alone.
        _, directory = saved_gallery
        stray = tmp_path / "stray"
        stray.mkdir()
        (stray / ".gallery.bin.1.2.tmp").write_bytes(b"partial")
        (stray / ".gallery.npz.1.2.tmp").write_bytes(b"partial")
        (stray / ".gallery.json.1.2.tmp").write_bytes(b"{")
        registry = GalleryRegistry(root=tmp_path, cache=ArtifactCache())
        assert registry.names() == [directory.name]
        assert not ReferenceGallery.is_saved(stray)


#: A gallery saved when archives could also carry a candidate-pruning index:
#: 8 subjects of ``HCPLikeDataset(n_subjects=12, n_regions=32,
#: n_timepoints=80, random_state=7)``, REST LR day 1, ``n_features=24``,
#: with an index of rank 4 (arrays ``index_projection``/``index_sketch``/
#: ``index_residual``, JSON entry ``"index"``).  A format-1 archive.
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

    def test_resaves_in_place_as_format2(self, legacy_indexed):
        loaded = ReferenceGallery.load(legacy_indexed, cache=ArtifactCache())
        loaded.save(legacy_indexed)
        assert sorted(path.name for path in legacy_indexed.iterdir()) == ["gallery.bin"]
        again = ReferenceGallery.load(legacy_indexed, cache=ArtifactCache())
        assert _state(again) == _state(loaded)
        assert again.fingerprint == loaded.fingerprint

    def test_enroll_and_save_write_an_archive_without_the_index(
        self, legacy_indexed, tmp_path
    ):
        cohort = HCPLikeDataset(
            n_subjects=12, n_regions=32, n_timepoints=80, random_state=7
        )
        gallery = ReferenceGallery.load(legacy_indexed, cache=ArtifactCache())
        assert gallery.enroll(cohort.generate_session("REST", encoding="LR", day=1)[8:]) == 4
        directory = gallery.save(tmp_path / "saved")
        document = ReferenceGallery.saved_document(directory)
        assert "index" not in document
        assert not set(_INDEX_ARRAYS) & {entry["name"] for entry in document["arrays"]}
        loaded = ReferenceGallery.load(directory, cache=ArtifactCache())
        assert loaded.n_subjects == 12
        assert loaded.fingerprint == gallery.fingerprint
        assert np.array_equal(loaded.signatures_, gallery.signatures_)
