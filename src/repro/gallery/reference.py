"""The persistent reference gallery: fit once, identify many times.

The paper's attack is a one-shot fit-and-identify; a production
identification service is the opposite shape — one fixed (but growing)
reference cohort, many probe batches.  :class:`ReferenceGallery` is that
service's core object:

* **Fit once** — the Principal Features Subspace is fitted on the reference
  group matrix through :mod:`repro.gallery.factors`: ``rank=None`` exact
  fits take their leverage scores from the certified Gram route and fall
  back to the SVD; rank-``k`` and randomized fits (and SVD fallbacks) go
  through the content-keyed ``svd`` and ``leverage`` kinds.  The reduced
  signature matrix (``gallery`` kind) is computed once and persists through
  the cache's disk tier.
* **Identify many** — :meth:`identify` builds the probe group matrix through
  the batched runtime (a cache hit for repeated probes) and matches against
  the stored signatures, optionally sharded across an
  :class:`~repro.runtime.runner.ExperimentRunner` pool.
* **Grow** — :meth:`enroll` appends new subjects and updates the leverage
  scores by Gram–Schmidt when the resulting selection is certified equal to
  a full fit's, and re-fits otherwise (see :meth:`enroll`).
* **Persist** — :meth:`save`/:meth:`load` round-trip the fitted state through
  one archive file in a directory, so a service restart costs a file read,
  not an SVD.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import warnings
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attack.matching import MatchResult
from repro.connectome.correlation import vector_index_to_region_pair
from repro.connectome.group import GroupMatrix
from repro.datasets.base import ScanRecord
from repro.exceptions import AttackError, ValidationError
from repro.gallery.factors import (
    _UNSTABLE,
    _stable_seed,
    cacheable_fit,
    fit_principal_features_cached,
    leverage_cache_key,
)
from repro.gallery.matching import match_against_gallery
from repro.linalg.leverage import IncrementalLeverage, PrincipalFeaturesSubspace
from repro.runtime.batch import build_group_matrix_batched
from repro.runtime.cache import ArtifactCache, get_default_cache
from repro.utils.rng import RandomStateLike
from repro.utils.validation import check_positive_int

PathLike = Union[str, Path]

#: A saved gallery is one format-2 archive file: a fixed header (magic,
#: document length, integrity digest), the JSON document, zero padding to a
#: 64-byte boundary, then each array's raw bytes in the order the document
#: lists them.  The reference is stored column-major, so an enroll appends
#: to it and a load maps it without a transposed copy.
_ARCHIVE_FILE = "gallery.bin"
_MAGIC = b"RPGALv2\n"
_HEADER = struct.Struct("<8sQ64s")
_ALIGN = 64
_FORMAT_VERSION = 2
_ARRAY_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
_REQUIRED_ARRAYS = ("reference", "signatures", "selected_indices", "leverage_scores")
#: Format-1 archives (read-only): the arrays in an npz, the document beside it.
_LEGACY_ARRAYS_FILE = "gallery.npz"
_LEGACY_META_FILE = "gallery.json"
#: Column blocks of about this size are transposed at a time when a row-major
#: reference is hashed or written column-major.
_BLOCK_BYTES = 1 << 20

#: Sentinel for "keep the persisted value" in :meth:`ReferenceGallery.load`.
_UNCHANGED = object()


def _write_replacing(path: Path, write: Callable[[BinaryIO], Any]) -> None:
    """Write ``path`` through a temporary sibling, then rename it into place.

    The temporary name never matches an archive name, so discovery ignores
    a leftover.  Nothing is fsynced: a crash of the writing process leaves
    the old file or the new one, while a power loss is out of scope.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _raw(array: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array, as a flat ``uint8`` view."""
    return array.reshape(-1).view(np.uint8)


def _column_blocks(data: np.ndarray) -> Iterable[np.ndarray]:
    """The column-major bytes of ``data`` as contiguous ``uint8`` blocks.

    A column-major matrix is one block with no copy; any other layout is
    transposed a block of columns at a time, never as a whole.
    """
    if data.flags.f_contiguous:
        return [_raw(data.T)]
    step = max(1, _BLOCK_BYTES // max(1, data.shape[0] * data.itemsize))
    return (
        _raw(np.ascontiguousarray(data[:, start:start + step].T))
        for start in range(0, data.shape[1], step)
    )


def _extend(digest: "hashlib._Hash", data: np.ndarray) -> "hashlib._Hash":
    """Feed the column-major bytes of ``data`` into ``digest``; returns it."""
    for block in _column_blocks(data):
        digest.update(block)
    return digest


def _integrity_failure(reason: str) -> ValidationError:
    return ValidationError(f"saved gallery failed its integrity check ({reason})")


def _archive_integrity(cache: ArtifactCache, digests: List[bytes], document: bytes) -> str:
    """The format-2 integrity digest: one hash over the array digests and the document."""
    return cache.key("gallery-archive", digests, document)


def _read_archive(directory: Path, cache: ArtifactCache):
    """Read and verify a format-2 archive: ``(document, arrays, reference digest)``.

    The file is read with one ``readinto`` and each array region is hashed
    once; the reference is returned as a column-major view of the file
    buffer, and the small arrays as copies, so a cached signature matrix
    never pins the buffer.
    """
    with open(directory / _ARCHIVE_FILE, "rb") as handle:
        buffer = np.empty(os.fstat(handle.fileno()).st_size, dtype=np.uint8)
        size = handle.readinto(buffer)
    view = memoryview(buffer)[:size]
    if size < _HEADER.size:
        raise _integrity_failure("the file is shorter than its header")
    magic, length, integrity = _HEADER.unpack_from(view)
    if magic != _MAGIC:
        raise _integrity_failure("not a format-2 gallery archive")
    end = _HEADER.size + length
    offset = end + (-end % _ALIGN)
    if offset > size or any(view[end:offset]):
        raise _integrity_failure("truncated document or damaged padding")
    document_bytes = bytes(view[_HEADER.size:end])
    layout = []
    try:
        document = json.loads(document_bytes)
        for entry in document["arrays"]:
            dtype = _ARRAY_DTYPES[entry["dtype"]]
            shape = tuple(int(extent) for extent in entry["shape"])
            if min(shape, default=0) < 0 or entry["order"] not in ("C", "F"):
                raise ValueError(f"bad layout of {entry['name']!r}")
            count = int(np.prod(shape))
            layout.append((entry["name"], dtype, shape, entry["order"], offset, count))
            offset += count * dtype.itemsize
    except (ValueError, KeyError, TypeError) as exc:
        raise _integrity_failure(f"unreadable document: {exc}") from None
    if offset != size:
        raise _integrity_failure(f"{size} bytes where the document describes {offset}")
    hashes = {
        name: hashlib.sha256(view[start:start + count * dtype.itemsize])
        for name, dtype, _, _, start, count in layout
    }
    digests = [digest.digest() for digest in hashes.values()]
    if _archive_integrity(cache, digests, document_bytes) != integrity.decode("ascii", "replace"):
        raise _integrity_failure(
            "the archive was modified or saved by incompatible parameters"
        )
    if document.get("format_version") != _FORMAT_VERSION:
        raise ValidationError(
            f"unsupported gallery format version {document.get('format_version')!r}"
        )
    missing = [name for name in _REQUIRED_ARRAYS if name not in hashes]
    if missing:
        raise _integrity_failure(f"arrays {missing} are missing from the archive")
    arrays = {}
    for name, dtype, shape, order, start, count in layout:
        array = np.frombuffer(buffer, dtype=dtype, count=count, offset=start)
        array = array.reshape(shape, order=order)
        arrays[name] = array if name == "reference" else array.copy()
    return document, arrays, hashes["reference"]


def _read_format1(directory: Path, cache: ArtifactCache):
    """Read and verify a format-1 archive: ``(document, arrays, reference digest)``.

    Its digest covers the arrays and the fit parameters but not the subject
    labels; those stay unverified until the gallery is saved again, in
    format 2.  Archives from when a candidate-pruning index existed also
    carry its arrays (named under ``"index"`` in the JSON): the digest
    covers them, so they must be present and are checked like the rest,
    then discarded.
    """
    meta = json.loads((directory / _LEGACY_META_FILE).read_text())
    if meta.get("format_version") != 1:
        raise ValidationError(
            f"unsupported gallery format version {meta.get('format_version')!r}"
        )
    index_names = ("index_projection", "index_sketch", "index_residual")
    with np.load(directory / _LEGACY_ARRAYS_FILE) as archive:
        arrays = {name: archive[name] for name in _REQUIRED_ARRAYS}
        index_arrays = []
        if meta.get("index") is not None:
            missing = [name for name in index_names if name not in archive.files]
            if missing:
                raise _integrity_failure(
                    f"index arrays {missing} are missing from the archive"
                )
            index_arrays = [archive[name] for name in index_names]
    marker = {"scores": "incremental"} if meta.get("incremental_scores") else {}
    integrity = cache.key(
        "gallery-archive",
        *(arrays[name] for name in _REQUIRED_ARRAYS),
        *index_arrays,
        n_features=int(meta["n_features"]),
        rank=-1 if meta["rank"] is None else int(meta["rank"]),
        method=str(meta["method"]),
        seed=-1 if meta["seed"] is None else int(meta["seed"]),
        **marker,
    )
    if meta.get("integrity") != integrity:
        raise _integrity_failure(
            "the archive was modified or saved by incompatible parameters"
        )
    return meta, arrays, _extend(hashlib.sha256(), arrays["reference"])


class ReferenceGallery:
    """A fitted, persistent, incrementally growable identification gallery.

    Parameters
    ----------
    reference:
        De-anonymized reference :class:`~repro.connectome.group.GroupMatrix`
        (columns are enrolled subjects).
    n_features:
        Number of leverage-selected signature features.
    rank:
        Rank for the leverage scores (``None`` = full column space).
    fisher:
        Fisher-transform connectome features when building group matrices
        from scans (:meth:`identify`/:meth:`enroll`); must match how
        ``reference`` was built.
    method:
        ``"exact"`` or ``"randomized"`` SVD backend for the fit.
    random_state:
        Seed for the randomized backend.
    shard_size:
        Gallery columns per matching shard (``None`` = single block).
    cache:
        Artifact cache backing the fit; defaults to the process-wide cache.
        Give it a ``cache_dir`` to persist factors across processes.
    runner:
        Optional :class:`~repro.runtime.runner.ExperimentRunner` used to
        compute matching shards through a worker pool.
    backend:
        Matching-backend name for :meth:`identify` (``None`` = the bit-exact
        ``numpy64`` default; see :mod:`repro.runtime.backend`).  A runtime
        deployment knob like ``runner`` — it is not persisted by
        :meth:`save`.
    metadata:
        Free-form JSON-serializable dict persisted alongside the gallery
        (the CLI stores its dataset recipe here).

    Attributes
    ----------
    selector_:
        The fitted :class:`~repro.linalg.leverage.PrincipalFeaturesSubspace`.
    signatures_:
        ``(n_features, n_subjects)`` reduced reference matrix (the gallery).
    refit_count_:
        How many times the fitted state changed for this object: full fits
        and incremental enrolls alike (enrollments that change nothing do
        not bump it).
    incremental_enrolls_ / fit_fallbacks_:
        Enrolls served by the certified incremental update, and ``rank=None``
        exact fits that ran the SVD because the Gram route could not
        certify their selection.
    """

    def __init__(
        self,
        reference: GroupMatrix,
        n_features: int = 100,
        rank: Optional[int] = None,
        fisher: bool = False,
        method: str = "exact",
        random_state: RandomStateLike = None,
        shard_size: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        runner=None,
        backend: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        check_positive_int(n_features, name="n_features")
        if n_features > reference.n_features:
            raise AttackError(
                f"n_features ({n_features}) exceeds the connectome feature count "
                f"({reference.n_features})"
            )
        self.n_features = int(n_features)
        self.rank = rank
        self.fisher = bool(fisher)
        self.method = method
        self.random_state = random_state
        self.shard_size = shard_size
        self.cache = cache if cache is not None else get_default_cache()
        if runner is not None:
            warnings.warn(
                "passing runner= to ReferenceGallery is deprecated; worker-pool "
                "wiring is owned by the serving layer — use "
                "repro.service.ServiceConfig(max_workers=...) with a "
                "GalleryRegistry/IdentificationService (or assign "
                "gallery.runner after construction)",
                DeprecationWarning,
                stacklevel=2,
            )
        self.runner = runner
        self.backend = backend
        self.metadata: Dict[str, Any] = dict(metadata) if metadata else {}
        self.refit_count_ = 0
        self.incremental_enrolls_ = 0
        self.fit_fallbacks_ = 0
        self._incremental: Optional[IncrementalLeverage] = None
        self.selector_: Optional[PrincipalFeaturesSubspace] = None
        self.signatures_: Optional[np.ndarray] = None
        self._fit(reference)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scans(
        cls,
        scans: Sequence[ScanRecord],
        n_features: int = 100,
        rank: Optional[int] = None,
        fisher: bool = False,
        method: str = "exact",
        random_state: RandomStateLike = None,
        shard_size: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        runner=None,
        backend: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "ReferenceGallery":
        """Build and fit a gallery from reference scans.

        The group matrix goes through the batched runtime path (one GEMM for
        the whole session, memoized under the ``group_matrix`` kind).
        """
        scans = list(scans)
        if not scans:
            raise AttackError("cannot build a gallery from zero scans")
        cache = cache if cache is not None else get_default_cache()
        reference = build_group_matrix_batched(scans, fisher=fisher, cache=cache)
        return cls(
            reference,
            n_features=n_features,
            rank=rank,
            fisher=fisher,
            method=method,
            random_state=random_state,
            shard_size=shard_size,
            cache=cache,
            runner=runner,
            backend=backend,
            metadata=metadata,
        )

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _fit(self, reference: GroupMatrix, digest: Optional["hashlib._Hash"] = None) -> None:
        """Fit the selector and signature matrix of ``reference`` and install both.

        ``rank=None`` exact fits take the certified Gram route; when it
        cannot certify the selection the SVD runs instead and
        ``fit_fallbacks_`` counts it.  Fits whose results cannot be
        content-keyed (randomized SVD driven by a generator object) bypass
        the ``gallery`` cache entirely — a shared key would otherwise serve
        one draw's signatures to another draw's selected indices.
        ``digest`` is the reference digest when the caller already has it.
        """
        data = reference.data
        if digest is None:
            digest = _extend(hashlib.sha256(), data)
        selector = fit_principal_features_cached(
            data,
            n_features=self.n_features,
            rank=self.rank,
            method=self.method,
            random_state=self.random_state,
            cache=self.cache,
        )
        key = self._gallery_key(digest, data.shape)
        if self._cacheable:
            signatures = self.cache.get_or_compute(
                "gallery",
                key,
                lambda: np.ascontiguousarray(data[selector.selected_indices_, :]),
            )
        else:
            signatures = np.ascontiguousarray(data[selector.selected_indices_, :])
        self._install(reference, selector, signatures, digest, key, incremental=None)
        if self.rank is None and self.method == "exact" and selector.scores_bound_ is None:
            self.fit_fallbacks_ += 1

    def _install(
        self,
        reference: GroupMatrix,
        selector: PrincipalFeaturesSubspace,
        signatures: np.ndarray,
        digest: "hashlib._Hash",
        key: str,
        incremental: Optional[IncrementalLeverage],
    ) -> None:
        """Swap in ``reference`` with its newly fitted state, all or nothing.

        ``digest`` is the reference digest and ``key`` the fingerprint
        derived from it; ``incremental`` is the state's update basis, if any.
        """
        self.reference = reference
        self.selector_ = selector
        self.signatures_ = signatures
        self._reference_digest = digest
        self._fingerprint = key
        self._incremental = incremental
        self._gram_scores = selector.scores_bound_ is not None
        self.refit_count_ += 1

    @property
    def _cacheable(self) -> bool:
        """Whether this gallery's fit artifacts may be shared through the cache."""
        return cacheable_fit(self.rank, self.method, self.random_state)

    def _gallery_key(self, digest: "hashlib._Hash", shape: Tuple[int, int]) -> str:
        """Content key of the reduced signature matrix under the ``gallery`` kind.

        ``digest`` is the reference digest: a streaming SHA-256 over the
        reference's column-major bytes, so an enroll extends it by the added
        columns alone and it stays a pure function of content.
        """
        return self.cache.key(
            "gallery",
            digest.digest(),
            shape=[int(extent) for extent in shape],
            n_features=self.n_features,
            rank=-1 if self.rank is None else int(self.rank),
            method=str(self.method),
            seed=self._seed_for_key(),
        )

    def _seed_for_key(self) -> int:
        seed = _stable_seed(self.random_state)
        if seed is None or seed is _UNSTABLE:
            return -1
        return int(seed)

    # ------------------------------------------------------------------ #
    # Identification
    # ------------------------------------------------------------------ #
    def identify(self, probe_scans: Sequence[ScanRecord]) -> MatchResult:
        """Identify a batch of anonymous probe scans against the gallery.

        The probe group matrix is built through the batched runtime and the
        artifact cache, so identifying the same probes again skips the
        connectome construction entirely.
        """
        probe_scans = list(probe_scans)
        if not probe_scans:
            raise AttackError("cannot identify zero probe scans")
        probe = build_group_matrix_batched(
            probe_scans, fisher=self.fisher, cache=self.cache
        )
        return self.identify_group(probe)

    def identify_group(self, probe: GroupMatrix) -> MatchResult:
        """Identify a pre-built probe group matrix against the gallery."""
        if probe.n_features != self.reference.n_features:
            raise AttackError(
                "probe and gallery must share the connectome feature space, "
                f"got {probe.n_features} and {self.reference.n_features} features"
            )
        reduced_probe = probe.data[self.selector_.selected_indices_, :]
        return match_against_gallery(
            self.signatures_,
            reduced_probe,
            reference_subject_ids=self.reference.subject_ids,
            target_subject_ids=probe.subject_ids,
            shard_size=self.shard_size,
            runner=self.runner,
            backend=self.backend,
        )

    # ------------------------------------------------------------------ #
    # Incremental enrollment
    # ------------------------------------------------------------------ #
    def enroll(self, scans: Sequence[ScanRecord]) -> int:
        """Append new subjects to the gallery; returns how many were added.

        Scans whose ``(subject_id, task, session)`` identity is already
        enrolled are skipped, so re-submitting a session is a no-op.  Any real
        append changes the reference content and therefore the fitted state.

        For ``rank=None`` exact fits the leverage scores are updated instead
        of refitted: each new column's orthonormalized residual adds its
        squares to the scores (:class:`~repro.linalg.leverage.IncrementalLeverage`).
        The basis lives only in memory: the first enroll after a full fit or
        a load rebuilds it from the fit's inverse factor (persisted by
        :meth:`save`) with one product, and from scratch by the Gram-route
        kernel when there is no factor or it does not certify.  The update is
        kept only when the top ``n_features + 1`` scores are certified to be
        in the same order as a full fit's, so the selection, signatures,
        fingerprint and identify output equal a full fit's bit for bit; the
        scores themselves may differ from the SVD's in the low bits, within
        the recorded bound.  A dependent column, a failed basis or an
        uncertain order runs the full fit (the Gram route first, then the
        SVD).  Rank-``k`` and randomized galleries always run the full fit.

        The enroll is atomic: the grown reference is installed together with
        its fitted state, so a fit that raises leaves the gallery exactly as
        it was, and the same scans can be enrolled again.
        """
        scans = list(scans)
        enrolled = set(self._scan_keys())
        new_scans = [
            scan
            for scan in scans
            if (scan.subject_id, scan.task or "", scan.session or "") not in enrolled
        ]
        if not new_scans:
            return 0
        addition = build_group_matrix_batched(
            new_scans, fisher=self.fisher, cache=self.cache
        )
        if addition.n_features != self.reference.n_features:
            raise AttackError(
                "enrolled scans must share the gallery's connectome feature space, "
                f"got {addition.n_features} and {self.reference.n_features} features"
            )
        width = self.reference.n_scans
        data = np.empty((addition.n_features, width + addition.n_scans), order="F")
        data[:, :width] = self.reference.data
        data[:, width:] = addition.data
        merged = GroupMatrix(
            data=data,
            subject_ids=self.reference.subject_ids + addition.subject_ids,
            tasks=self._merged_labels(self.reference.tasks, addition.tasks),
            sessions=self._merged_labels(self.reference.sessions, addition.sessions),
        )
        digest = _extend(self._reference_digest.copy(), addition.data)
        if not self._fit_incremental(merged, addition.data, digest):
            self._fit(merged, digest)
        return len(new_scans)

    def _fit_incremental(
        self, merged: GroupMatrix, added: np.ndarray, digest: "hashlib._Hash"
    ) -> bool:
        """Certified leverage update for the appended columns ``added``.

        Returns ``False`` (and leaves the fitted state alone) when the full
        fit must run instead.
        """
        if self.rank is not None or self.method != "exact":
            return False
        state, factor = self._incremental, self.selector_.factor_
        if state is None and factor is not None:
            state = IncrementalLeverage.fit(self.reference.data, factor=factor)
        if state is None:
            state = IncrementalLeverage.fit(self.reference.data)
        if state is not None:
            state = state.append(added)
        order = None if state is None else state.certified_order(self.n_features)
        if order is None:
            return False
        data = merged.data
        selector = PrincipalFeaturesSubspace(
            n_features=self.n_features,
            rank=self.rank,
            method=self.method,
            random_state=self.random_state,
            scores_=state.scores,
            selected_indices_=order,
            scores_bound_=state.bound,
            factor_=state.factor,
        )
        signatures = np.ascontiguousarray(data[order, :])
        key = self._gallery_key(digest, data.shape)
        self._install(merged, selector, signatures, digest, key, incremental=state)
        self.incremental_enrolls_ += 1
        return True

    def _scan_keys(self) -> List[tuple]:
        tasks = self.reference.tasks or [""] * self.reference.n_scans
        sessions = self.reference.sessions or [""] * self.reference.n_scans
        return list(zip(self.reference.subject_ids, tasks, sessions))

    @staticmethod
    def _merged_labels(
        existing: Optional[List[str]], added: Optional[List[str]]
    ) -> Optional[List[str]]:
        if existing is None and added is None:
            return None
        existing = existing if existing is not None else []
        added = added if added is not None else []
        return list(existing) + list(added)

    # ------------------------------------------------------------------ #
    # Signature introspection
    # ------------------------------------------------------------------ #
    def signature_region_pairs(self, n_regions: int, top: Optional[int] = None) -> list:
        """Region pairs carrying the gallery's signature (most important first)."""
        indices = self.selector_.selected_indices_
        if top is not None:
            indices = indices[:top]
        return [vector_index_to_region_pair(int(i), n_regions) for i in indices]

    def as_attack(self):
        """A fitted :class:`~repro.attack.deanonymize.LeverageScoreAttack` view.

        Lets code written against the attack object (signature introspection,
        reference-override identify) reuse the gallery's fitted state without
        re-fitting.
        """
        from repro.attack.deanonymize import LeverageScoreAttack

        attack = LeverageScoreAttack(
            n_features=self.n_features,
            rank=self.rank,
            method=self.method,
            random_state=self.random_state,
        )
        attack.selector_ = self.selector_
        attack.selected_features_ = self.selector_.selected_indices_
        attack._reference = self.reference
        return attack

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Content hash of the fitted gallery (reference data + fit params).

        Derived from the reference digest at fit, load and enroll time:
        serving paths key per-request artifacts on the fingerprint, and
        re-hashing megabytes of reference data per request would dominate a
        warm identify.
        """
        return self._fingerprint

    def save(self, directory: PathLike) -> Path:
        """Persist the fitted gallery into ``directory`` (created if needed).

        The gallery becomes one format-2 archive, written to a temporary name
        and renamed into place: a process that dies at any point of a save
        leaves the previous archive or the new one, never a mix (no fsync,
        so a power loss is out of scope).  A format-1 archive in the same
        directory is removed once the new one is in place.

        The integrity digest is one hash over each array's digest and the
        whole JSON document, so fit parameters and subject labels are
        covered too.  The reference's digest is kept current by fits, loads
        and enrolls, so a save hashes only the small arrays.  The enroll
        basis's inverse factor is saved when the scores came from the Gram
        route, so the first enroll after a load rebuilds the basis with one
        product.  Archives whose leverage scores did not come from the SVD
        (a Gram-route fit or an incremental enroll) carry
        ``"incremental_scores": true``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        reference = self.reference.data
        small = {
            "signatures": np.ascontiguousarray(self.signatures_, dtype="<f8"),
            "selected_indices": np.ascontiguousarray(
                self.selector_.selected_indices_, dtype="<i8"
            ),
            "leverage_scores": np.ascontiguousarray(self.selector_.scores_, dtype="<f8"),
        }
        if self.selector_.factor_ is not None:
            small["factor"] = np.ascontiguousarray(self.selector_.factor_, dtype="<f8")
        entries = [
            {"name": "reference", "dtype": "<f8", "shape": list(reference.shape), "order": "F"}
        ]
        entries += [
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape), "order": "C"}
            for name, array in small.items()
        ]
        document = {
            "format_version": _FORMAT_VERSION,
            "n_features": self.n_features,
            "rank": self.rank,
            "fisher": self.fisher,
            "method": self.method,
            "seed": None if self._seed_for_key() == -1 else self._seed_for_key(),
            "shard_size": self.shard_size,
            "subject_ids": self.reference.subject_ids,
            "tasks": self.reference.tasks,
            "sessions": self.reference.sessions,
            "metadata": self.metadata,
            "arrays": entries,
        }
        if self._gram_scores:
            document["incremental_scores"] = True
        document_bytes = json.dumps(document).encode()
        digests = [self._reference_digest.digest()]
        digests += [hashlib.sha256(_raw(array)).digest() for array in small.values()]
        integrity = _archive_integrity(self.cache, digests, document_bytes)
        header = _HEADER.pack(_MAGIC, len(document_bytes), integrity.encode("ascii"))
        padding = bytes(-(len(header) + len(document_bytes)) % _ALIGN)

        def write(handle: BinaryIO) -> None:
            handle.write(header + document_bytes + padding)
            for block in _column_blocks(reference):
                handle.write(block)
            for array in small.values():
                handle.write(_raw(array))

        _write_replacing(directory / _ARCHIVE_FILE, write)
        for name in (_LEGACY_META_FILE, _LEGACY_ARRAYS_FILE):
            (directory / name).unlink(missing_ok=True)
        return directory

    @classmethod
    def load(
        cls,
        directory: PathLike,
        cache: Optional[ArtifactCache] = None,
        runner=None,
        backend: Optional[str] = None,
        shard_size: Any = _UNCHANGED,
    ) -> "ReferenceGallery":
        """Load a saved gallery without re-fitting anything.

        A format-2 archive is read with one ``readinto`` and each array
        region is hashed once, the reference included; its digest then
        yields the fingerprint without another pass.  The reference stays a
        column-major view of the file buffer; the small arrays are copied
        out of it.  Format-1 archives (``gallery.npz`` + ``gallery.json``)
        still load and verify under their own digest, which does not cover
        the subject labels; the next :meth:`save` writes format 2.

        The signatures are primed back into ``cache`` (``gallery`` kind), so
        a second gallery over the same cohort starts warm; so are the
        leverage scores of rank-``k`` and seeded randomized archives.
        ``rank=None`` scores are never primed: no fit looks them up.
        ``shard_size`` overrides the persisted value when given.  A saved
        enroll factor whose shape does not match the reference fails the
        load.
        """
        directory = Path(directory)
        cache = cache if cache is not None else get_default_cache()
        # The second format-2 attempt covers a save that replaced a format-1
        # archive between the first two reads.
        for read in (_read_archive, _read_format1, _read_archive):
            try:
                meta, arrays, digest = read(directory, cache)
                break
            except FileNotFoundError:
                continue
        else:
            raise ValidationError(f"no saved gallery found in {directory}")

        gallery = cls.__new__(cls)
        gallery.n_features = int(meta["n_features"])
        gallery.rank = meta["rank"]
        gallery.fisher = bool(meta["fisher"])
        gallery.method = meta["method"]
        gallery.random_state = meta["seed"]
        gallery.shard_size = (
            meta["shard_size"] if shard_size is _UNCHANGED else shard_size
        )
        gallery.cache = cache
        gallery.runner = runner
        gallery.backend = backend
        gallery.metadata = meta.get("metadata") or {}
        reference_data = arrays["reference"]
        gallery.reference = GroupMatrix(
            data=reference_data,
            subject_ids=list(meta["subject_ids"]),
            tasks=list(meta["tasks"]) if meta.get("tasks") is not None else None,
            sessions=list(meta["sessions"]) if meta.get("sessions") is not None else None,
        )
        factor = arrays.get("factor")
        width = gallery.reference.n_scans
        if factor is not None and factor.shape != (width, width):
            raise ValidationError(
                f"saved gallery's enroll factor has shape {factor.shape}, "
                f"expected {(width, width)} for {width} subjects"
            )
        gallery.selector_ = PrincipalFeaturesSubspace(
            n_features=gallery.n_features,
            rank=gallery.rank,
            method=gallery.method,
            random_state=gallery.random_state,
            scores_=arrays["leverage_scores"],
            selected_indices_=arrays["selected_indices"],
            factor_=factor,
        )
        gallery.signatures_ = arrays["signatures"]
        gallery.refit_count_ = 0
        gallery.incremental_enrolls_ = 0
        gallery.fit_fallbacks_ = 0
        gallery._incremental = None
        gallery._gram_scores = bool(meta.get("incremental_scores", False))
        gallery._reference_digest = digest
        gallery._fingerprint = fingerprint = gallery._gallery_key(digest, reference_data.shape)
        # Prime the cache so post-load enrollment and sibling galleries start
        # warm instead of refactorizing.  Uncacheable fits (randomized SVD
        # without an integer seed) must not be primed: their keys cannot
        # distinguish one draw from another.
        if gallery._cacheable:
            if gallery.rank is not None:
                leverage_key = leverage_cache_key(
                    gallery.cache, reference_data, rank=gallery.rank,
                    method=gallery.method, random_state=gallery.random_state,
                )
                if gallery.cache.get("leverage", leverage_key) is None:
                    gallery.cache.put("leverage", leverage_key, gallery.selector_.scores_)
            if gallery.cache.get("gallery", fingerprint) is None:
                gallery.cache.put("gallery", fingerprint, gallery.signatures_)
        return gallery

    @staticmethod
    def is_saved(directory: PathLike) -> bool:
        """Whether ``directory`` holds a saved gallery, in either format.

        Only a published archive counts: the temporary file of an
        interrupted save never does.
        """
        directory = Path(directory)
        return (directory / _ARCHIVE_FILE).exists() or (directory / _LEGACY_META_FILE).exists()

    @staticmethod
    def saved_document(directory: PathLike) -> Dict[str, Any]:
        """The JSON document of the gallery saved in ``directory``, unverified.

        Reads the header and the document only: fit parameters, subject
        labels and the free-form ``metadata``.  No array is read and no
        digest is checked, so use :meth:`load` for anything that matters.
        """
        directory = Path(directory)
        try:
            with open(directory / _ARCHIVE_FILE, "rb") as handle:
                magic, length, _ = _HEADER.unpack(handle.read(_HEADER.size))
                if magic != _MAGIC:
                    raise _integrity_failure("not a format-2 gallery archive")
                return json.loads(handle.read(length))
        except FileNotFoundError:
            pass
        except (struct.error, ValueError) as exc:
            raise _integrity_failure(f"unreadable document: {exc}") from None
        try:
            return json.loads((directory / _LEGACY_META_FILE).read_text())
        except FileNotFoundError:
            raise ValidationError(f"no saved gallery found in {directory}") from None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_subjects(self) -> int:
        """Number of enrolled subjects (gallery columns)."""
        return self.reference.n_scans

    def info(self) -> Dict[str, Any]:
        """Gallery state plus the cache statistics of the kinds it owns."""
        return {
            "n_subjects": self.n_subjects,
            "n_features_total": self.reference.n_features,
            "n_features_selected": self.n_features,
            "rank": self.rank,
            "method": self.method,
            "fisher": self.fisher,
            "shard_size": self.shard_size,
            "backend": self.backend,
            "refit_count": self.refit_count_,
            "incremental_enrolls": self.incremental_enrolls_,
            "fit_fallbacks": self.fit_fallbacks_,
            "fingerprint": self.fingerprint,
            "cache": {
                kind: self.cache.stats(kind).as_dict()
                for kind in ("gallery", "leverage", "svd", "group_matrix")
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReferenceGallery(subjects={self.n_subjects}, "
            f"features={self.n_features}/{self.reference.n_features}, "
            f"method={self.method!r}, shard_size={self.shard_size})"
        )
