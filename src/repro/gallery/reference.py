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
  a directory, so a service restart costs a file read, not an SVD.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Sequence, Union

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

#: On-disk layout of a saved gallery.
_ARRAYS_FILE = "gallery.npz"
_META_FILE = "gallery.json"
_FORMAT_VERSION = 1

#: Sentinel for "keep the persisted value" in :meth:`ReferenceGallery.load`.
_UNCHANGED = object()


def _write_replacing(path: Path, write: Callable[[BinaryIO], Any]) -> None:
    """Write ``path`` through a temporary sibling, then rename it into place.

    ``write`` gets an open binary handle rather than a path because
    ``np.savez`` appends ``.npz`` to any path lacking it.  The temporary
    name never matches ``gallery.json``, so registries ignore a leftover.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        self._fingerprint: Optional[str] = None
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
    def _fit(self, reference: GroupMatrix) -> None:
        """Fit the selector and signature matrix of ``reference`` and install both.

        ``rank=None`` exact fits take the certified Gram route; when it
        cannot certify the selection the SVD runs instead and
        ``fit_fallbacks_`` counts it.  Fits whose results cannot be
        content-keyed (randomized SVD driven by a generator object) bypass
        the ``gallery`` cache entirely — a shared key would otherwise serve
        one draw's signatures to another draw's selected indices.
        """
        data = reference.data
        selector = fit_principal_features_cached(
            data,
            n_features=self.n_features,
            rank=self.rank,
            method=self.method,
            random_state=self.random_state,
            cache=self.cache,
        )
        key = self._gallery_key(data)
        if self._cacheable:
            signatures = self.cache.get_or_compute(
                "gallery",
                key,
                lambda: np.ascontiguousarray(data[selector.selected_indices_, :]),
            )
        else:
            signatures = np.ascontiguousarray(data[selector.selected_indices_, :])
        self._install(reference, selector, signatures, key, incremental=None)
        if self.rank is None and self.method == "exact" and selector.scores_bound_ is None:
            self.fit_fallbacks_ += 1

    def _install(
        self,
        reference: GroupMatrix,
        selector: PrincipalFeaturesSubspace,
        signatures: np.ndarray,
        key: str,
        incremental: Optional[IncrementalLeverage],
    ) -> None:
        """Swap in ``reference`` with its newly fitted state, all or nothing.

        ``incremental`` is the state's update basis, if any.
        """
        self.reference = reference
        self.selector_ = selector
        self.signatures_ = signatures
        self._fingerprint = key
        self._incremental = incremental
        self._gram_scores = selector.scores_bound_ is not None
        self.refit_count_ += 1

    @property
    def _cacheable(self) -> bool:
        """Whether this gallery's fit artifacts may be shared through the cache."""
        return cacheable_fit(self.rank, self.method, self.random_state)

    def _gallery_key(self, data: np.ndarray) -> str:
        """Content key of the reduced signature matrix under the ``gallery`` kind."""
        return self.cache.key(
            "gallery",
            data,
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
        squares to the scores (:class:`~repro.linalg.leverage.IncrementalLeverage`;
        the basis is built by the Gram-route kernel at the first enroll
        after a full fit or a load and lives only in memory).  The update is
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
        merged = GroupMatrix(
            data=np.hstack([self.reference.data, addition.data]),
            subject_ids=self.reference.subject_ids + addition.subject_ids,
            tasks=self._merged_labels(self.reference.tasks, addition.tasks),
            sessions=self._merged_labels(self.reference.sessions, addition.sessions),
        )
        if not self._fit_incremental(merged, addition.data):
            self._fit(merged)
        return len(new_scans)

    def _fit_incremental(self, merged: GroupMatrix, added: np.ndarray) -> bool:
        """Certified leverage update for the appended columns ``added``.

        Returns ``False`` (and leaves the fitted state alone) when the full
        fit must run instead.
        """
        if self.rank is not None or self.method != "exact":
            return False
        state = self._incremental
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
        )
        signatures = np.ascontiguousarray(data[order, :])
        self._install(merged, selector, signatures, self._gallery_key(data), incremental=state)
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

        Memoized at fit/load time: serving paths key per-request artifacts
        on the fingerprint, and re-hashing megabytes of reference data per
        request would dominate a warm identify.  Every mutation of the
        fitted state (full fits and incremental enrolls alike) refreshes
        the memo.
        """
        if self._fingerprint is None:
            self._fingerprint = self._gallery_key(self.reference.data)
        return self._fingerprint

    def _integrity_digest(
        self,
        reference: np.ndarray,
        signatures: np.ndarray,
        selected_indices: np.ndarray,
        scores: np.ndarray,
        index_arrays: Optional[Sequence[np.ndarray]] = None,
        incremental_scores: bool = False,
    ) -> str:
        """Digest over *every* persisted array plus the fit parameters.

        This is what :meth:`load` verifies — unlike :attr:`fingerprint` it
        also covers the derived arrays (signatures, indices, scores), so a
        corrupted or tampered archive cannot load silently.  ``index_arrays``
        are the candidate-pruning arrays that older archives carry (see
        :meth:`load`); archives without them or the incremental-scores
        marker hash exactly as before, keeping older archives loadable.
        """
        parts = [reference, signatures, selected_indices, scores]
        if index_arrays is not None:
            parts.extend(index_arrays)
        marker = {"scores": "incremental"} if incremental_scores else {}
        return self.cache.key(
            "gallery-archive",
            *parts,
            n_features=self.n_features,
            rank=-1 if self.rank is None else int(self.rank),
            method=str(self.method),
            seed=self._seed_for_key(),
            **marker,
        )

    def save(self, directory: PathLike) -> Path:
        """Persist the fitted gallery into ``directory`` (created if needed).

        Arrays are stored uncompressed (zlib saves ~4% on float64 at ~20x
        the write cost).  Both files go through a temporary name and a
        rename, arrays first, so an error mid-write leaves the previous
        archive loadable.  Between the two renames the new arrays sit beside
        the old ``gallery.json``, and :meth:`load` rejects that pair through
        the integrity digest.  A later save by a surviving writer heals it.
        If the writer dies between the renames, no process holds the state
        any more and the directory cannot be loaded to save it again: a
        process death can break an archive (a known gap).

        Archives whose leverage scores did not come from the SVD (a Gram-route
        fit or an incremental enroll) carry ``"incremental_scores": true``,
        also covered by the digest.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        arrays = {
            "reference": self.reference.data,
            "signatures": self.signatures_,
            "selected_indices": self.selector_.selected_indices_,
            "leverage_scores": self.selector_.scores_,
        }
        meta = {
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
            "fingerprint": self.fingerprint,
            "integrity": self._integrity_digest(
                self.reference.data,
                self.signatures_,
                self.selector_.selected_indices_,
                self.selector_.scores_,
                incremental_scores=self._gram_scores,
            ),
            "metadata": self.metadata,
        }
        if self._gram_scores:
            meta["incremental_scores"] = True
        _write_replacing(directory / _ARRAYS_FILE, lambda f: np.savez(f, **arrays))
        _write_replacing(
            directory / _META_FILE, lambda f: f.write(json.dumps(meta, indent=2).encode())
        )
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

        The signatures are primed back into ``cache`` (``gallery`` kind), so
        a second gallery over the same cohort starts warm; so are the
        leverage scores of rank-``k`` and seeded randomized archives.
        ``rank=None`` scores are never primed: no fit looks them up.
        ``shard_size`` overrides the persisted value when given.

        Older archives also carry the arrays of a candidate-pruning index
        (named under ``"index"`` in the JSON).  Their digest covers those
        arrays, so they must be present and are checked like the rest;
        they are then discarded, and the next :meth:`save` writes an
        archive without them.
        """
        directory = Path(directory)
        meta_path = directory / _META_FILE
        arrays_path = directory / _ARRAYS_FILE
        if not meta_path.exists() or not arrays_path.exists():
            raise ValidationError(f"no saved gallery found in {directory}")
        meta = json.loads(meta_path.read_text())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValidationError(
                f"unsupported gallery format version {meta.get('format_version')!r}"
            )
        with np.load(arrays_path) as archive:
            reference_data = archive["reference"]
            signatures = archive["signatures"]
            selected_indices = archive["selected_indices"]
            leverage_scores_arr = archive["leverage_scores"]
            index_arrays = None
            if meta.get("index") is not None:
                missing = [
                    name
                    for name in ("index_projection", "index_sketch", "index_residual")
                    if name not in archive.files
                ]
                if missing:
                    raise ValidationError(
                        "saved gallery failed its integrity check "
                        f"(index arrays {missing} are missing from the archive)"
                    )
                index_arrays = (
                    archive["index_projection"],
                    archive["index_sketch"],
                    archive["index_residual"],
                )

        gallery = cls.__new__(cls)
        gallery.n_features = int(meta["n_features"])
        gallery.rank = meta["rank"]
        gallery.fisher = bool(meta["fisher"])
        gallery.method = meta["method"]
        gallery.random_state = meta["seed"]
        gallery.shard_size = (
            meta["shard_size"] if shard_size is _UNCHANGED else shard_size
        )
        gallery.cache = cache if cache is not None else get_default_cache()
        gallery.runner = runner
        gallery.backend = backend
        gallery.metadata = meta.get("metadata") or {}
        gallery.reference = GroupMatrix(
            data=reference_data,
            subject_ids=list(meta["subject_ids"]),
            tasks=list(meta["tasks"]) if meta.get("tasks") is not None else None,
            sessions=list(meta["sessions"]) if meta.get("sessions") is not None else None,
        )
        selector = PrincipalFeaturesSubspace(
            n_features=gallery.n_features,
            rank=gallery.rank,
            method=gallery.method,
            random_state=gallery.random_state,
        )
        selector.scores_ = leverage_scores_arr
        selector.selected_indices_ = selected_indices
        gallery.selector_ = selector
        gallery.signatures_ = signatures
        gallery.refit_count_ = 0
        gallery.incremental_enrolls_ = 0
        gallery.fit_fallbacks_ = 0
        gallery._incremental = None
        gallery._gram_scores = bool(meta.get("incremental_scores", False))
        gallery._fingerprint = None

        integrity = gallery._integrity_digest(
            reference_data, signatures, selected_indices, leverage_scores_arr,
            index_arrays=index_arrays,
            incremental_scores=gallery._gram_scores,
        )
        if meta.get("integrity") != integrity:
            raise ValidationError(
                "saved gallery failed its integrity check "
                "(the archive was modified or saved by incompatible parameters)"
            )
        fingerprint = gallery.fingerprint
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
                    gallery.cache.put("leverage", leverage_key, leverage_scores_arr)
            if gallery.cache.get("gallery", fingerprint) is None:
                gallery.cache.put("gallery", fingerprint, signatures)
        return gallery

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
