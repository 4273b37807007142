"""Named gallery management for the identification service.

A deployment typically serves more than one reference cohort — one gallery
per site, study, or consent tier.  :class:`GalleryRegistry` owns that set:
named :class:`~repro.gallery.reference.ReferenceGallery` instances that can
be built from scans, enrolled into, evicted from memory, persisted to a root
directory (via the gallery's own ``save``/``load``), and lazily reloaded on
first use after a restart.  All galleries share the registry's artifact
cache, (optional) shard-matching runner pool, and matching backend.

Residency is bounded for many-gallery deployments: ``max_galleries`` caps
how many galleries stay resident (least-recently-used persisted galleries
are evicted first) and ``ttl_seconds`` expires persisted galleries that have
been idle longer than the TTL.  Eviction only ever drops galleries whose
*current* state is on disk — a memory-only gallery, or one that has been
enrolled into (or had its metadata mutated) since it was last persisted,
is never auto-evicted, since dropping it would lose data rather than free
it.  (Dirtiness is tracked by a state token — fingerprint plus metadata
snapshot — recorded at :meth:`persist`/lazy load; a gallery is evictable
only while its live token still matches.)
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.datasets.base import ScanRecord
from repro.exceptions import ValidationError
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service.config import ServiceConfig

PathLike = Union[str, Path]

def _check_name(name: Any) -> str:
    """Reject names that are empty or would escape the registry root."""
    if not isinstance(name, str) or not name:
        raise ValidationError("gallery name must be a non-empty string")
    if name in (".", "..") or "/" in name or "\\" in name:
        raise ValidationError(
            f"gallery name {name!r} must not contain path separators"
        )
    return name


class GalleryRegistry:
    """A named, persistable collection of reference galleries.

    Parameters
    ----------
    root:
        Optional directory holding one subdirectory per persisted gallery.
        Without it the registry is memory-only (``persist`` then needs an
        explicit directory).
    config:
        :class:`~repro.service.config.ServiceConfig` providing the fit
        parameters for :meth:`build` and the cache/runner wiring.
    cache / runner:
        Explicit overrides for the artifact cache and the shard-matching
        worker pool; default to what ``config`` builds.
    max_galleries / ttl_seconds:
        Residency bounds (default to the config's ``max_galleries`` /
        ``gallery_ttl_s``).  ``None`` disables the respective bound.  Only
        galleries persisted under ``root`` are auto-evicted; they lazily
        reload on next use exactly as a manual :meth:`evict` would.
    clock:
        Monotonic time source for the TTL (injectable for tests).
    """

    def __init__(
        self,
        root: Optional[PathLike] = None,
        config: Optional[ServiceConfig] = None,
        cache: Optional[ArtifactCache] = None,
        runner=None,
        max_galleries: Optional[int] = None,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.cache = cache if cache is not None else self.config.build_cache()
        self.runner = runner if runner is not None else self.config.build_runner(self.cache)
        self.backend = self.config.resolved_backend()
        self.root = Path(root) if root is not None else None
        self.max_galleries = (
            max_galleries if max_galleries is not None else self.config.max_galleries
        )
        self.ttl_seconds = (
            ttl_seconds if ttl_seconds is not None else self.config.gallery_ttl_s
        )
        if self.max_galleries is not None and int(self.max_galleries) < 1:
            raise ValidationError(
                f"max_galleries must be >= 1 or None, got {self.max_galleries}"
            )
        if self.ttl_seconds is not None and float(self.ttl_seconds) <= 0:
            raise ValidationError(
                f"ttl_seconds must be > 0 or None, got {self.ttl_seconds}"
            )
        self.clock = clock
        self._galleries: Dict[str, ReferenceGallery] = {}
        self._last_used: Dict[str, float] = {}
        #: name -> state token (fingerprint + metadata snapshot) of what was
        #: last written to / read from disk; auto-eviction requires the live
        #: token to match it.
        self._persisted_state: Dict[str, Any] = {}
        #: name -> matching backend the gallery was registered with, so an
        #: eviction + lazy reload restores the same backend (results for a
        #: name must not depend on eviction timing).
        self._backend_overrides: Dict[str, str] = {}
        self._auto_evictions = 0
        self._lock = threading.RLock()
        self._close_lock = threading.Lock()

    @staticmethod
    def _state_token(gallery: ReferenceGallery) -> Any:
        """What must be on disk for eviction to be loss-free.

        The fingerprint covers reference data + fit parameters; the
        metadata snapshot covers the free-form dict callers may mutate in
        place (``save`` persists it, so an un-persisted edit is data too).
        """
        try:
            metadata = json.dumps(gallery.metadata, sort_keys=True, default=repr)
        except (TypeError, ValueError):  # pragma: no cover - exotic metadata
            metadata = repr(gallery.metadata)
        return (gallery.fingerprint, metadata)

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Sorted names of every known gallery (in memory or on disk)."""
        with self._lock:
            known = set(self._galleries)
        if self.root is not None and self.root.exists():
            for path in self.root.iterdir():
                if path.is_dir() and ReferenceGallery.is_saved(path):
                    known.add(path.name)
        return sorted(known)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            if name in self._galleries:
                return True
        return self._directory_for(name) is not None

    def __len__(self) -> int:
        return len(self.names())

    def _directory_for(self, name: str) -> Optional[Path]:
        """The persisted directory of ``name``, or ``None`` if not on disk."""
        if self.root is None:
            return None
        directory = self.root / name
        if ReferenceGallery.is_saved(directory):
            return directory
        return None

    # ------------------------------------------------------------------ #
    # Construction / registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, gallery: ReferenceGallery) -> ReferenceGallery:
        """Adopt an already-fitted gallery under ``name``.

        The registry's runner pool and matching backend are attached when
        the gallery has none, so service-side sharded matching works without
        re-wiring the gallery.
        """
        name = _check_name(name)
        if gallery.runner is None:
            gallery.runner = self.runner
        if gallery.backend is None:
            gallery.backend = self.backend
        with self._lock:
            self._galleries[name] = gallery
            self._backend_overrides[name] = gallery.backend
            self._touch_locked(name)
            self._enforce_residency_locked(protect=name)
        return gallery

    def build(
        self,
        name: str,
        scans: Sequence[ScanRecord],
        metadata: Optional[Dict[str, Any]] = None,
        **overrides: Any,
    ) -> ReferenceGallery:
        """Fit a new gallery from reference scans under the registry's config.

        ``overrides`` replace individual
        :meth:`~repro.service.config.ServiceConfig.gallery_kwargs` entries
        (e.g. ``n_features=50``).
        """
        name = _check_name(name)
        if name in self:
            raise ValidationError(
                f"gallery {name!r} already exists; use enroll() to grow it "
                "or evict() it first"
            )
        kwargs = self.config.gallery_kwargs()
        kwargs.update(overrides)
        gallery = ReferenceGallery.from_scans(
            scans, cache=self.cache, metadata=metadata, **kwargs
        )
        return self.register(name, gallery)

    def get(self, name: str) -> ReferenceGallery:
        """The named gallery, lazily loaded from the root directory if needed.

        Every access refreshes the gallery's idle clock; stale or excess
        residents are evicted on the way (the requested gallery itself is
        always protected from this pass).
        """
        name = _check_name(name)
        with self._lock:
            self._enforce_residency_locked(protect=name)
            gallery = self._galleries.get(name)
            if gallery is not None:
                self._touch_locked(name)
                return gallery
        directory = self._directory_for(name)
        if directory is None:
            raise ValidationError(
                f"unknown gallery {name!r}: no saved gallery "
                f"{'under ' + str(self.root) if self.root is not None else 'root configured'} "
                f"and none registered in memory (known: {self.names() or '(none)'})"
            )
        with self._lock:
            backend = self._backend_overrides.get(name, self.backend)
        gallery = ReferenceGallery.load(
            directory, cache=self.cache, runner=self.runner, backend=backend
        )
        with self._lock:
            # Another thread may have loaded it meanwhile; first one wins.
            winner = self._galleries.setdefault(name, gallery)
            if winner is gallery:
                # Freshly read from disk, so by definition clean.
                self._persisted_state[name] = self._state_token(gallery)
            self._touch_locked(name)
            self._enforce_residency_locked(protect=name)
            return winner

    # ------------------------------------------------------------------ #
    # Residency policy (TTL + LRU capacity)
    # ------------------------------------------------------------------ #
    def _touch_locked(self, name: str) -> None:
        self._last_used[name] = self.clock()

    def _evictable_one_locked(self, name: str) -> bool:
        """Whether dropping ``name`` is loss-free: on disk and clean.

        "Clean" means the live state token still matches what
        :meth:`persist` (or the lazy load) recorded — a gallery enrolled
        into (or metadata-mutated) since its last save holds un-persisted
        data, and dropping it would lose it.  The token compare (a JSON
        dump of the metadata) only runs for galleries that already
        qualified on idle time / LRU order, so steady-state accesses do
        not pay it for every resident gallery.
        """
        recorded = self._persisted_state.get(name)
        if recorded is None:
            return False
        gallery = self._galleries[name]
        return (
            recorded == self._state_token(gallery)
            and self._directory_for(name) is not None
        )

    def _drop_locked(self, name: str) -> None:
        del self._galleries[name]
        self._last_used.pop(name, None)
        self._auto_evictions += 1

    def _enforce_residency_locked(self, protect: Optional[str] = None) -> None:
        """Apply the TTL and capacity bounds (caller holds the lock).

        Only cleanly-persisted galleries are dropped — they lazily reload
        on next use; evicting a memory-only or dirty gallery would destroy
        data, so those are exempt from both bounds.
        """
        now = self.clock()
        if self.ttl_seconds is not None:
            for name in list(self._galleries):
                if name == protect:
                    continue
                if now - self._last_used.get(name, now) < self.ttl_seconds:
                    continue
                if self._evictable_one_locked(name):
                    self._drop_locked(name)
        if self.max_galleries is not None and len(self._galleries) > self.max_galleries:
            lru_order = sorted(
                (name for name in self._galleries if name != protect),
                key=lambda name: self._last_used.get(name, 0.0),
            )
            for name in lru_order:
                if len(self._galleries) <= self.max_galleries:
                    break
                if self._evictable_one_locked(name):
                    self._drop_locked(name)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def enroll(self, name: str, scans: Sequence[ScanRecord]) -> int:
        """Append subjects to the named gallery; returns how many were added."""
        return self.get(name).enroll(scans)

    def persist(self, name: str, directory: Optional[PathLike] = None) -> Path:
        """Save the named gallery to disk (default: ``root/name``)."""
        gallery = self.get(name)
        if directory is None:
            if self.root is None:
                raise ValidationError(
                    "persist() needs an explicit directory when the registry "
                    "has no root"
                )
            directory = self.root / name
        saved = gallery.save(directory)
        with self._lock:
            # The on-disk snapshot now matches the live state, so the
            # residency policy may drop (and later lazily reload) it.
            self._persisted_state[name] = self._state_token(gallery)
        return saved

    def evict(self, name: str, delete: bool = False) -> bool:
        """Drop the named gallery from memory; ``delete`` also removes its
        persisted directory.  Returns whether anything was evicted."""
        name = _check_name(name)
        with self._lock:
            evicted = self._galleries.pop(name, None) is not None
            self._last_used.pop(name, None)
            if delete:
                self._persisted_state.pop(name, None)
                self._backend_overrides.pop(name, None)
        directory = self._directory_for(name)
        if delete and directory is not None:
            shutil.rmtree(directory)
            evicted = True
        return evicted

    def load_all(self) -> List[str]:
        """Load every persisted gallery into memory; returns their names."""
        loaded = []
        for name in self.names():
            self.get(name)
            loaded.append(name)
        return loaded

    def close(self) -> None:
        """Release the shard-matching runner's pool and shared-memory segments.

        The registry stays usable (galleries remain registered; the runner
        lazily respawns its pool), so this is safe to call between bursts of
        traffic as well as at shutdown.  Idempotent and thread-safe: a
        second ``close()`` is a no-op, concurrent closes serialize on a
        dedicated lock (never the registry lock, so a close can't deadlock
        against serving), and a shard run in flight simply finishes first —
        ``ExperimentRunner.shutdown`` waits for its pool.
        """
        with self._close_lock:
            if self.runner is not None and hasattr(self.runner, "shutdown"):
                self.runner.shutdown()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def info(self) -> Dict[str, Any]:
        """Registry state: root, per-gallery summary, residency."""
        with self._lock:
            in_memory = dict(self._galleries)
        galleries: Dict[str, Any] = {}
        for name in self.names():
            gallery = in_memory.get(name)
            if gallery is not None:
                galleries[name] = {
                    "resident": True,
                    "n_subjects": gallery.n_subjects,
                    "n_features": gallery.n_features,
                    "shard_size": gallery.shard_size,
                    "backend": gallery.backend,
                    "fingerprint": gallery.fingerprint,
                }
            else:
                galleries[name] = {"resident": False}
        return {
            "root": str(self.root) if self.root is not None else None,
            "n_galleries": len(galleries),
            "galleries": galleries,
            "backend": self.backend,
            "max_galleries": self.max_galleries,
            "ttl_seconds": self.ttl_seconds,
            "auto_evictions": self._auto_evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GalleryRegistry(root={str(self.root) if self.root else None!r}, "
            f"galleries={self.names()})"
        )
