"""Content-keyed artifact cache for runtime intermediates.

Experiments repeatedly rebuild the same intermediates — connectomes, group
matrices, leverage scores — from identical inputs.  :class:`ArtifactCache`
memoizes them behind a content hash: keys are SHA-256 digests over the raw
bytes of the input arrays plus the construction parameters, so any mutation
of an input produces a different key (there is no way to get a stale hit).

Two tiers are supported: a bounded in-memory LRU (always on) and an optional
on-disk ``.npz`` tier for ndarray-valued artifacts, so a cache directory can
be shared across processes and sessions.  Hit/miss statistics are tracked
per artifact kind and exposed through :meth:`ArtifactCache.stats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import weakref
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.runtime.faults import maybe_fire

PathLike = Union[str, Path]

# Artifact-kind ownership: ``group_matrix`` belongs to the batch layer;
# ``svd``, ``leverage``, ``gallery`` and ``gallery-archive`` belong to the
# gallery subsystem (cached SVD factors, leverage-score vectors, reduced
# signature matrices and saved-archive integrity digests respectively);
# ``probe`` and ``gallery_norm`` belong to the serving layer (reduced
# normalized probe signatures and normalized gallery signatures).

#: Default LRU bounds.  The byte budget is the real memory guard; the item
#: bound exists so metadata-sized artifacts cannot grow the table without
#: limit.  It is sized for serving workloads (two small ``probe`` entries per
#: distinct request), which a 64-item table would thrash straight through.
DEFAULT_MAX_MEMORY_ITEMS = 1024
DEFAULT_MAX_MEMORY_BYTES = 512 * 1024 * 1024


def default_cache_dir() -> Path:
    """Directory of the shared on-disk cache tier.

    Honours the ``REPRO_CACHE_DIR`` environment variable; otherwise a
    per-user directory under the system temp dir is used (per-user so two
    accounts on one host never fight over file ownership).  This is the
    directory process-pool :class:`~repro.runtime.runner.ExperimentRunner`
    workers share by default, so artifacts computed in one worker are disk
    hits in every other.

    The disk tier is content-addressed and never evicts; point
    ``REPRO_CACHE_DIR`` at scratch storage (or clear the directory) if it
    grows too large.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    try:
        import getpass

        owner = getpass.getuser()
    except (ImportError, OSError, KeyError):  # no resolvable user identity
        owner = f"uid-{os.getuid()}" if hasattr(os, "getuid") else "shared"
    return Path(tempfile.gettempdir()) / f"repro-artifact-cache-{owner}"


@dataclass
class CacheStats:
    """Counters describing how one artifact kind (or the whole cache) behaved."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_errors: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get``/``get_or_compute`` lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reports and the ``runtime-info`` command."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_errors": self.disk_errors,
            "hit_rate": self.hit_rate,
        }

    def _absorb(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.evictions += other.evictions
        self.disk_hits += other.disk_hits
        self.disk_errors += other.disk_errors


class ArtifactCache:
    """Bounded, thread-safe, content-keyed cache with an optional disk tier.

    Parameters
    ----------
    Cached :class:`numpy.ndarray` values are marked read-only when stored:
    hits return the same array object, so an in-place mutation would
    otherwise silently poison every later hit.  Callers that need to mutate
    a cached artifact must take a copy.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk tier; ``None`` keeps the cache memory-only.
        Only :class:`numpy.ndarray` values are persisted to disk (other
        values stay in the memory tier).
    max_memory_items:
        In-memory LRU capacity, counted in artifacts.
    max_memory_bytes:
        Approximate in-memory budget for ndarray payloads; the LRU evicts
        past either bound, so a handful of paper-scale group matrices cannot
        pin gigabytes.
    """

    def __init__(
        self,
        cache_dir: Optional[PathLike] = None,
        max_memory_items: int = DEFAULT_MAX_MEMORY_ITEMS,
        max_memory_bytes: int = DEFAULT_MAX_MEMORY_BYTES,
    ):
        if max_memory_items < 1:
            raise ValidationError(
                f"max_memory_items must be >= 1, got {max_memory_items}"
            )
        if max_memory_bytes < 1:
            raise ValidationError(
                f"max_memory_bytes must be >= 1, got {max_memory_bytes}"
            )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            _secure_cache_dir(self.cache_dir)
        self.max_memory_items = int(max_memory_items)
        self.max_memory_bytes = int(max_memory_bytes)
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._memory_bytes = 0
        self._stats: Dict[str, CacheStats] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #
    def key(self, kind: str, *parts: Any, **params: Any) -> str:
        """Content key for an artifact: SHA-256 over kind, inputs, and params.

        ``parts`` may be numpy arrays (hashed over dtype, shape, and raw
        bytes), scalars, strings, or nested lists/tuples/dicts thereof.
        """
        digest = hashlib.sha256()
        digest.update(kind.encode("utf-8"))
        _hash_part(digest, list(parts))
        _hash_part(digest, sorted(params.items()))
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def get(self, kind: str, key: str) -> Any:
        """Return the cached artifact or ``None`` on a miss (counted)."""
        with self._lock:
            stats = self._stats_for(kind)
            entry = f"{kind}:{key}"
            if entry in self._memory:
                self._memory.move_to_end(entry)
                stats.hits += 1
                return self._memory[entry]
            value = self._read_disk(kind, key)
            if value is not None:
                stats.hits += 1
                stats.disk_hits += 1
                self._store_memory(entry, value)
                return value
            stats.misses += 1
            return None

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store an artifact in the memory tier (and on disk for arrays).

        ndarray values are frozen (``writeable=False``) so a later in-place
        mutation through a hit cannot silently corrupt the cache.
        """
        with self._lock:
            stats = self._stats_for(kind)
            stats.puts += 1
            self._store_memory(f"{kind}:{key}", value)
            self._write_disk(kind, key, value)

    def get_or_compute(self, kind: str, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached artifact, computing and storing it on a miss."""
        value = self.get(kind, key)
        if value is not None:
            return value
        value = compute()
        if value is None:
            raise ValidationError("cached compute() must not return None")
        self.put(kind, key, value)
        return value

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self, kind: Optional[str] = None) -> CacheStats:
        """Counters for one artifact kind, or aggregated over all kinds."""
        with self._lock:
            if kind is not None:
                return self._stats_for(kind)
            total = CacheStats()
            for stats in self._stats.values():
                total._absorb(stats)
            return total

    def stats_by_kind(self) -> Dict[str, Dict[str, float]]:
        """Per-kind counter dictionaries (for reporting)."""
        with self._lock:
            return {kind: stats.as_dict() for kind, stats in sorted(self._stats.items())}

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear(self, reset_stats: bool = False) -> None:
        """Drop the memory tier (the disk tier, if any, is left in place)."""
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0
            if reset_stats:
                self._stats.clear()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _stats_for(self, kind: str) -> CacheStats:
        if kind not in self._stats:
            self._stats[kind] = CacheStats()
        return self._stats[kind]

    def _store_memory(self, entry: str, value: Any) -> None:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        if entry in self._memory:
            self._memory_bytes -= _payload_bytes(self._memory[entry])
        self._memory[entry] = value
        self._memory.move_to_end(entry)
        self._memory_bytes += _payload_bytes(value)
        while self._memory and (
            len(self._memory) > self.max_memory_items
            or self._memory_bytes > self.max_memory_bytes
        ):
            evicted_entry, evicted_value = self._memory.popitem(last=False)
            self._memory_bytes -= _payload_bytes(evicted_value)
            # Charge the eviction to the kind that owned the evicted entry.
            self._stats_for(evicted_entry.split(":", 1)[0]).evictions += 1

    def _disk_path(self, kind: str, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / kind / f"{key}.npz"

    def _read_disk(self, kind: str, key: str) -> Optional[np.ndarray]:
        path = self._disk_path(kind, key)
        if path is None:
            return None
        try:
            if maybe_fire("cache.read_error") is not None:
                raise OSError(f"injected cache.read_error ({kind})")
            if not path.exists():
                return None
            with np.load(path) as archive:
                return archive["artifact"]
        except (OSError, ValueError, zipfile.BadZipFile):
            # The disk tier is best-effort: an unreadable (or corrupt, or
            # injected-faulty) archive degrades to a miss, and the artifact
            # recomputes bit-identically from its content-keyed inputs — a
            # flaky disk can cost latency, never correctness.
            self._stats_for(kind).disk_errors += 1
            return None

    def _write_disk(self, kind: str, key: str, value: Any) -> None:
        path = self._disk_path(kind, key)
        if path is None or not isinstance(value, np.ndarray):
            return
        # Per-process temp name + atomic rename, so concurrent pool workers
        # writing the same key never observe a partially written archive.
        # Uncompressed: float factors barely shrink under zlib, and the
        # compression would dominate the write (older compressed entries
        # still load through the same ``np.load``).
        tmp = path.parent / f"{path.stem}.{os.getpid()}.tmp.npz"
        try:
            if maybe_fire("cache.write_error") is not None:
                raise OSError(f"injected cache.write_error ({kind})")
            path.parent.mkdir(parents=True, exist_ok=True)
            np.savez(tmp, artifact=value)
            tmp.replace(path)
        except OSError:
            # A failed write only costs the next process a recompute; the
            # memory tier already holds the value for this one.
            self._stats_for(kind).disk_errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - unreachable tmp
                pass


def _secure_cache_dir(directory: Path) -> None:
    """Create the disk-tier root privately and refuse foreign-owned ones.

    The default shared tier lives at a predictable path under the
    world-writable temp dir, so another local user could pre-create it and
    plant artifacts for content keys they can predict.  Creating with mode
    ``0o700`` and rejecting directories owned by someone else closes that:
    artifacts are only ever read from a tier the current user controls.
    """
    directory.mkdir(parents=True, exist_ok=True, mode=0o700)
    if hasattr(os, "getuid"):
        owner = directory.stat().st_uid
        if owner != os.getuid():
            raise ValidationError(
                f"cache directory {directory} is owned by uid {owner}, not the "
                f"current user (uid {os.getuid()}); refusing to trust its artifacts"
            )


def _payload_bytes(value: Any) -> int:
    """Approximate in-memory footprint of a cached value (arrays only)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    return 0


def _hash_part(digest: "hashlib._Hash", part: Any) -> None:
    """Feed one key component into the digest with type tags against collisions."""
    if part is None:
        digest.update(b"\x00none")
    elif isinstance(part, np.ndarray):
        array = np.ascontiguousarray(part)
        digest.update(b"\x00array")
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        # Hash the contiguous buffer in place: ``tobytes()`` would copy it
        # first, for the same bytes.  Object arrays expose no byte view.
        digest.update(
            array.tobytes() if array.dtype.hasobject else array.reshape(-1).view(np.uint8)
        )
    elif isinstance(part, (bytes, bytearray)):
        digest.update(b"\x00bytes")
        digest.update(bytes(part))
    elif isinstance(part, (str, int, float, bool, np.integer, np.floating)):
        digest.update(b"\x00scalar")
        digest.update(repr(part).encode("utf-8"))
    elif isinstance(part, (list, tuple)):
        digest.update(b"\x00seq")
        for item in part:
            _hash_part(digest, item)
        digest.update(b"\x00endseq")
    elif isinstance(part, dict):
        digest.update(b"\x00map")
        for key in sorted(part, key=repr):
            _hash_part(digest, key)
            _hash_part(digest, part[key])
        digest.update(b"\x00endmap")
    else:
        # Fall back to a canonical JSON rendering (covers dataclass dicts etc.).
        try:
            rendered = json.dumps(part, sort_keys=True, default=repr)
        except TypeError:
            rendered = repr(part)
        digest.update(b"\x00json")
        digest.update(rendered.encode("utf-8"))


#: Identity-memoized array digests: ``id(array) -> (weakref, hex digest)``.
#: Entries are only created for arrays that own their memory and have been
#: frozen (``writeable=False``), so a memoized digest can never go stale.
_digest_memo: Dict[int, Tuple["weakref.ref", str]] = {}
_digest_lock = threading.Lock()


def frozen_array_digest(array: np.ndarray) -> str:
    """Content digest of an array, memoized by freezing the array.

    Request-serving paths key probe artifacts on scan content; re-hashing
    ~100 KB of time series on every repeat request would dominate a warm
    identify.  The first call hashes the raw bytes and — when the array owns
    its memory — marks it read-only, so the digest can afterwards be reused
    by object identity: a later in-place write raises instead of silently
    invalidating the memo.  Views and non-owning arrays are hashed on every
    call (their base could still be mutated through another reference).
    """
    arr = np.asarray(array)
    entry_key = id(arr)
    with _digest_lock:
        entry = _digest_memo.get(entry_key)
        if entry is not None and entry[0]() is arr:
            return entry[1]
    digest = hashlib.sha256()
    _hash_part(digest, arr)
    value = digest.hexdigest()
    if arr.base is None:
        arr.setflags(write=False)

        def _drop(ref, entry_key=entry_key):
            with _digest_lock:
                current = _digest_memo.get(entry_key)
                if current is not None and current[0] is ref:
                    del _digest_memo[entry_key]

        with _digest_lock:
            _digest_memo[entry_key] = (weakref.ref(arr, _drop), value)
    return value


#: Process-wide default cache used by the batched group-matrix builders.
_default_cache: Optional[ArtifactCache] = None
_default_lock = threading.Lock()


def get_default_cache() -> ArtifactCache:
    """The process-wide cache shared by pipelines, datasets, and the runner."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = ArtifactCache()
        return _default_cache


def set_default_cache(cache: Optional[ArtifactCache]) -> None:
    """Replace the process-wide cache (``None`` resets to a fresh one lazily)."""
    global _default_cache
    with _default_lock:
        _default_cache = cache
