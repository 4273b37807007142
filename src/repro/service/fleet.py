"""Fleet control plane: membership, worker lifecycle, and live resizing.

:class:`~repro.service.router.GalleryRouter` used to fuse two very different
jobs into one ~900-line class: deciding *who serves which gallery* (ring
membership, worker spawn/reap/respawn, breaker bookkeeping, stats
carry-forward) and actually *serving requests* (frame → dispatch → retry).
Following the control-plane/data-plane split of adaptive query processing —
topology decisions live apart from the tuple-at-a-time execution path — this
module owns the control plane:

``HashRing``
    Deterministic consistent-hash placement (sha256 virtual nodes).  Adding
    or removing one member remaps only the ring arcs its virtual nodes own,
    ≈ ``1/N`` of the key space.
``FleetControlPlane``
    The runtime-mutable fleet object: it spawns/reaps/respawns worker
    processes, keeps the per-worker breaker registry
    (:class:`~repro.service.resilience.BreakerRegistry`), folds dead
    incarnations' stats snapshots into carried accumulators (global *and*
    per worker, so ``/stats`` totals never double-count or regress), and —
    the point of the split — implements **live membership changes**:

    ``add_worker()``
        spawn off-ring → *warm* the joining worker (prefetch the gallery
        names the prospective ring assigns to it, via the worker ``warm``
        op) → commit the ring change.  Until the commit nothing routes to
        the newcomer, so a failed join aborts without a trace.
    ``remove_worker()``
        commit the shrunken ring **first** (new lookups route to survivors)
        → *drain* the leaving worker (its in-flight request finishes under
        the data-channel lock, the ``drain`` op persists resident galleries
        and returns a final stats snapshot that is folded into the carried
        accumulator) → join the cleanly-exiting process (SIGKILL escalation
        + ``/dev/shm`` sweep only if the drain failed) → retire the breaker.

    One resize runs at a time (:class:`ResizeInProgress` otherwise), and
    identifies issued during a resize stay bit-identical to single-process
    serving: every worker serves the same persisted galleries through the
    same kernel, so remapping a name only changes *where* it is computed.
    Both protocols **write-fence** the remapped galleries — they hold those
    galleries' single-writer locks (the same locks the data plane's enroll
    holds across its worker round-trip) from before the warm (join) or
    commit (leave) until after the commit.  Acquiring the fence waits out
    any in-flight enroll to a remapped gallery (acked ⇒ persisted) and
    blocks new ones until the ring change lands, so a warmed resident copy
    on the newcomer — or a survivor's first lazy load — can never be
    invalidated by a write that was still racing toward the old owner.

The data plane (``GalleryRouter``) keeps the request path: it routes through
:meth:`FleetControlPlane.route`, borrows handles via
:meth:`FleetControlPlane.handle_for`, and reports failures back through
:meth:`FleetControlPlane.on_worker_death`.
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import socket
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.exceptions import ValidationError
from repro.runtime.shm import SEGMENT_PREFIX
from repro.service.config import ServiceConfig
from repro.service.codec import FrameError
from repro.service.registry import _GALLERY_META_FILE
from repro.service.resilience import BreakerRegistry, ResiliencePolicy
from repro.service.worker import recv_message, send_message, worker_main

PathLike = Union[str, Path]

#: Where POSIX shared-memory segments surface on Linux (the crash sweep
#: removes a dead worker's ``repro-shm-<pid>-*`` entries from here).
_SHM_DIR = Path("/dev/shm")

#: How many completed resize records ``/stats`` keeps (newest last).
_RESIZE_HISTORY = 32

#: How many remapped/warmed gallery names a resize record lists verbatim
#: (the full counts are always recorded; the name lists are a sample).
_RESIZE_NAME_SAMPLE = 32


# --------------------------------------------------------------------------- #
# Consistent-hash ring
# --------------------------------------------------------------------------- #
class HashRing:
    """A consistent-hash ring with virtual nodes.

    Placement is a pure function of the member and key strings (sha256), so
    every router process — and every restart — routes a gallery name to the
    same worker.  ``replicas`` virtual nodes per member smooth the spread;
    adding or removing a member only remaps the ring arcs its virtual nodes
    own (≈ ``1/N`` of the key space), which is what keeps per-worker gallery
    residency warm across fleet resizes.
    """

    def __init__(self, members: Sequence[str] = (), replicas: int = 64):
        if int(replicas) < 1:
            raise ValidationError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._members: set = set()
        self._points: List[tuple] = []
        for member in members:
            self.add(member)

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
        )

    @property
    def members(self) -> List[str]:
        """Sorted member names currently on the ring."""
        return sorted(self._members)

    def __len__(self) -> int:
        """Number of virtual nodes (``members * replicas``)."""
        return len(self._points)

    def add(self, member: str) -> None:
        """Add a member (idempotent); inserts its virtual nodes."""
        if not isinstance(member, str) or not member:
            raise ValidationError("ring member must be a non-empty string")
        if member in self._members:
            return
        self._members.add(member)
        for replica in range(self.replicas):
            bisect.insort(self._points, (self._hash(f"{member}#{replica}"), member))

    def remove(self, member: str) -> None:
        """Remove a member and its virtual nodes (idempotent)."""
        if member not in self._members:
            return
        self._members.discard(member)
        self._points = [point for point in self._points if point[1] != member]

    def lookup(self, key: str) -> str:
        """The member owning ``key``: first virtual node clockwise of its hash."""
        if not self._points:
            raise ValidationError("the hash ring has no members")
        # (h,) sorts before any (h, member), so bisect_left finds the first
        # virtual node at or clockwise of the key's position.
        index = bisect.bisect_left(self._points, (self._hash(str(key)),))
        return self._points[index % len(self._points)][1]


# --------------------------------------------------------------------------- #
# Failures and handles
# --------------------------------------------------------------------------- #
class WorkerDied(Exception):
    """An IPC operation failed because the worker process or channel died."""


class WorkerHung(WorkerDied):
    """A data-channel read hit its deadline: the worker is stuck, not gone.

    Handled exactly like a death (reap → respawn → retry), except the reap
    goes straight to SIGKILL — a hung worker cannot notice its closed
    channel ends, so the graceful join would burn the whole escalation
    ladder before giving up.
    """


class WorkerRetired(WorkerDied):
    """The worker drained out of the fleet before the request was sent.

    Raised by the pre-send liveness check only, so the caller *knows* the
    operation never reached the worker: identify re-routes to the new owner
    on its next attempt, and enroll surfaces a typed error that is safe to
    resend (no write occurred).
    """


class ResizeInProgress(ValidationError):
    """A membership change is already in flight; one resize runs at a time."""


class WorkerHandle:
    """One live worker incarnation: process + data/control channels."""

    __slots__ = (
        "name", "process", "pid", "data_sock", "control_sock",
        "data_lock", "control_lock", "alive", "retired", "incarnation",
    )

    def __init__(self, name, process, data_sock, control_sock, incarnation=0):
        self.name = name
        self.process = process
        self.pid = process.pid
        self.data_sock = data_sock
        self.control_sock = control_sock
        self.data_lock = threading.Lock()
        self.control_lock = threading.Lock()
        self.alive = True
        #: Set at ring-commit time by ``remove_worker``: the handle may still
        #: finish pre-commit in-flight requests, but once drained it raises
        #: :class:`WorkerRetired` instead of being respawned.
        self.retired = False
        self.incarnation = incarnation


#: ServiceStats counter fields that simply sum across workers.
_SUM_FIELDS = ("requests", "probes", "batches", "coalesced_batches", "errors", "batchers")

#: Derived ratios recomputed after merging (summing them would be wrong).
_DERIVED_KEYS = ("hit_rate", "mean_batch_size")


def _empty_accumulator() -> Dict[str, Any]:
    acc: Dict[str, Any] = {field: 0 for field in _SUM_FIELDS}
    acc["max_batch_size"] = 0
    acc["galleries"] = {}
    acc["cache_kinds"] = {}
    return acc


def _merge_record(acc: Dict[str, Any], record: Optional[Dict[str, Any]]) -> None:
    """Fold one worker stats document (``ServiceStats.to_dict``) into ``acc``."""
    if not record:
        return
    for field in _SUM_FIELDS:
        acc[field] += int(record.get(field, 0))
    acc["max_batch_size"] = max(acc["max_batch_size"], int(record.get("max_batch_size", 0)))
    for name, count in (record.get("galleries") or {}).items():
        acc["galleries"][name] = acc["galleries"].get(name, 0) + int(count)
    for kind, counters in (record.get("cache_kinds") or {}).items():
        entry = acc["cache_kinds"].setdefault(kind, {})
        for key, value in counters.items():
            if key in _DERIVED_KEYS:
                continue
            entry[key] = entry.get(key, 0) + value


def _empty_worker_carried() -> Dict[str, int]:
    return {"requests": 0, "errors": 0, "auto_evictions": 0}


class GalleryRootView:
    """Name-only registry surface over the shared gallery root.

    The HTTP front end only asks its service's registry two questions —
    ``names()`` and membership — and in routed mode the shared root on disk
    is the source of truth (workers persist every create/enroll before
    acknowledging), so this view answers both from the filesystem without
    talking to any worker.  The control plane reuses it to enumerate the
    names a prospective ring change would remap.
    """

    def __init__(self, root: Path):
        self._root = Path(root)

    def names(self) -> List[str]:
        if not self._root.exists():
            return []
        return sorted(
            path.name
            for path in self._root.iterdir()
            if path.is_dir() and (path / _GALLERY_META_FILE).exists()
        )

    def __contains__(self, name: str) -> bool:
        if not isinstance(name, str) or not name or "/" in name or "\\" in name:
            return False
        if name in (".", ".."):
            return False
        return (self._root / name / _GALLERY_META_FILE).exists()

    def __len__(self) -> int:
        return len(self.names())


# --------------------------------------------------------------------------- #
# The control plane
# --------------------------------------------------------------------------- #
class FleetControlPlane:
    """Membership, lifecycle, and accounting of a router worker fleet.

    Parameters
    ----------
    root:
        Shared gallery root directory (workers load lazily from it and
        persist writes back into it).
    config:
        Deployment knobs; the config handed to workers always has
        ``router_workers=0`` — a worker is a plain single-process service.
        ``warm_on_add`` and ``drain_deadline_s`` steer the resize protocol.
    workers:
        Initial fleet size (>= 1); members are named ``worker-0`` …
        ``worker-N-1``.  Workers added later get fresh monotonic indices, so
        a departed member's ring arcs are never silently re-created.
    control_timeout_s:
        Socket timeout of control-channel operations (ping/stats/warm).
    """

    def __init__(
        self,
        root: PathLike,
        config: ServiceConfig,
        workers: int,
        control_timeout_s: float = 30.0,
    ):
        count = int(workers)
        if count < 1:
            raise ValidationError(
                f"the fleet needs at least one worker, got {count} "
                "(set router_workers >= 1 or pass workers=)"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.control_timeout_s = float(control_timeout_s)
        self.policy = ResiliencePolicy.from_config(config)
        self.registry = GalleryRootView(self.root)
        self._max_message_bytes = int(config.max_stream_bytes)
        self._worker_config = config.replace(router_workers=0).to_dict()
        # fork keeps spawn latency negligible and inherits the already-built
        # socketpair ends; spawns are serialized under the fleet lock so a
        # child can never inherit a sibling's not-yet-closed worker-side fd.
        self._mp = multiprocessing.get_context("fork")
        self._ring = HashRing(
            [f"worker-{index}" for index in range(count)],
            replicas=config.ring_replicas,
        )
        self._lock = threading.RLock()
        self._close_lock = threading.Lock()
        #: Per-gallery single-writer locks.  The data plane's enroll holds
        #: one across owner resolution *and* the worker round-trip, which is
        #: what lets a resize use them as a **write fence**: once a resize
        #: holds a gallery's lock, no write to it is in flight anywhere in
        #: the fleet, and none can start until the lock is released.
        self._writer_registry_lock = threading.Lock()
        self._writer_locks: Dict[str, threading.Lock] = {}
        #: Totals of every dead or removed worker incarnation (their last
        #: known stats snapshots), so aggregate stats never double-count a
        #: respawn and never regress when a member leaves the fleet.
        self._carried = _empty_accumulator()
        #: Per-worker carry of that worker's *own* dead incarnations, so the
        #: ``per_worker`` stats block never regresses across respawns and
        #: never omits a member whose poll failed this cycle.
        self._worker_carried: Dict[str, Dict[str, int]] = {}
        #: Per-worker last successful stats poll of the *current* incarnation.
        self._last_stats: Dict[str, Dict[str, Any]] = {}
        self._respawns = 0
        self._worker_timeouts = 0
        #: Recent worker-death reasons (newest last) — the observable record
        #: of *why* arcs failed, surfaced through ``stats().router``.
        self._deaths: deque = deque(maxlen=32)
        #: Per-worker consecutive-failure breakers, keyed by worker name and
        #: tagged with the incarnation they guard; retired when the worker
        #: leaves the fleet.
        self.breakers = BreakerRegistry(threshold=self.policy.breaker_threshold)
        self._closed = False
        self._handles: Dict[str, WorkerHandle] = {}
        #: Monotonic spawn index: ``add_worker`` names are never reused.
        self._next_index = count
        #: One membership change at a time; admin requests racing an
        #: in-flight resize get a typed 409 instead of queueing.
        self._resize_mutex = threading.Lock()
        self._resize_inflight: Optional[str] = None
        self._resize_history: deque = deque(maxlen=_RESIZE_HISTORY)
        self._resizes_completed = 0
        with self._lock:
            for name in self._ring.members:
                self.breakers.ensure(name)
                self._handles[name] = self._spawn(name)

    # ------------------------------------------------------------------ #
    # Membership queries
    # ------------------------------------------------------------------ #
    @property
    def members(self) -> List[str]:
        """Sorted worker names currently on the ring."""
        with self._lock:
            return self._ring.members

    @property
    def ring_size(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def closed(self) -> bool:
        return self._closed

    def route(self, gallery: str) -> str:
        """The worker name the ring assigns to ``gallery``."""
        with self._lock:
            return self._ring.lookup(gallery)

    def placement(self, keys: Sequence[str]) -> Dict[str, str]:
        """A consistent snapshot of ``{key: owner}`` under the fleet lock."""
        with self._lock:
            return {key: self._ring.lookup(key) for key in keys}

    def alive_count(self) -> int:
        with self._lock:
            return sum(
                1
                for name in self._ring.members
                if (handle := self._handles.get(name)) is not None
                and handle.alive
                and handle.process.is_alive()
            )

    def breaker(self, worker: str):
        """The consecutive-failure breaker guarding ``worker``'s arc."""
        return self.breakers.ensure(worker)

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, name: str) -> WorkerHandle:
        """Fork one worker (caller holds the fleet lock)."""
        data_router, data_worker = socket.socketpair()
        control_router, control_worker = socket.socketpair()
        process = self._mp.Process(
            target=worker_main,
            args=(data_worker, control_worker, self._worker_config, str(self.root), name),
            name=f"repro-router-{name}",
            daemon=True,
        )
        process.start()
        # The parent's copies of the worker-side ends must close immediately:
        # the worker process must be the only holder, so its death surfaces
        # as EOF/EPIPE on the router's ends.
        data_worker.close()
        control_worker.close()
        return WorkerHandle(
            name, process, data_router, control_router,
            incarnation=self.breakers.incarnation(name),
        )

    def handle_for(self, name: str) -> WorkerHandle:
        """The live handle of ``name``; respawns a silently-dead member."""
        with self._lock:
            handle = self._handles.get(name)
            if handle is None:
                raise WorkerRetired(f"{name} is no longer a fleet member")
            if handle.alive and handle.process.is_alive():
                return handle
        self.on_worker_death(handle)
        with self._lock:
            handle = self._handles.get(name)
            if handle is None or not handle.alive:
                raise WorkerRetired(f"{name} left the fleet")
            return handle

    def on_worker_death(
        self, handle: WorkerHandle, hung: bool = False, reason: Optional[str] = None
    ) -> None:
        """Reap, account, sweep, and respawn one dead incarnation (idempotent)."""
        with self._lock:
            if self._handles.get(handle.name) is not handle or not handle.alive:
                return  # another thread already replaced this incarnation
            handle.alive = False
            if self._closed:
                return  # close() owns the remaining cleanup
            if handle.retired:
                return  # remove_worker() owns the drain/reap of a retired member
            if hung:
                self._worker_timeouts += 1
            self._deaths.append(
                f"{handle.name} (pid {handle.pid}): {reason or 'channel failure'}"
            )
            # Counters of the dead incarnation: its last polled snapshot is
            # folded exactly once — into the global carry *and* the worker's
            # own carry (so per_worker never regresses) — anything accrued
            # after that poll died with the process and is honestly lost.
            self._fold_snapshot(handle.name, self._last_stats.pop(handle.name, None))
            self._respawns += 1
            self.breakers.bump_incarnation(handle.name)
            # Always SIGKILL on the failure path: the incarnation is
            # untrusted (dead, hung, or speaking garbage), so there is
            # nothing worth draining — and a still-alive worker cannot be
            # EOF'd anyway, because siblings forked later inherit duplicate
            # copies of its router-side channel fds, which would stall the
            # graceful join until its timeout expires.
            self._reap(handle, kill_first=True)
            self._handles[handle.name] = self._spawn(handle.name)

    def _fold_snapshot(self, name: str, record: Optional[Dict[str, Any]]) -> None:
        """Fold a dead incarnation's snapshot into both carried accumulators."""
        _merge_record(self._carried, record)
        entry = self._worker_carried.setdefault(name, _empty_worker_carried())
        if record:
            entry["requests"] += int(record.get("requests", 0))
            entry["errors"] += int(record.get("errors", 0))
            entry["auto_evictions"] += int(
                (record.get("registry") or {}).get("auto_evictions", 0)
            )

    def _reap(self, handle: WorkerHandle, kill_first: bool = False) -> None:
        """Close channels, join (escalating to kill), sweep leaked segments."""
        for sock in (handle.data_sock, handle.control_sock):
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        process = handle.process
        if kill_first and process.is_alive():
            # A hung (or SIGSTOPped) worker cannot notice its closed channel
            # ends — and even a responsive one may never see EOF, since
            # sibling workers hold inherited copies of these fds — so
            # waiting out the graceful join would stall failover far past
            # the deadline; SIGKILL works even on a stopped process.  Only
            # acked shutdown/drain ops are joined gracefully.
            process.kill()
        process.join(timeout=10.0)
        if process.is_alive():  # pragma: no cover - wedged worker
            process.terminate()
            process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - unkillable worker
            process.kill()
            process.join(timeout=5.0)
        self._sweep_segments(handle.pid)

    @staticmethod
    def _sweep_segments(pid: Optional[int]) -> int:
        """Unlink ``/dev/shm`` segments a killed worker pid left behind.

        A cleanly-draining worker releases its own segments before exiting;
        this sweep covers SIGKILL (no finalizers ran in the worker).  Segment
        names embed the creating pid, so the sweep can never touch another
        process's segments.
        """
        if pid is None or not _SHM_DIR.exists():
            return 0
        swept = 0
        for path in _SHM_DIR.glob(f"{SEGMENT_PREFIX}-{int(pid)}-*"):
            try:
                path.unlink()
                swept += 1
            except OSError:  # pragma: no cover - raced with another cleaner
                pass
        return swept

    # ------------------------------------------------------------------ #
    # Resize IPC (warm / drain — control-plane ops, never retried)
    # ------------------------------------------------------------------ #
    def _warm_call(self, handle: WorkerHandle, names: Sequence[str]) -> Dict[str, Any]:
        """Ask a (not-yet-committed) worker to prefetch its joining arc."""
        with handle.control_lock:
            if not handle.alive:
                raise WorkerDied("worker died before warm")
            try:
                handle.control_sock.settimeout(self.control_timeout_s)
                send_message(
                    handle.control_sock,
                    {"kind": "warm", "scans": [], "names": list(names)},
                )
                message = recv_message(handle.control_sock, self._max_message_bytes)
            except socket.timeout as exc:
                raise WorkerHung(
                    f"no warm reply within the {self.control_timeout_s}s control timeout"
                ) from exc
            except (OSError, FrameError) as exc:
                raise WorkerDied(str(exc)) from exc
        if message is None:
            raise WorkerDied("worker closed the control channel during warm")
        reply = message[0]
        if not reply.get("ok", False):
            raise WorkerDied(f"warm failed: {reply.get('error')}")
        document = reply.get("document")
        return document if isinstance(document, dict) else {}

    def _drain_call(self, handle: WorkerHandle, deadline_s: float) -> Dict[str, Any]:
        """Drain one leaving worker on its data channel.

        Taking the data lock waits out the in-flight request; the worker
        then persists its resident galleries, replies with a final stats
        snapshot, and exits its serve loop.  The handle is marked dead under
        the same lock, so any later data call sees :class:`WorkerRetired`
        *before* sending — the caller knows its operation never happened.
        """
        with handle.data_lock:
            if not handle.alive:
                raise WorkerDied("worker died before drain")
            try:
                handle.data_sock.settimeout(float(deadline_s))
                send_message(handle.data_sock, {"kind": "drain", "scans": []})
                message = recv_message(handle.data_sock, self._max_message_bytes)
            except socket.timeout as exc:
                raise WorkerHung(
                    f"no drain reply within the {deadline_s}s drain deadline"
                ) from exc
            except (OSError, FrameError) as exc:
                raise WorkerDied(str(exc)) from exc
            finally:
                handle.alive = False
        if message is None:
            raise WorkerDied("worker closed the data channel during drain")
        reply = message[0]
        if not reply.get("ok", False):
            raise WorkerDied(f"drain failed: {reply.get('error')}")
        document = reply.get("document")
        return document if isinstance(document, dict) else {}

    # ------------------------------------------------------------------ #
    # Single-writer locks and the resize write fence
    # ------------------------------------------------------------------ #
    def writer_lock(self, gallery: str) -> threading.Lock:
        """The per-gallery single-writer lock (shared with the data plane)."""
        with self._writer_registry_lock:
            lock = self._writer_locks.get(gallery)
            if lock is None:
                lock = self._writer_locks.setdefault(gallery, threading.Lock())
            return lock

    def _acquire_write_fence(self, remapped) -> Dict[str, threading.Lock]:
        """Acquire the writer locks of every gallery the resize remaps.

        ``remapped`` is a callable listing the persisted gallery names whose
        owner the pending membership change moves.  Acquiring their writer
        locks waits out any in-flight enroll to those galleries (enroll
        holds the lock across its worker round-trip) and blocks new ones,
        so while the fence is held the shared root is the *complete* state
        of every remapped gallery: a warm prefetch or a survivor's first
        lazy load after the commit can never capture a resident copy that
        a still-in-flight write would silently invalidate.

        The acquisition loops to a fixed point: a gallery persisted for the
        first time while the fence was being assembled (its creating enroll
        raced the resize) is picked up on the next pass.  A creating enroll
        still unpersisted when the fence converges is benign — the new
        owner cannot load a gallery that is not on disk yet, so its first
        successful serve reads the post-enroll state.

        Locks are acquired in sorted name order; the only multi-lock
        acquirer is a resize and resizes are serialized, so the order can
        never deadlock against single-lock enrolls.  The caller must not
        hold the fleet lock (enroll takes writer lock → fleet lock; the
        fence must follow the same order).
        """
        held: Dict[str, threading.Lock] = {}
        while True:
            missing = [name for name in sorted(remapped()) if name not in held]
            if not missing:
                return held
            for name in missing:
                lock = self.writer_lock(name)
                lock.acquire()
                held[name] = lock

    @staticmethod
    def _release_write_fence(held: Dict[str, threading.Lock]) -> None:
        for lock in reversed(list(held.values())):
            lock.release()

    # ------------------------------------------------------------------ #
    # Live membership changes
    # ------------------------------------------------------------------ #
    def add_worker(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Grow the fleet by one worker: spawn → warm → commit.

        The new worker is spawned *off-ring* (nothing routes to it), warmed
        by prefetching the gallery names the prospective ring assigns to it
        (skippable via ``config.warm_on_add``), and only then committed —
        the ring mutation is atomic under the fleet lock, so a lookup sees
        either the old ring or the new one, never an in-between.  The
        joining arc is **write-fenced** across the warm+commit window: the
        remapped galleries' writer locks are held, so an enroll routed to
        the old owner either lands (durably, on disk) before the newcomer
        loads the gallery, or blocks and re-routes to the newcomer after
        the commit — a warmed resident copy can never go silently stale.
        A failed spawn or warm aborts the join and reaps the newcomer; the
        serving fleet is untouched.
        """
        self._check_open()
        if not self._resize_mutex.acquire(blocking=False):
            raise ResizeInProgress(
                f"a fleet resize is already in flight ({self._resize_inflight}); "
                "retry after it completes"
            )
        try:
            started = time.perf_counter()
            with self._lock:
                if name is None:
                    # An operator may have added an explicit "worker-N" name
                    # ahead of the monotonic index: skip past collisions so
                    # an auto name can never overwrite a live handle.
                    name = f"worker-{self._next_index}"
                    while name in self._ring._members or name in self._handles:
                        self._next_index += 1
                        name = f"worker-{self._next_index}"
                    self._next_index += 1
                elif name in self._ring._members or name in self._handles:
                    raise ValidationError(f"worker {name!r} is already a fleet member")
                self._resize_inflight = f"add {name}"
                members_before = self._ring.members
            # The joining arc, computed against a prospective ring: these are
            # the only names whose owner changes when the commit lands.
            prospective = HashRing(
                members_before + [name], replicas=self._ring.replicas
            )
            fence = self._acquire_write_fence(
                lambda: [
                    gallery for gallery in self.registry.names()
                    if prospective.lookup(gallery) == name
                ]
            )
            try:
                joining = sorted(fence)
                with self._lock:
                    handle = self._spawn(name)
                warm_document: Dict[str, Any] = {}
                if self.config.warm_on_add and joining:
                    try:
                        warm_document = self._warm_call(handle, joining)
                    except WorkerDied as exc:
                        handle.alive = False
                        self._reap(handle, kill_first=True)
                        raise ValidationError(
                            f"join of {name} aborted: warm prefetch failed ({exc}); "
                            "the serving fleet is unchanged"
                        ) from exc
                with self._lock:
                    self._ring.add(name)
                    self._handles[name] = handle
                    self.breakers.ensure(name)
                    members_after = self._ring.members
            finally:
                self._release_write_fence(fence)
            record = {
                "action": "add",
                "worker": name,
                "members_before": len(members_before),
                "members_after": len(members_after),
                "remapped_galleries": len(joining),
                "remapped_sample": joining[:_RESIZE_NAME_SAMPLE],
                "warmed": len(warm_document.get("warmed", [])),
                "warm_failed": len(warm_document.get("failed", {})),
                "duration_s": time.perf_counter() - started,
            }
            with self._lock:
                self._resize_history.append(record)
                self._resizes_completed += 1
            return dict(record)
        finally:
            self._resize_inflight = None
            self._resize_mutex.release()

    def remove_worker(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Shrink the fleet by one worker: commit → drain → reap → retire.

        The shrunken ring commits **first** — new lookups route to the
        survivors — with the leaving arc **write-fenced** across the
        commit: the remapped galleries' writer locks are held, so every
        enroll the old owner acknowledged is on disk before the commit
        point, and a survivor's first lazy load after the commit reads the
        complete state.  Then the leaving worker drains: its in-flight request
        finishes (the data lock serializes), the ``drain`` op persists
        resident galleries and returns a final stats snapshot folded into
        the carried accumulator (fleet totals never regress), and the
        process is reaped with the SIGKILL-escalation ladder + ``/dev/shm``
        sweep.  Its breaker is retired from the active registry.  A drain
        that misses ``config.drain_deadline_s`` falls back to the crash
        path: the worker is killed and its last *polled* snapshot is carried
        instead (anything unpolled died with it — counted never twice).
        """
        self._check_open()
        if not self._resize_mutex.acquire(blocking=False):
            raise ResizeInProgress(
                f"a fleet resize is already in flight ({self._resize_inflight}); "
                "retry after it completes"
            )
        try:
            started = time.perf_counter()
            with self._lock:
                members_before = self._ring.members
                if len(members_before) <= 1:
                    raise ValidationError(
                        "cannot remove the last worker; the fleet needs at least one"
                    )
                if name is None:
                    # Highest spawn index leaves first ("worker-10" after
                    # "worker-9": compare by length before lexicographic).
                    name = max(members_before, key=lambda m: (len(m), m))
                if name not in members_before:
                    raise ValidationError(
                        f"worker {name!r} is not a fleet member "
                        f"(members: {members_before})"
                    )
                self._resize_inflight = f"remove {name}"
            # Fence the leaving arc, then commit: acquiring the writer locks
            # waits out in-flight enrolls to the remapped galleries (acked ⇒
            # persisted), so the disk state a survivor lazy-loads after the
            # commit can never miss a write the old owner acknowledged.
            fence = self._acquire_write_fence(
                lambda: [
                    gallery for gallery in self.registry.names()
                    if self.route(gallery) == name
                ]
            )
            try:
                leaving = sorted(fence)
                with self._lock:
                    # Commit: from here on every new lookup routes to a
                    # survivor, so the drain below only has to wait out
                    # requests that were already in flight.
                    self._ring.remove(name)
                    handle = self._handles[name]
                    handle.retired = True
                    members_after = self._ring.members
            finally:
                self._release_write_fence(fence)
            drain_started = time.perf_counter()
            drained = False
            drain_error: Optional[str] = None
            final_stats: Optional[Dict[str, Any]] = None
            try:
                document = self._drain_call(handle, self.config.drain_deadline_s)
                stats = document.get("stats")
                final_stats = stats if isinstance(stats, dict) else None
                drained = True
            except WorkerDied as exc:
                drain_error = str(exc)
            drain_s = time.perf_counter() - drain_started
            with self._lock:
                last = self._last_stats.pop(name, None)
                # A clean drain returns the complete final snapshot; fold it
                # (not the stale poll) so removal never drops counters.  A
                # failed drain degrades to the crash rule: carry the last
                # polled snapshot, never double-count.
                _merge_record(self._carried, final_stats if drained else last)
                self._worker_carried.pop(name, None)
                self._handles.pop(name, None)
                if not drained:
                    self._deaths.append(
                        f"{name} (pid {handle.pid}): drain failed ({drain_error})"
                    )
            # An acked drain means the worker is already exiting its serve
            # loop on its own (pool shutdown, finalizers, segment release):
            # join it gracefully.  Only a failed drain — dead, hung, or
            # deadline miss — goes straight to SIGKILL + sweep.
            self._reap(handle, kill_first=not drained)
            retired_breaker = self.breakers.retire(name)
            record = {
                "action": "remove",
                "worker": name,
                "members_before": len(members_before),
                "members_after": len(members_after),
                "remapped_galleries": len(leaving),
                "remapped_sample": leaving[:_RESIZE_NAME_SAMPLE],
                "drained": drained,
                "drain_s": drain_s,
                "drain_error": drain_error,
                "breaker_retired": retired_breaker is not None,
                "duration_s": time.perf_counter() - started,
            }
            with self._lock:
                self._resize_history.append(record)
                self._resizes_completed += 1
            return dict(record)
        finally:
            self._resize_inflight = None
            self._resize_mutex.release()

    # ------------------------------------------------------------------ #
    # Accounting (what /stats reports)
    # ------------------------------------------------------------------ #
    def note_stats(self, name: str, record: Dict[str, Any]) -> None:
        """Remember the latest successful stats poll of ``name``.

        A poll racing a removal is dropped: re-inserting a departed
        member's snapshot after ``remove_worker`` purged it would leak the
        entry — and double-count the dead incarnation if the same name is
        later re-added and crashes.
        """
        with self._lock:
            handle = self._handles.get(name)
            if handle is None or handle.retired:
                return
            self._last_stats[name] = record

    def accumulate(self, records: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        """Global totals: the carried accumulator plus this cycle's polls."""
        with self._lock:
            acc = _empty_accumulator()
            _merge_record(acc, self._carried)
        for record in records.values():
            _merge_record(acc, record)
        return acc

    def per_worker(self, records: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        """The ``per_worker`` stats block: every member, never a regression.

        Each entry sums the member's carried totals (dead incarnations)
        with its freshest snapshot — this cycle's poll when it succeeded,
        the last successful poll otherwise (``stale: true``) — and carries
        the worker-registry residency detail (resident gallery names,
        ``auto_evictions``, the TTL/LRU bounds) alongside the counters.
        """
        with self._lock:
            block: Dict[str, Any] = {}
            for name in self._ring.members:
                live = records.get(name)
                snapshot = live if live is not None else self._last_stats.get(name)
                carried = self._worker_carried.get(name, _empty_worker_carried())
                detail = (snapshot or {}).get("registry") or {}
                resident = list(detail.get("resident", []))
                block[name] = {
                    "requests": carried["requests"]
                    + int((snapshot or {}).get("requests", 0)),
                    "errors": carried["errors"]
                    + int((snapshot or {}).get("errors", 0)),
                    "resident_galleries": len(resident),
                    "resident": resident,
                    "auto_evictions": carried["auto_evictions"]
                    + int(detail.get("auto_evictions", 0)),
                    "max_galleries": detail.get("max_galleries"),
                    "ttl_seconds": detail.get("ttl_seconds"),
                    "incarnation": self.breakers.incarnation(name),
                    "stale": live is None,
                }
            return block

    def resizes(self) -> Dict[str, Any]:
        """The ``resizes`` stats block: in-flight marker + bounded history."""
        with self._lock:
            return {
                "in_flight": self._resize_inflight,
                "completed": self._resizes_completed,
                "history": [dict(record) for record in self._resize_history],
            }

    @property
    def respawns(self) -> int:
        with self._lock:
            return self._respawns

    @property
    def worker_timeouts(self) -> int:
        with self._lock:
            return self._worker_timeouts

    @property
    def deaths(self) -> List[str]:
        with self._lock:
            return list(self._deaths)

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("the router is closed")

    def close(self) -> None:
        """Drain and stop every worker (idempotent).

        Each worker is drained in turn — its in-flight request finishes
        (the data lock serializes), the ``shutdown`` op is acknowledged,
        and the process is joined, which releases that worker's runner pool
        and ``/dev/shm`` segments before the channel ends close.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            with handle.data_lock, handle.control_lock:
                if handle.alive and handle.process.is_alive():
                    try:
                        handle.data_sock.settimeout(self.control_timeout_s)
                        send_message(handle.data_sock, {"kind": "shutdown", "scans": []})
                        recv_message(handle.data_sock, self._max_message_bytes)
                    except (OSError, FrameError, socket.timeout):
                        pass  # already dying; the reap below handles it
                handle.alive = False
                self._reap(handle)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetControlPlane(root={str(self.root)!r}, "
            f"members={self.members}, closed={self._closed})"
        )


__all__ = [
    "FleetControlPlane",
    "GalleryRootView",
    "HashRing",
    "ResizeInProgress",
    "WorkerDied",
    "WorkerHandle",
    "WorkerHung",
    "WorkerRetired",
]
