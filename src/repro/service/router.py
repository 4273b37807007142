"""Gallery router: the data plane of multi-process scale-out.

One :class:`~repro.service.service.IdentificationService` is one process and
one GIL.  :class:`GalleryRouter` turns the servable process into a servable
fleet — but since the control-plane split it owns only the **request path**:
route a gallery name through the fleet's consistent-hash ring, frame the
request onto the owning worker's data channel, apply the retry/breaker
policy, and unwrap the reply.  Everything about *who is in the fleet* —
ring membership, worker spawn/reap/respawn, live ``add_worker`` /
``remove_worker`` resizes, breaker registry, stats carry-forward — lives in
the control plane (:class:`~repro.service.fleet.FleetControlPlane`,
exposed as :attr:`GalleryRouter.fleet`).

The router exposes the same facade the HTTP front end already serves
(``identify`` / ``identify_async`` / ``enroll`` / ``stats`` / ``healthz`` /
``close`` plus a name-only ``registry`` view, and now ``add_worker`` /
``remove_worker`` for ``POST /admin/workers``) — so ``serve
--router-workers N`` swaps the single service for a fleet without touching
the HTTP layer's routes or codecs.

**Correctness.**  Requests travel to workers over the length-prefixed IPC
transport of :mod:`repro.service.worker`, which reuses the HTTP binary frame
codec — scan float64 bit patterns survive the hop exactly, and the worker
serves them through the same sync ``identify`` path as a single-process
deployment.  Routed identify responses are therefore bit-identical to
single-process serving under either HTTP codec (pinned by
``benchmarks/bench_router_scaling.py``) — **including during a live
resize** (pinned by ``benchmarks/bench_fleet_churn.py``): remapping a
gallery only changes where it is computed, never what is computed.

**Writes.**  Enroll takes a per-gallery single-writer lock (owned by the
control plane) and resolves the owning worker *inside* that lock:
concurrent enrolls against one gallery serialize, and an enroll racing a
fleet resize routes against the committed ring — the write lands exactly
once, on the owner the commit chose.  A resize holds the same locks as a
*write fence* over the galleries it remaps (from before the warm or
commit until after the commit), so an enroll to a remapping gallery
either completes durably before the new owner loads it or blocks and
re-routes to the new owner — a resident copy can never go silently stale
across the handoff.  Workers persist a successful enroll to the shared
root before acknowledging, so the write survives any later crash of that
worker.

**Failure handling.**  Every data-channel read is armed with a per-request
deadline (``config.request_deadline_s``), so a worker that *hangs* is
indistinguishable from one that died: the read times out and the worker is
handled as dead.  Deaths are reported to the control plane, which reaps
(SIGKILL-first), sweeps ``/dev/shm``, folds the last-polled stats snapshot
into the carried accumulators, and respawns.  Identify is read-only and is
retried (bounded by ``config.retry_attempts``, jittered exponential
backoff) — each attempt re-routes, so a retry that lands after a resize
commit follows the new ring.  A mid-enroll crash is **never** blindly
retried (the write may have persisted) and surfaces as an error response;
an enroll whose worker *drained out of the fleet before the frame was
sent* surfaces a distinct typed error that is safe to resend.  Per-worker
circuit breakers (kept in the fleet's
:class:`~repro.service.resilience.BreakerRegistry`) degrade an arc past
``config.breaker_threshold`` consecutive failures until a health ping
heals it.

Shutdown (:meth:`GalleryRouter.close`) delegates to the control plane,
which drains workers one by one before the channel ends close.
"""

from __future__ import annotations

import asyncio
import random
import socket
import struct
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.exceptions import ValidationError
from repro.service.codec import (
    FrameError,
    encode_enroll_frames,
    encode_identify_frames,
)
from repro.service.config import ServiceConfig
from repro.service.fleet import (
    FleetControlPlane,
    HashRing,
    ResizeInProgress,
    WorkerDied,
    WorkerHandle,
    WorkerHung,
    WorkerRetired,
)
from repro.service.messages import (
    EnrollRequest,
    EnrollResponse,
    IdentifyRequest,
    IdentifyResponse,
    ServiceStats,
)
from repro.service.resilience import CircuitBreaker
from repro.service.worker import recv_message, send_message

PathLike = Union[str, Path]

# Backwards-compatible aliases: these names grew up in this module and are
# pinned by tests and downstream imports.
_WorkerDied = WorkerDied
_WorkerHung = WorkerHung
_WorkerRetired = WorkerRetired


# --------------------------------------------------------------------------- #
# The router
# --------------------------------------------------------------------------- #
class GalleryRouter:
    """Route identify/enroll traffic across a fleet of worker processes.

    Parameters
    ----------
    root:
        Shared gallery root directory (each worker's registry loads lazily
        from it; workers persist writes back into it).
    config:
        Deployment knobs.  ``router_workers`` sets the initial fleet size
        when ``workers`` is not given; ``ring_replicas`` sets the
        virtual-node count; ``warm_on_add`` / ``drain_deadline_s`` steer
        live resizes; everything else (batching, residency, cache, backend)
        is applied per worker.
    workers:
        Explicit initial fleet size override (>= 1).
    control_timeout_s:
        Socket timeout of control-channel operations (ping/stats/warm); a
        worker that cannot answer within it is treated as dead and
        respawned.
    """

    def __init__(
        self,
        root: PathLike,
        config: Optional[ServiceConfig] = None,
        workers: Optional[int] = None,
        control_timeout_s: float = 30.0,
    ):
        self.config = config if config is not None else ServiceConfig()
        count = int(workers if workers is not None else self.config.router_workers)
        if count < 1:
            raise ValidationError(
                f"GalleryRouter needs at least one worker, got {count} "
                "(set router_workers >= 1 or pass workers=)"
            )
        #: The control plane: membership, lifecycle, breakers, accounting.
        self.fleet = FleetControlPlane(
            root, self.config, workers=count, control_timeout_s=control_timeout_s
        )
        self.root = self.fleet.root
        self.control_timeout_s = self.fleet.control_timeout_s
        #: Deadline / retry / breaker knobs from the config, in one bundle.
        self.policy = self.fleet.policy
        #: Name-only registry view over the shared root (HTTP front end).
        self.registry = self.fleet.registry
        self._max_message_bytes = int(self.config.max_stream_bytes)
        #: Jitter source for retry backoff (timing-only; responses are
        #: deterministic regardless of when a retry lands).
        self._retry_rng = random.Random(0x5EED)
        self._closed = False

    # ------------------------------------------------------------------ #
    # IPC calls
    # ------------------------------------------------------------------ #
    def _data_call(
        self, handle: WorkerHandle, buffers: Sequence[bytes]
    ) -> Dict[str, Any]:
        """One request/reply on the data channel (serialized per worker).

        The read is armed with the per-request deadline
        (``config.request_deadline_s``): a worker that is merely *hung* —
        stuck in a syscall, SIGSTOPped, livelocked — times out and is
        handled exactly like a dead one, so no arc can stall forever.  A
        handle that was drained out of the fleet raises
        :class:`~repro.service.fleet.WorkerRetired` *before* anything is
        sent, so the caller knows the operation never happened.
        """
        body = b"".join(buffers)
        with handle.data_lock:
            if not handle.alive:
                if handle.retired:
                    raise WorkerRetired(
                        f"{handle.name} drained out of the fleet before the "
                        "request was sent"
                    )
                raise WorkerDied("worker is marked dead")
            try:
                handle.data_sock.settimeout(self.policy.request_deadline_s)
                handle.data_sock.sendall(struct.pack("<I", len(body)) + body)
                message = recv_message(handle.data_sock, self._max_message_bytes)
            except socket.timeout as exc:
                raise WorkerHung(
                    f"no reply within the {self.policy.request_deadline_s}s deadline"
                ) from exc
            except (OSError, FrameError) as exc:
                raise WorkerDied(str(exc)) from exc
        if message is None:
            raise WorkerDied("worker closed the data channel")
        return message[0]

    def _control_call(self, handle: WorkerHandle, op: str) -> Dict[str, Any]:
        """One request/reply on the control channel (time-bounded)."""
        with handle.control_lock:
            if not handle.alive:
                raise WorkerDied("worker is marked dead")
            try:
                handle.control_sock.settimeout(self.control_timeout_s)
                send_message(handle.control_sock, {"kind": op, "scans": []})
                message = recv_message(handle.control_sock, self._max_message_bytes)
            except socket.timeout as exc:
                raise WorkerHung(
                    f"no {op} reply within the {self.control_timeout_s}s control timeout"
                ) from exc
            except (OSError, FrameError) as exc:
                raise WorkerDied(str(exc)) from exc
        if message is None:
            raise WorkerDied("worker closed the control channel")
        return message[0]

    @staticmethod
    def _document(reply: Dict[str, Any]) -> Dict[str, Any]:
        """Unwrap a worker reply; op-level failures raise.

        Request-level errors (unknown gallery, bad payload) come back inside
        the response document with ``status="error"`` exactly as a
        single-process service would return them; ``ok=False`` here means
        the *operation* failed (codec violation, unexpected worker bug).
        """
        if not reply.get("ok", False):
            raise ValidationError(f"worker operation failed: {reply.get('error')}")
        document = reply.get("document")
        return document if isinstance(document, dict) else {}

    # ------------------------------------------------------------------ #
    # Serving facade (the surface HttpServiceServer consumes)
    # ------------------------------------------------------------------ #
    def route(self, gallery: str) -> str:
        """The worker name the ring assigns to ``gallery``."""
        return self.fleet.route(gallery)

    def identify(self, request: IdentifyRequest) -> IdentifyResponse:
        """Serve one identify on the owning worker (bounded retry on failure).

        Identify is read-only, so a crash or timeout mid-request is safe to
        retry: the dead (or hung → killed) worker is respawned — lazily
        reloading its shard from disk — and the request is re-sent, up to
        ``config.retry_attempts`` extra attempts spaced by jittered
        exponential backoff.  Every attempt re-routes through the ring, so
        a retry racing a fleet resize lands on the committed owner.  If the
        arc's breaker is open (too many consecutive failures), the request
        fails fast instead of burning a deadline against a worker that
        keeps dying.
        """
        self._check_open()
        buffers = encode_identify_frames(request)
        last_error = "no live worker"
        attempts = 1 + self.policy.retry.attempts
        for attempt in range(attempts):
            worker = self.fleet.route(request.gallery)
            breaker = self.fleet.breaker(worker)
            if breaker.tripped:
                return self._degraded_identify(request, worker, breaker)
            try:
                handle = self.fleet.handle_for(worker)
                reply = self._data_call(handle, buffers)
            except WorkerRetired as exc:
                # The member drained away before the frame was sent: nothing
                # failed, nothing to break — re-route immediately.
                last_error = str(exc)
                continue
            except WorkerDied as exc:
                last_error = str(exc)
                breaker.record_failure(last_error)
                self.fleet.on_worker_death(
                    handle, hung=isinstance(exc, WorkerHung), reason=last_error
                )
                if attempt + 1 < attempts:
                    delay = self.policy.retry.backoff_s(attempt, self._retry_rng)
                    if delay > 0:
                        time.sleep(delay)
                continue
            breaker.record_success()
            return IdentifyResponse.from_dict(self._document(reply))
        return IdentifyResponse(
            request_id=request.request_id,
            gallery=request.gallery,
            status="error",
            metadata=dict(request.metadata),
            error=f"WorkerCrashed: {last_error}",
        )

    def _degraded_identify(
        self, request: IdentifyRequest, worker: str, breaker: CircuitBreaker
    ) -> IdentifyResponse:
        """Fast-fail against an arc whose breaker is open."""
        snap = breaker.snapshot()
        return IdentifyResponse(
            request_id=request.request_id,
            gallery=request.gallery,
            status="error",
            metadata=dict(request.metadata),
            error=(
                f"WorkerDegraded: {worker} breaker open after "
                f"{snap['consecutive_failures']} consecutive failures "
                f"(last: {snap['last_error']}); a successful health ping heals it"
            ),
        )

    async def identify_async(self, request: IdentifyRequest) -> IdentifyResponse:
        """Async facade: run the routed identify off the event loop.

        Concurrent HTTP requests targeting different workers proceed in
        parallel (the blocking socket I/O releases the GIL); requests to the
        same worker serialize on its data channel.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.identify, request)

    def identify_many(
        self, requests: Sequence[IdentifyRequest]
    ) -> List[IdentifyResponse]:
        """Serve many identifies concurrently across the fleet (input order)."""
        requests = list(requests)
        if not requests:
            return []
        if len(requests) == 1:
            return [self.identify(requests[0])]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=min(len(requests), max(2, len(self.fleet.members)))
        ) as pool:
            return list(pool.map(self.identify, requests))

    def enroll(self, request: EnrollRequest) -> EnrollResponse:
        """Enroll on the owning worker under the gallery's single-writer lock.

        Concurrent enrolls against one gallery serialize here (the worker's
        serve lock makes them safe; the router lock makes them *ordered*).
        The owner is resolved **inside** the writer lock: an enroll racing a
        fleet resize routes against the committed ring, so the write lands
        exactly once on the owner the commit chose.  A crash mid-enroll is
        never retried — the worker persists before acknowledging, so the
        write may already be on disk and a blind resend could enroll the
        scans twice.  A worker that *drained out of the fleet* before the
        frame was sent surfaces a distinct typed error instead: no write
        occurred, so resending (now routed to the new owner) is safe.
        """
        self._check_open()
        buffers = encode_enroll_frames(request)
        with self._writer_lock(request.gallery):
            worker = self.fleet.route(request.gallery)
            breaker = self.fleet.breaker(worker)
            if breaker.tripped:
                snap = breaker.snapshot()
                return EnrollResponse(
                    request_id=request.request_id,
                    gallery=request.gallery,
                    status="error",
                    error=(
                        f"WorkerDegraded: {worker} breaker open after "
                        f"{snap['consecutive_failures']} consecutive failures "
                        f"(last: {snap['last_error']}); enroll was not attempted"
                    ),
                )
            try:
                handle = self.fleet.handle_for(worker)
                reply = self._data_call(handle, buffers)
            except WorkerRetired as exc:
                return EnrollResponse(
                    request_id=request.request_id,
                    gallery=request.gallery,
                    status="error",
                    error=(
                        f"WorkerRetired: {exc}; no write occurred — resending "
                        "is safe and will route to the new owner"
                    ),
                )
            except WorkerDied as exc:
                hung = isinstance(exc, WorkerHung)
                breaker.record_failure(str(exc))
                self.fleet.on_worker_death(handle, hung=hung, reason=str(exc))
                verb = "timed out" if hung else "died"
                return EnrollResponse(
                    request_id=request.request_id,
                    gallery=request.gallery,
                    status="error",
                    error=(
                        f"WorkerCrashed: worker {verb} mid-enroll ({exc}); not "
                        "retried — check the gallery state before resending"
                    ),
                )
            breaker.record_success()
        return EnrollResponse.from_dict(self._document(reply))

    def _writer_lock(self, gallery: str) -> threading.Lock:
        # The registry lives in the control plane so a resize can use the
        # same locks as a write fence over the galleries it remaps.
        return self.fleet.writer_lock(gallery)

    # ------------------------------------------------------------------ #
    # Live membership (delegated to the control plane)
    # ------------------------------------------------------------------ #
    def add_worker(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Grow the fleet by one worker (spawn → warm → commit)."""
        self._check_open()
        return self.fleet.add_worker(name)

    def remove_worker(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Shrink the fleet by one worker (commit → drain → reap → retire)."""
        self._check_open()
        return self.fleet.remove_worker(name)

    # ------------------------------------------------------------------ #
    # Health / stats
    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, Any]:
        """Ping every worker; respawn the dead; heal breakers; report detail.

        ``status`` is ``"ok"`` when every worker answered (including ones
        that had to be respawned first — their entry carries
        ``respawned: true``) and ``"degraded"`` if any worker could not be
        brought back.  Each entry carries the arc's failure detail —
        breaker state, consecutive-failure count, last error — as of before
        the probe for arcs that answered (a successful ping is also what
        **heals** an open breaker, ``healed: true``), and as of after the
        failed probe for arcs that did not, so a degraded 503 always says
        what went wrong.
        """
        self._check_open()
        workers: Dict[str, Any] = {}
        for name in self.fleet.members:
            breaker = self.fleet.breaker(name)
            # Snapshot before probing: this is the state that degraded the
            # arc, which the probe below may immediately heal.
            detail = breaker.snapshot()
            respawns_before = self.fleet.respawns
            document = None
            for _attempt in range(2):
                try:
                    handle = self.fleet.handle_for(name)
                    document = self._document(self._control_call(handle, "ping"))
                    break
                except WorkerRetired:
                    break  # removed mid-healthz: drop it from the report
                except WorkerDied as exc:
                    breaker.record_failure(str(exc))
                    self.fleet.on_worker_death(
                        handle, hung=isinstance(exc, WorkerHung), reason=str(exc)
                    )
            if name not in set(self.fleet.members):
                continue
            if document is not None:
                breaker.record_success()
            else:
                # The probe itself discovered the failure: report the
                # post-probe detail instead, or a degraded entry could not
                # say what killed the arc (``healed`` stays False either
                # way — nothing answered).
                detail = breaker.snapshot()
            workers[name] = {
                "alive": document is not None,
                "respawned": self.fleet.respawns > respawns_before,
                "pid": None if document is None else document.get("pid"),
                "resident": [] if document is None else list(document.get("resident", [])),
                "breaker": detail["state"],
                "consecutive_failures": detail["consecutive_failures"],
                "total_failures": detail["total_failures"],
                "last_error": detail["last_error"],
                "healed": detail["state"] == "open" and document is not None,
            }
        status = "ok" if all(entry["alive"] for entry in workers.values()) else "degraded"
        return {"status": status, "galleries": self.registry.names(), "workers": workers}

    def stats(self) -> ServiceStats:
        """Aggregate serving counters across the fleet.

        Per-worker snapshots are summed with the carried accumulator of
        every dead (or removed) incarnation; each successful poll refreshes
        the snapshot that would be carried if that worker crashed next, so
        a respawn can neither double-count a worker nor drop
        previously-reported totals — and the ``per_worker`` block lists
        every member even when its poll failed this cycle.
        """
        self._check_open()
        records: Dict[str, Dict[str, Any]] = {}
        for name in self.fleet.members:
            for _attempt in range(2):
                try:
                    handle = self.fleet.handle_for(name)
                    record = self._document(self._control_call(handle, "stats"))
                except WorkerRetired:
                    break  # removed mid-poll: nothing to record
                except WorkerDied as exc:
                    self.fleet.on_worker_death(
                        handle, hung=isinstance(exc, WorkerHung), reason=str(exc)
                    )
                    continue
                records[name] = record
                self.fleet.note_stats(name, record)
                break
        return self._merged_stats(records)

    def _merged_stats(self, records: Dict[str, Dict[str, Any]]) -> ServiceStats:
        acc = self.fleet.accumulate(records)
        cache_kinds = {}
        for kind, entry in acc["cache_kinds"].items():
            lookups = entry.get("hits", 0) + entry.get("misses", 0)
            cache_kinds[kind] = {
                **entry,
                "hit_rate": (entry.get("hits", 0) / lookups) if lookups else 0.0,
            }
        cache_dir = next(
            (
                record["cache_dir"]
                for record in records.values()
                if record.get("cache_dir") is not None
            ),
            None,
        )
        stats = ServiceStats(
            requests=acc["requests"],
            probes=acc["probes"],
            batches=acc["batches"],
            coalesced_batches=acc["coalesced_batches"],
            max_batch_size=acc["max_batch_size"],
            errors=acc["errors"],
            batchers=acc["batchers"],
            galleries=dict(acc["galleries"]),
            cache_kinds=cache_kinds,
            cache_dir=cache_dir,
        )
        stats.router = {
            "workers": len(self.fleet.members),
            "alive_workers": self.fleet.alive_count(),
            "ring_size": self.fleet.ring_size,
            "ring_replicas": self.config.ring_replicas,
            "respawns": self.fleet.respawns,
            "worker_timeouts": self.fleet.worker_timeouts,
            "deaths": self.fleet.deaths,
            "breakers": self.fleet.breakers.snapshot(),
            "retired_breakers": self.fleet.breakers.retired_snapshots(),
            "per_worker": self.fleet.per_worker(records),
            "resizes": self.fleet.resizes(),
        }
        return stats

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("the router is closed")

    @property
    def _handles(self) -> Dict[str, WorkerHandle]:
        """The control plane's live handle map (shared, not a copy)."""
        return self.fleet._handles

    @property
    def workers(self) -> List[str]:
        """Sorted worker names on the ring."""
        return self.fleet.members

    @property
    def ring_size(self) -> int:
        """Number of virtual nodes on the ring (``workers * ring_replicas``)."""
        return self.fleet.ring_size

    @property
    def respawns(self) -> int:
        """How many worker incarnations have been replaced after a crash."""
        return self.fleet.respawns

    @property
    def worker_timeouts(self) -> int:
        """How many worker deaths were deadline timeouts (hung, not dead)."""
        return self.fleet.worker_timeouts

    @property
    def deaths(self) -> List[str]:
        """Recent worker-death reasons, oldest first (bounded window)."""
        return self.fleet.deaths

    def breaker(self, worker: str) -> CircuitBreaker:
        """The consecutive-failure breaker guarding ``worker``'s arc."""
        return self.fleet.breaker(worker)

    def close(self) -> None:
        """Drain and stop every worker (idempotent).

        New requests are rejected first; the control plane then drains each
        worker in turn — its in-flight request finishes (the data lock
        serializes), the ``shutdown`` op is acknowledged, and the process
        is joined, which releases that worker's runner pool and
        ``/dev/shm`` segments before the channel ends close.
        """
        self._closed = True
        self.fleet.close()

    def __enter__(self) -> "GalleryRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GalleryRouter(root={str(self.root)!r}, "
            f"workers={self.fleet.members}, closed={self._closed})"
        )


__all__ = ["GalleryRouter", "HashRing", "ResizeInProgress"]
