"""Tests for the gallery router (`repro.service.router`).

A real multi-process fleet serves every test: workers are forked, galleries
live in a shared on-disk root, and requests travel the length-prefixed IPC
transport.  The contracts under test: routed identify is bit-identical to a
single-process service over the same galleries (directly and through HTTP
under both codecs), enroll serializes per gallery under the router's
single-writer lock and persists before acknowledging, a SIGKILLed worker is
respawned with a lazy shard reload (no leaked ``/dev/shm`` segments, no
zombie processes, no double-counted stats), and shutdown drains cleanly.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.datasets.hcp import HCPLikeDataset
from repro.exceptions import ValidationError
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.runtime.shm import SEGMENT_PREFIX
from repro.service import (
    BackgroundHttpServer,
    EnrollRequest,
    GalleryRegistry,
    GalleryRouter,
    HttpServiceError,
    IdentificationService,
    IdentifyRequest,
    ServiceClient,
    ServiceConfig,
)
from repro.service.router import HashRing, _WorkerDied

WORKERS = 2
N_FEATURES = 40

_SHM_DIR = Path("/dev/shm")


def _split_gallery_names(per_worker: int = 2) -> list:
    """Deterministic names giving each of the two workers ``per_worker``."""
    ring = HashRing([f"worker-{index}" for index in range(WORKERS)])
    owned = {member: [] for member in ring.members}
    candidate = 0
    while any(len(names) < per_worker for names in owned.values()):
        name = f"gal-{candidate:03d}"
        candidate += 1
        owner = ring.lookup(name)
        if len(owned[owner]) < per_worker:
            owned[owner].append(name)
    return sorted(name for names in owned.values() for name in names)


def _response_document(response) -> dict:
    """Response dict with per-call noise (id, wall-clock timings) stripped."""
    document = response.to_dict()
    document.pop("request_id", None)
    document.pop("timings", None)
    return document


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A shared gallery root with 4 persisted galleries (2 per worker),
    per-gallery probes, and the single-process reference responses."""
    root = tmp_path_factory.mktemp("router-root")
    config = ServiceConfig(n_features=N_FEATURES)
    names = _split_gallery_names()
    registry = GalleryRegistry(root=root, config=config, cache=ArtifactCache())
    probes = {}
    for index, name in enumerate(names):
        dataset = HCPLikeDataset(
            n_subjects=8, n_regions=32, n_timepoints=80, random_state=11 + 7 * index
        )
        registry.build(name, dataset.generate_session("REST", encoding="LR", day=1))
        registry.persist(name)
        probes[name] = list(dataset.generate_session("REST", encoding="RL", day=2)[:2])
    service = IdentificationService(registry=registry, config=config)
    reference = {
        name: _response_document(
            service.identify(IdentifyRequest(gallery=name, scans=probes[name]))
        )
        for name in names
    }
    service.close()
    return {"root": root, "config": config, "names": names, "probes": probes, "reference": reference}


@pytest.fixture()
def router(workload):
    with GalleryRouter(workload["root"], config=workload["config"], workers=WORKERS) as fleet:
        yield fleet


def _identify(router, workload, name) -> dict:
    response = router.identify(
        IdentifyRequest(gallery=name, scans=workload["probes"][name])
    )
    return _response_document(response)


def _owner_pid(router, name: str):
    return router.healthz()["workers"][router.route(name)]["pid"]


def _kill_worker(router, name: str) -> int:
    """SIGKILL the worker owning ``name``; returns the dead pid."""
    pid = _owner_pid(router, name)
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        handle = router._handles[router.route(name)]
        if not handle.process.is_alive():
            return pid
        time.sleep(0.01)
    raise AssertionError(f"worker pid {pid} did not die")


def _router_children() -> list:
    return [
        child for child in multiprocessing.active_children()
        if child.name.startswith("repro-router-")
    ]


class TestBitIdentity:
    def test_routed_identify_matches_single_process_exactly(self, router, workload):
        for name in workload["names"]:
            assert _identify(router, workload, name) == workload["reference"][name]

    def test_routed_http_matches_under_both_codecs(self, router, workload):
        with BackgroundHttpServer(router, port=0) as server:
            for codec in ("json", "binary"):
                with ServiceClient(port=server.port, codec=codec) as client:
                    for name in workload["names"]:
                        response = client.identify(
                            IdentifyRequest(gallery=name, scans=workload["probes"][name])
                        )
                        assert _response_document(response) == workload["reference"][name]

    def test_identify_many_preserves_input_order(self, router, workload):
        names = workload["names"] + list(reversed(workload["names"]))
        responses = router.identify_many(
            [IdentifyRequest(gallery=name, scans=workload["probes"][name]) for name in names]
        )
        assert [response.gallery for response in responses] == names
        for name, response in zip(names, responses):
            assert _response_document(response) == workload["reference"][name]

    def test_unknown_gallery_is_a_request_level_error(self, router):
        probe = HCPLikeDataset(
            n_subjects=2, n_regions=32, n_timepoints=80, random_state=5
        ).generate_session("REST", encoding="RL", day=2)[:1]
        response = router.identify(IdentifyRequest(gallery="no-such", scans=list(probe)))
        assert response.status == "error"
        assert "no-such" in (response.error or "")


class TestEnroll:
    def test_enroll_creates_persists_and_serves(self, router, workload):
        dataset = HCPLikeDataset(
            n_subjects=6, n_regions=32, n_timepoints=80, random_state=99
        )
        scans = dataset.generate_session("REST", encoding="LR", day=1)
        response = router.enroll(
            EnrollRequest(gallery="freshly-routed", scans=list(scans), create=True)
        )
        assert response.ok and response.created
        # Persisted before the ack: the shared root is already authoritative.
        assert ReferenceGallery.is_saved(workload["root"] / "freshly-routed")
        assert "freshly-routed" in router.registry
        probe = dataset.generate_session("REST", encoding="RL", day=2)[:1]
        identified = router.identify(
            IdentifyRequest(gallery="freshly-routed", scans=list(probe))
        )
        assert identified.status == "ok"

    def test_writer_lock_serializes_one_gallery_not_the_fleet(self, router, workload):
        target = "locked-gallery"
        dataset = HCPLikeDataset(
            n_subjects=4, n_regions=32, n_timepoints=80, random_state=42
        )
        scans = list(dataset.generate_session("REST", encoding="LR", day=1))
        results = []
        done = threading.Event()

        lock = router._writer_lock(target)
        lock.acquire()
        try:
            thread = threading.Thread(
                target=lambda: (
                    results.append(
                        router.enroll(EnrollRequest(gallery=target, scans=scans, create=True))
                    ),
                    done.set(),
                ),
                daemon=True,
            )
            thread.start()
            assert not done.wait(0.3)  # the enroll is held at the writer lock
            # Reads against other galleries keep flowing meanwhile.
            name = workload["names"][0]
            assert _identify(router, workload, name) == workload["reference"][name]
        finally:
            lock.release()
        assert done.wait(10.0)
        assert results[0].ok and results[0].created

    def test_enroll_is_never_retried_after_a_mid_enroll_crash(
        self, router, workload, monkeypatch
    ):
        calls = []
        original = router._data_call

        def crash_once(handle, buffers):
            calls.append(handle.name)
            if len(calls) == 1:
                raise _WorkerDied("simulated crash mid-enroll")
            return original(handle, buffers)

        monkeypatch.setattr(router, "_data_call", crash_once)
        dataset = HCPLikeDataset(
            n_subjects=4, n_regions=32, n_timepoints=80, random_state=17
        )
        response = router.enroll(
            EnrollRequest(
                gallery="crash-enroll",
                scans=list(dataset.generate_session("REST", encoding="LR", day=1)),
                create=True,
            )
        )
        assert not response.ok
        assert "not retried" in (response.error or "")
        assert len(calls) == 1  # the write was not blindly resent


class TestCrashRecovery:
    def test_identify_survives_a_killed_worker_via_respawn_and_reload(
        self, router, workload
    ):
        name = workload["names"][0]
        assert _identify(router, workload, name) == workload["reference"][name]
        dead_pid = _kill_worker(router, name)
        # The very next identify detects the death, respawns the worker, and
        # the fresh incarnation lazily reloads the shard from the shared root.
        assert _identify(router, workload, name) == workload["reference"][name]
        assert router.respawns == 1
        assert _owner_pid(router, name) != dead_pid
        assert not list(_SHM_DIR.glob(f"{SEGMENT_PREFIX}-{dead_pid}-*"))

    def test_healthz_respawns_and_flags_the_dead_worker(self, router, workload):
        name = workload["names"][0]
        owner = router.route(name)
        dead_pid = _kill_worker(router, name)
        health = router.healthz()
        assert health["status"] == "ok"  # the fleet recovered inside the probe
        assert health["workers"][owner]["respawned"] is True
        assert health["workers"][owner]["alive"] is True
        assert health["workers"][owner]["pid"] not in (None, dead_pid)
        untouched = [entry for key, entry in health["workers"].items() if key != owner]
        assert all(entry["respawned"] is False for entry in untouched)

    def test_stats_never_double_count_across_a_respawn(self, router, workload):
        name = workload["names"][0]
        for _ in range(3):
            _identify(router, workload, name)
        first = router.stats()
        assert first.requests == 3
        assert first.galleries.get(name) == 3
        _kill_worker(router, name)
        for _ in range(2):
            _identify(router, workload, name)
        second = router.stats()
        # 3 carried from the dead incarnation + 2 from the fresh one: the
        # respawn neither re-counts the old worker nor drops its totals.
        assert second.requests == 5
        assert second.galleries.get(name) == 5
        assert second.router["respawns"] == 1
        assert second.router["alive_workers"] == WORKERS

    def test_crash_leaves_no_zombies_or_segments_after_close(self, workload):
        router = GalleryRouter(
            workload["root"], config=workload["config"], workers=WORKERS
        )
        try:
            name = workload["names"][0]
            _identify(router, workload, name)
            dead_pid = _kill_worker(router, name)
            _identify(router, workload, name)
            pids = [entry["pid"] for entry in router.healthz()["workers"].values()]
        finally:
            router.close()
        for pid in pids + [dead_pid]:
            assert not list(_SHM_DIR.glob(f"{SEGMENT_PREFIX}-{pid}-*"))
        assert not _router_children()


class TestDeadlineFailover:
    def test_hung_worker_fails_over_within_the_deadline(self, workload):
        """Satellite regression: a SIGSTOPped worker must be timed out, killed,
        and the identify retried on its respawn — never waited on forever."""
        deadline_s = 1.0
        config = workload["config"].replace(
            request_deadline_s=deadline_s, retry_attempts=1
        )
        router = GalleryRouter(workload["root"], config=config, workers=WORKERS)
        try:
            name = workload["names"][0]
            assert _identify(router, workload, name) == workload["reference"][name]
            hung_pid = _owner_pid(router, name)
            os.kill(hung_pid, signal.SIGSTOP)
            try:
                start = time.monotonic()
                document = _identify(router, workload, name)
                elapsed = time.monotonic() - start
            finally:
                # The reap SIGKILLs the stopped process, but never leave a
                # stopped pid behind if the assertion path changes.
                try:
                    os.kill(hung_pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert document == workload["reference"][name]
            # One deadline to detect the hang, one for the retried attempt,
            # plus kill/respawn/reload slack — far below a blind blocking read.
            assert elapsed < deadline_s * 2 + 8.0
            assert elapsed >= deadline_s  # the deadline, not luck, found it
            assert router.worker_timeouts == 1
            assert router.respawns == 1
            assert _owner_pid(router, name) != hung_pid
            assert any("deadline" in reason for reason in router.deaths)
        finally:
            router.close()
        assert not _router_children()

    def test_breaker_opens_fails_fast_and_heals_on_ping(
        self, router, workload, monkeypatch
    ):
        name = workload["names"][0]
        worker = router.route(name)
        threshold = router.policy.breaker_threshold

        def always_dead(handle, buffers):
            raise _WorkerDied("synthetic data-channel failure")

        monkeypatch.setattr(router, "_data_call", always_dead)
        responses = []
        while not router.breaker(worker).tripped:
            responses.append(
                router.identify(
                    IdentifyRequest(gallery=name, scans=workload["probes"][name])
                )
            )
            assert len(responses) <= threshold  # each identify records >= 1 failure
        # The first exhausted its retries against the dead channel; the last
        # may already have tripped the breaker mid-retry and failed fast.
        assert "WorkerCrashed" in (responses[0].error or "")

        # Open breaker: fail fast with the typed degraded error, no deadline burned.
        degraded = router.identify(
            IdentifyRequest(gallery=name, scans=workload["probes"][name])
        )
        assert degraded.status == "error"
        assert "WorkerDegraded" in (degraded.error or "")
        assert "synthetic data-channel failure" in (degraded.error or "")
        enroll = router.enroll(EnrollRequest(gallery=name, scans=[]))
        assert not enroll.ok and "WorkerDegraded" in (enroll.error or "")

        # Failure detail is observable before healing.
        stats_block = router.stats().router
        snapshot = stats_block["breakers"][worker]
        assert snapshot["state"] == "open"
        assert snapshot["consecutive_failures"] >= threshold
        assert snapshot["last_error"] == "synthetic data-channel failure"
        assert any("synthetic data-channel failure" in r for r in router.deaths)

        # A health probe pings over the control channel (untouched by the
        # patch): the arc answers, the breaker heals, detail survives.
        monkeypatch.undo()
        health = router.healthz()
        entry = health["workers"][worker]
        assert entry["breaker"] == "open"  # pre-probe state that degraded it
        assert entry["healed"] is True
        assert entry["last_error"] == "synthetic data-channel failure"
        assert not router.breaker(worker).tripped
        assert _identify(router, workload, name) == workload["reference"][name]

    def test_degraded_healthz_is_a_503_with_worker_detail(
        self, router, workload, monkeypatch
    ):
        """Satellite: GET /healthz must answer 503 when any arc is degraded,
        and the document must say which worker and why."""
        name = workload["names"][0]
        target = router.route(name)
        original = router._control_call

        def refuse_target(handle, op):
            if handle.name == target:
                raise _WorkerDied("control channel refused")
            return original(handle, op)

        monkeypatch.setattr(router, "_control_call", refuse_target)
        with BackgroundHttpServer(router, port=0) as server:
            with ServiceClient(port=server.port) as service_client:
                with pytest.raises(HttpServiceError) as excinfo:
                    service_client.healthz()
        assert excinfo.value.status == 503
        payload = excinfo.value.payload
        assert payload["status"] == "degraded"
        entry = payload["workers"][target]
        assert entry["alive"] is False
        assert entry["last_error"] == "control channel refused"
        # Both probe attempts recorded against the arc's breaker.
        assert entry["consecutive_failures"] >= 1
        assert entry["breaker"] in {"closed", "open"}
        assert all(
            peer["alive"]
            for worker_name, peer in payload["workers"].items()
            if worker_name != target
        )
        # Once the control channel answers again, the next probe heals: 200.
        monkeypatch.undo()
        assert router.healthz()["status"] == "ok"


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(self, workload):
        router = GalleryRouter(
            workload["root"], config=workload["config"], workers=WORKERS
        )
        name = workload["names"][0]
        _identify(router, workload, name)
        router.close()
        router.close()
        assert not _router_children()
        with pytest.raises(ValidationError):
            router.identify(
                IdentifyRequest(gallery=name, scans=workload["probes"][name])
            )
        with pytest.raises(ValidationError):
            router.stats()

    def test_fleet_shape_and_routing_surface(self, router, workload):
        assert router.workers == [f"worker-{index}" for index in range(WORKERS)]
        assert router.ring_size == WORKERS * workload["config"].ring_replicas
        for name in workload["names"]:
            assert router.route(name) in router.workers
        owners = {router.route(name) for name in workload["names"]}
        assert owners == set(router.workers)  # the split fixture spans both

    def test_registry_view_reads_the_shared_root(self, router, workload):
        names = router.registry.names()
        for name in workload["names"]:
            assert name in names
            assert name in router.registry
        assert len(router.registry) == len(names)
        assert "definitely-missing" not in router.registry
        assert "../escape" not in router.registry
        assert "" not in router.registry

    def test_router_requires_at_least_one_worker(self, workload):
        with pytest.raises(ValidationError):
            GalleryRouter(workload["root"], config=workload["config"], workers=0)

    def test_stats_report_the_fleet_split(self, router, workload):
        for name in workload["names"]:
            _identify(router, workload, name)
        stats = router.stats()
        assert stats.requests == len(workload["names"])
        router_block = stats.router
        assert router_block["workers"] == WORKERS
        assert router_block["ring_replicas"] == workload["config"].ring_replicas
        per_worker = router_block["per_worker"]
        assert sorted(per_worker) == router.workers  # every member listed
        assert sum(entry["requests"] for entry in per_worker.values()) == stats.requests
        for entry in per_worker.values():
            assert entry["requests"] > 0
            assert entry["resident_galleries"] == len(entry["resident"])
            assert entry["resident_galleries"] > 0  # identifies made it resident
            assert entry["auto_evictions"] == 0  # no residency cap configured
            assert entry["max_galleries"] is None
            assert entry["ttl_seconds"] is None
            assert entry["incarnation"] == 0
            assert entry["stale"] is False
        summary = "\n".join(stats.summary_lines())
        assert "router" in summary
