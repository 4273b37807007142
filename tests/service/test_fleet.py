"""Tests for the fleet control plane (`repro.service.fleet`).

A real forked fleet backs every test.  The contracts under test: a live
``add_worker`` warms the joining worker before the ring commits and a live
``remove_worker`` commits the shrunken ring before draining the leaver, so
identifies stay bit-identical to the single-process reference across every
resize; one resize runs at a time (typed ``ResizeInProgress``); a drain
waits out the in-flight request and folds the leaver's final stats into
the carried accumulator (fleet totals never regress); an enroll that races
a removal fails with the typed safe-to-resend error instead of a blind
retry; the ``per_worker`` stats block lists every member even when a poll
fails; and the HTTP admin endpoint gates resizes behind a bearer token.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets.hcp import HCPLikeDataset
from repro.exceptions import ValidationError
from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import (
    BackgroundHttpServer,
    EnrollRequest,
    GalleryRouter,
    GalleryRegistry,
    HttpServiceError,
    IdentificationService,
    IdentifyRequest,
    ResizeInProgress,
    ServiceClient,
    ServiceConfig,
)
from repro.service.router import HashRing, _WorkerDied, _WorkerRetired

WORKERS = 2
N_FEATURES = 40


def _split_gallery_names(per_worker: int = 2) -> list:
    """Deterministic names giving each of the two seed workers ``per_worker``."""
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
    document = response.to_dict()
    document.pop("request_id", None)
    document.pop("timings", None)
    return document


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A shared gallery root with 4 persisted galleries (2 per seed worker),
    per-gallery probes, and the single-process reference responses."""
    root = tmp_path_factory.mktemp("fleet-root")
    config = ServiceConfig(n_features=N_FEATURES)
    names = _split_gallery_names()
    registry = GalleryRegistry(root=root, config=config, cache=ArtifactCache())
    probes = {}
    for index, name in enumerate(names):
        dataset = HCPLikeDataset(
            n_subjects=8, n_regions=32, n_timepoints=80, random_state=23 + 7 * index
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
    return {
        "root": root,
        "config": config,
        "names": names,
        "probes": probes,
        "reference": reference,
    }


@pytest.fixture()
def router(workload):
    with GalleryRouter(
        workload["root"], config=workload["config"], workers=WORKERS
    ) as fleet:
        yield fleet


def _identify(router, workload, name) -> dict:
    response = router.identify(
        IdentifyRequest(gallery=name, scans=workload["probes"][name])
    )
    return _response_document(response)


def _identify_all_match(router, workload):
    for name in workload["names"]:
        assert _identify(router, workload, name) == workload["reference"][name]


class TestAddWorker:
    def test_add_warms_commits_and_stays_bit_identical(self, router, workload):
        record = router.add_worker()
        assert record["action"] == "add"
        assert record["worker"] == f"worker-{WORKERS}"
        assert (record["members_before"], record["members_after"]) == (2, 3)
        assert router.workers == [f"worker-{index}" for index in range(3)]
        # The joining arc was prefetched before the commit (no residency cap
        # in this fixture, so nothing was clipped).
        assert record["warmed"] == record["remapped_galleries"]
        assert record["warm_failed"] == 0
        _identify_all_match(router, workload)
        # The newcomer is a first-class member: breaker registered, listed
        # in per_worker, pingable.
        stats_block = router.stats().router
        assert sorted(stats_block["per_worker"]) == router.workers
        assert record["worker"] in stats_block["breakers"]
        assert router.healthz()["status"] == "ok"

    def test_add_rejects_a_duplicate_member_name(self, router):
        with pytest.raises(ValidationError):
            router.add_worker("worker-0")

    def test_worker_names_are_never_reused(self, router):
        added = router.add_worker()["worker"]
        router.remove_worker(added)
        again = router.add_worker()["worker"]
        assert again != added  # a fresh incarnation never shadows a retiree

    def test_auto_names_skip_an_explicit_collision(self, router):
        # An operator squatting on the next monotonic index must not make
        # the auto-generated name overwrite (and leak) the live handle.
        router.add_worker(f"worker-{WORKERS}")
        squatter = router.fleet._handles[f"worker-{WORKERS}"]
        record = router.add_worker()
        assert record["worker"] == f"worker-{WORKERS + 1}"
        assert len(router.workers) == WORKERS + 2
        assert len(set(router.workers)) == WORKERS + 2
        assert router.fleet._handles[f"worker-{WORKERS}"] is squatter
        assert squatter.alive and squatter.process.is_alive()


class TestRemoveWorker:
    def test_remove_drains_and_totals_never_regress(self, router, workload):
        for name in workload["names"]:
            _identify(router, workload, name)
        before = router.stats()
        assert before.requests == len(workload["names"])
        victim = router.workers[-1]
        record = router.remove_worker()
        assert record["action"] == "remove"
        assert record["worker"] == victim
        assert record["drained"] is True
        assert record["drain_error"] is None
        assert record["breaker_retired"] is True
        assert router.workers == ["worker-0"]
        after = router.stats()
        # The leaver's final drain snapshot was folded into the carried
        # accumulator: nothing the fleet ever reported is lost.
        assert after.requests == before.requests
        assert after.galleries == before.galleries
        router_block = after.router
        assert sorted(router_block["per_worker"]) == ["worker-0"]
        assert victim not in router_block["breakers"]
        retired = router_block["retired_breakers"]
        assert any(entry["worker"] == victim for entry in retired)
        # The survivors own everything now, still bit-identical.
        _identify_all_match(router, workload)
        assert router.stats().requests == 2 * len(workload["names"])

    def test_clean_drain_joins_the_worker_gracefully(self, router):
        # An acked drain means the worker exits its own close() path (pool
        # shutdown, segment release): it must be joined, not SIGKILLed.
        victim = max(router.workers, key=lambda m: (len(m), m))
        handle = router.fleet._handles[victim]
        record = router.remove_worker(victim)
        assert record["drained"] is True
        assert handle.process.exitcode == 0

    def test_note_stats_after_removal_is_dropped(self, router):
        victim = max(router.workers, key=lambda m: (len(m), m))
        router.stats()  # seed _last_stats for every member
        router.remove_worker(victim)
        # A stats poll that raced the removal must not resurrect the dead
        # member's snapshot (it would leak, then double-count a later
        # incarnation under the same name).
        router.fleet.note_stats(victim, {"requests": 99})
        assert victim not in router.fleet._last_stats
        assert victim not in router.stats().router["per_worker"]

    def test_remove_rejects_the_last_worker(self, router):
        router.remove_worker()
        assert len(router.workers) == 1
        with pytest.raises(ValidationError):
            router.remove_worker()

    def test_remove_rejects_an_unknown_member(self, router):
        with pytest.raises(ValidationError):
            router.remove_worker("worker-99")

    def test_add_then_remove_restores_placement(self, router):
        keys = [f"key-{index:04d}" for index in range(512)]
        before = router.fleet.placement(keys)
        added = router.add_worker()["worker"]
        during = router.fleet.placement(keys)
        assert before != during  # the newcomer actually took an arc
        router.remove_worker(added)
        assert router.fleet.placement(keys) == before

    def test_resizes_stats_block_records_the_history(self, router):
        added = router.add_worker()["worker"]
        router.remove_worker(added)
        resizes = router.stats().router["resizes"]
        assert resizes["in_flight"] is None
        assert resizes["completed"] == 2
        actions = [entry["action"] for entry in resizes["history"]]
        assert actions == ["add", "remove"]
        assert all(entry["worker"] == added for entry in resizes["history"])


class TestResizeSerialization:
    def test_concurrent_resize_is_a_typed_conflict(self, router):
        assert router.fleet._resize_mutex.acquire(blocking=False)
        try:
            with pytest.raises(ResizeInProgress):
                router.add_worker()
            with pytest.raises(ResizeInProgress):
                router.remove_worker()
        finally:
            router.fleet._resize_mutex.release()
        # Released: the next resize goes through.
        assert router.add_worker()["action"] == "add"


class TestWriteFencing:
    """A resize must fence writes to the galleries it remaps: an enroll in
    flight toward the old owner (it holds the gallery's writer lock across
    the worker round-trip) has to land durably *before* the new owner
    captures a resident copy, or the copy would go silently stale."""

    def test_add_worker_fences_the_joining_arc(self, router, workload):
        joining = f"worker-{WORKERS}"  # the next auto-generated member name
        prospective = HashRing(
            router.workers + [joining], replicas=router.config.ring_replicas
        )
        candidate = 0
        while True:
            name = f"fence-{candidate:03d}"
            if prospective.lookup(name) == joining and name not in router.registry:
                break
            candidate += 1
        dataset = HCPLikeDataset(
            n_subjects=4, n_regions=32, n_timepoints=80, random_state=47
        )
        enroll = router.enroll(
            EnrollRequest(
                gallery=name,
                scans=list(dataset.generate_session("REST", encoding="LR", day=1)),
                create=True,
            )
        )
        assert enroll.ok
        # Simulate an in-flight enroll to the joining arc by holding its
        # single-writer lock: the join must not warm or commit past it.
        lock = router.fleet.writer_lock(name)
        assert lock.acquire(timeout=5.0)
        done = threading.Event()
        results = []
        try:
            thread = threading.Thread(
                target=lambda: (results.append(router.add_worker()), done.set()),
                daemon=True,
            )
            thread.start()
            assert not done.wait(0.5)  # fenced: the resize waits the write out
            assert joining not in router.workers  # ...and has not committed
        finally:
            lock.release()
        assert done.wait(10.0)
        record = results[0]
        assert record["worker"] == joining
        assert name in record["remapped_sample"]
        assert joining in router.workers

    def test_remove_worker_fences_the_leaving_arc(self, router, workload):
        name = workload["names"][0]
        victim = router.route(name)
        lock = router.fleet.writer_lock(name)
        assert lock.acquire(timeout=5.0)
        done = threading.Event()
        results = []
        try:
            thread = threading.Thread(
                target=lambda: (
                    results.append(router.remove_worker(victim)),
                    done.set(),
                ),
                daemon=True,
            )
            thread.start()
            assert not done.wait(0.5)  # the commit waits behind the fence
            assert victim in router.workers
        finally:
            lock.release()
        assert done.wait(10.0)
        assert results[0]["drained"] is True
        assert name in results[0]["remapped_sample"]
        assert victim not in router.workers
        # The survivors' first loads read the complete post-fence state.
        _identify_all_match(router, workload)


class TestDrainUnderLoad:
    def test_drain_waits_for_the_in_flight_request(self, router):
        victim = max(router.workers, key=lambda m: (len(m), m))
        handle = router.fleet._handles[victim]
        done = threading.Event()
        results = []
        # Simulate an in-flight data-channel request by holding its lock.
        handle.data_lock.acquire()
        try:
            thread = threading.Thread(
                target=lambda: (results.append(router.remove_worker(victim)), done.set()),
                daemon=True,
            )
            thread.start()
            # The ring commits immediately, but the drain is held behind the
            # in-flight request...
            assert not done.wait(0.4)
            assert victim not in router.workers
        finally:
            handle.data_lock.release()
        # ...and completes cleanly the moment the request finishes.
        assert done.wait(10.0)
        assert results[0]["drained"] is True

    def test_enroll_racing_a_removal_fails_safe_to_resend(
        self, router, workload, monkeypatch
    ):
        calls = []
        original = router._data_call

        def retired_once(handle, buffers):
            calls.append(handle.name)
            if len(calls) == 1:
                raise _WorkerRetired(f"{handle.name} left the fleet")
            return original(handle, buffers)

        monkeypatch.setattr(router, "_data_call", retired_once)
        dataset = HCPLikeDataset(
            n_subjects=4, n_regions=32, n_timepoints=80, random_state=31
        )
        request = EnrollRequest(
            gallery="racing-enroll",
            scans=list(dataset.generate_session("REST", encoding="LR", day=1)),
            create=True,
        )
        response = router.enroll(request)
        # Typed, never blindly retried: the frame was never sent, so the
        # caller is told a resend is safe.
        assert not response.ok
        assert "WorkerRetired" in (response.error or "")
        assert "no write occurred" in (response.error or "")
        assert "resending is safe" in (response.error or "")
        assert len(calls) == 1
        # The promised resend path actually works and persists.
        retry = router.enroll(request)
        assert retry.ok and retry.created
        assert ReferenceGallery.is_saved(workload["root"] / "racing-enroll")

    def test_identify_reroutes_silently_after_a_removal(self, router, workload):
        """An identify that raced the commit re-routes to a survivor and
        succeeds without a client-visible error or a breaker hit."""
        name = workload["names"][0]
        for _ in range(3):
            worker = router.route(name)
            if len(router.workers) <= 1:
                break
            router.remove_worker(worker)
            assert _identify(router, workload, name) == workload["reference"][name]
            block = router.stats().router
            assert all(
                entry["consecutive_failures"] == 0
                for entry in block["breakers"].values()
            )


class TestStatsAccounting:
    def test_per_worker_reports_residency_detail(self, router, workload):
        for name in workload["names"]:
            _identify(router, workload, name)
        per_worker = router.stats().router["per_worker"]
        assert sorted(per_worker) == router.workers
        for entry in per_worker.values():
            assert entry["resident_galleries"] == len(entry["resident"])
            assert entry["resident_galleries"] > 0
            assert entry["auto_evictions"] == 0
            assert entry["max_galleries"] is None
            assert entry["ttl_seconds"] is None
            assert entry["stale"] is False

    def test_per_worker_lists_a_member_whose_poll_failed(
        self, router, workload, monkeypatch
    ):
        for name in workload["names"]:
            _identify(router, workload, name)
        first = router.stats()
        assert first.requests == len(workload["names"])
        target = router.workers[-1]
        target_requests = first.router["per_worker"][target]["requests"]
        assert target_requests > 0
        original = router._control_call

        def refuse_stats(handle, op):
            if op == "stats" and handle.name == target:
                raise _WorkerDied("stats poll refused")
            return original(handle, op)

        monkeypatch.setattr(router, "_control_call", refuse_stats)
        second = router.stats()
        # The failed poll neither hides the member nor regresses totals:
        # its carried counters (folded when the poll failure respawned it)
        # stand in for the unreachable snapshot.
        block = second.router["per_worker"]
        assert sorted(block) == router.workers
        assert block[target]["stale"] is True
        assert block[target]["requests"] == target_requests
        assert second.requests == first.requests
        monkeypatch.undo()
        third = router.stats()
        assert third.requests == first.requests
        assert third.router["per_worker"][target]["stale"] is False
        assert third.router["per_worker"][target]["incarnation"] >= 1


class TestHttpAdmin:
    def test_admin_disabled_without_a_token(self, router):
        with BackgroundHttpServer(router, port=0) as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(HttpServiceError) as excinfo:
                    client.admin_workers("add", token="anything")
        assert excinfo.value.status == 403
        assert excinfo.value.payload["error"]["type"] == "AdminDisabled"

    def test_admin_requires_the_bearer_token(self, workload):
        config = workload["config"].replace(admin_token="fleet-secret")
        with GalleryRouter(workload["root"], config=config, workers=WORKERS) as router:
            with BackgroundHttpServer(router, port=0) as server:
                with ServiceClient(port=server.port) as client:
                    with pytest.raises(HttpServiceError) as wrong:
                        client.admin_workers("add", token="not-the-secret")
                    with pytest.raises(HttpServiceError) as missing:
                        client.admin_workers("add")
        assert wrong.value.status == 403
        assert wrong.value.payload["error"]["type"] == "Forbidden"
        assert missing.value.status == 403

    def test_admin_add_remove_round_trip_and_conflict(self, workload):
        config = workload["config"].replace(admin_token="fleet-secret")
        with GalleryRouter(workload["root"], config=config, workers=WORKERS) as router:
            with BackgroundHttpServer(router, port=0) as server:
                with ServiceClient(port=server.port) as client:
                    grown = client.admin_workers("add", token="fleet-secret")
                    assert grown["status"] == "ok"
                    assert grown["resize"]["action"] == "add"
                    assert len(grown["workers"]) == WORKERS + 1
                    # A racing admin request gets a typed 409, not a queue.
                    assert router.fleet._resize_mutex.acquire(blocking=False)
                    try:
                        with pytest.raises(HttpServiceError) as conflict:
                            client.admin_workers("remove", token="fleet-secret")
                    finally:
                        router.fleet._resize_mutex.release()
                    assert conflict.value.status == 409
                    assert (
                        conflict.value.payload["error"]["type"] == "ResizeInProgress"
                    )
                    shrunk = client.admin_workers(
                        "remove", worker=grown["resize"]["worker"],
                        token="fleet-secret",
                    )
                    assert shrunk["resize"]["drained"] is True
                    assert len(shrunk["workers"]) == WORKERS
                    with pytest.raises(HttpServiceError) as bad:
                        client.admin_workers("promote", token="fleet-secret")
                    assert bad.value.status == 400
                    assert bad.value.payload["error"]["type"] == "UnknownAction"

    def test_admin_on_an_unrouted_service_is_404(self, workload):
        config = workload["config"].replace(admin_token="fleet-secret")
        registry = GalleryRegistry(root=workload["root"], config=config)
        service = IdentificationService(registry=registry, config=config)
        try:
            with BackgroundHttpServer(service, port=0) as server:
                with ServiceClient(port=server.port) as client:
                    with pytest.raises(HttpServiceError) as excinfo:
                        client.admin_workers("add", token="fleet-secret")
            assert excinfo.value.status == 404
            assert excinfo.value.payload["error"]["type"] == "NotRouted"
        finally:
            service.close()


class TestCliRescale:
    def test_apply_rescale_walks_to_the_target(self, router, tmp_path):
        from repro.cli import _apply_rescale

        target = tmp_path / "fleet-size"
        target.write_text("4\n")
        _apply_rescale(router, target)
        assert len(router.workers) == 4
        target.write_text("2")
        _apply_rescale(router, target)
        assert len(router.workers) == 2

    def test_apply_rescale_ignores_garbage_and_zero(self, router, tmp_path):
        from repro.cli import _apply_rescale

        target = tmp_path / "fleet-size"
        before = list(router.workers)
        target.write_text("not-a-number")
        _apply_rescale(router, target)
        assert router.workers == before
        target.write_text("0")
        _apply_rescale(router, target)
        assert router.workers == before
        _apply_rescale(router, tmp_path / "missing-file")
        assert router.workers == before
