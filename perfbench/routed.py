"""The ``routed_tenants`` workload: ``GalleryRouter`` called directly, no HTTP.

Eight persisted galleries are spread over two forked workers whose per-worker
residency cap is below each worker's share, so a stable fraction of the
Zipf-skewed identifies reload a gallery from disk.  Every twentieth operation
is a durable enroll of a new subject.  Two client threads run a closed loop
over one shared operation sequence, so they meet on the workers' data
channels and on the galleries' writer locks.  Every identify is checked
bitwise against a serial ``ReferenceGallery.identify`` replay at the gallery
state its response names (``n_gallery_subjects``); the enroll order per
gallery is taken from the ``n_subjects`` each enroll acknowledged.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import (
    SETUPS,
    Expected,
    Tally,
    bitwise_match,
    peak_rss_mb,
    service_counters,
    zipf_weights,
)
from spans import SpanLog, TimedLock, install_fit_spans

#: Galleries are small (64 regions, 2016 connectome features) so a reload
#: costs tens of milliseconds and an enroll (refit + persist) about a tenth
#: of a second; popularity is fixed by name, only the data and the operation
#: sequence depend on the seed.
ROUTED = {"galleries": 8, "subjects": 128, "regions": 64, "timepoints": 64,
          "workers": 2, "clients": 2, "max_galleries": 3, "enroll_every": 20,
          "zipf": 1.1, "ops": 20000, "order_seed": 20211}
#: These names hash to four galleries per worker on the default ring, with
#: the popular ranks alternating between the two workers.
NAMES = [f"cohort-{index}" for index in range(ROUTED["galleries"])]


def make_inputs(seed: int) -> Dict[str, object]:
    """Every input of one run, derived from ``seed`` alone."""
    from repro.datasets.hcp import HCPLikeDataset

    rng = np.random.default_rng([seed, 3])
    count = ROUTED["ops"]
    # The gallery access order is part of the workload, the same for every
    # seed: which accesses reload from disk then does not vary between
    # runs.  The seed varies the scans, the probe picks and the new subjects.
    order = np.random.default_rng(ROUTED["order_seed"])
    galleries = order.choice(len(NAMES), size=count, p=zipf_weights(len(NAMES), ROUTED["zipf"]))
    # Enrolls at a fixed cadence, not at random: a run's cost then does not
    # depend on how many of its operations happened to be enrolls.
    enrolls = np.arange(count) % ROUTED["enroll_every"] == ROUTED["enroll_every"] - 1
    probes = rng.integers(0, ROUTED["subjects"], size=count)
    per_gallery = {}
    for index, name in enumerate(NAMES):
        extra = int(np.sum(enrolls & (galleries == index)))
        dataset = HCPLikeDataset(n_subjects=ROUTED["subjects"] + extra,
                                 n_regions=ROUTED["regions"],
                                 n_timepoints=ROUTED["timepoints"],
                                 random_state=seed * 7919 + 11 + index)
        first = dataset.generate_session("REST", encoding="LR", day=1)
        per_gallery[name] = {
            "reference": first[:ROUTED["subjects"]],
            "enrolls": first[ROUTED["subjects"]:],
            "probes": [dataset.generate_scan(i, "REST", encoding="RL", day=2)
                       for i in range(ROUTED["subjects"])],
        }
    ops = [(NAMES[g], "enroll" if e else "identify", int(p))
           for g, e, p in zip(galleries, enrolls, probes)]
    return {"ops": ops, "galleries": per_gallery}


def _setup(inputs, root: Path, config):
    """Build and persist every gallery, start the fleet, load each gallery once."""
    from repro.runtime.cache import ArtifactCache
    from repro.service import GalleryRegistry, GalleryRouter, IdentifyRequest

    registry = GalleryRegistry(root=root, config=config, cache=ArtifactCache())
    for name in NAMES:
        registry.build(name, inputs["galleries"][name]["reference"])
        registry.persist(name)
    router = GalleryRouter(root, config=config, workers=ROUTED["workers"])
    for name in NAMES:
        response = router.identify(
            IdentifyRequest(gallery=name, scans=[inputs["galleries"][name]["probes"][0]]))
        if not response.ok:
            router.close()
            raise RuntimeError(f"warm-up identify failed: {response.error}")
    return registry, router


class Operations:
    """The shared operation sequence, handed out one operation at a time.

    An enroll is given the next unused new subject of its gallery under the
    same lock, so no two enrolls send the same scan; the order in which they
    land is read back from the ``n_subjects`` they acknowledge.
    """

    def __init__(self, ops: list):
        self._ops = ops
        self._lock = threading.Lock()
        self._cursor = 0
        self._enrolled = {name: 0 for name in NAMES}

    def take(self):
        """``(gallery, kind, scan index)`` of the next operation, ``None`` at the end."""
        with self._lock:
            if self._cursor >= len(self._ops):
                return None
            name, kind, probe = self._ops[self._cursor]
            self._cursor += 1
            if kind == "enroll":
                probe = self._enrolled[name]
                self._enrolled[name] += 1
            return name, kind, probe


def _window(router, inputs, seconds: float, operations: Operations, records: list) -> None:
    """``ROUTED["clients"]`` threads run the shared sequence for ``seconds``."""
    from repro.service import EnrollRequest, IdentifyRequest

    errors: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        try:
            while time.perf_counter() < deadline:
                operation = operations.take()
                if operation is None:
                    break
                name, kind, probe = operation
                data = inputs["galleries"][name]
                start = time.perf_counter()
                if kind == "identify":
                    response = router.identify(
                        IdentifyRequest(gallery=name, scans=[data["probes"][probe]]))
                else:
                    response = router.enroll(
                        EnrollRequest(gallery=name, scans=[data["enrolls"][probe]]))
                done = time.perf_counter()
                records.append((name, kind, probe, response, done - start, done <= deadline))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(ROUTED["clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def check_oracle(inputs, initial: Dict[str, object], records: list) -> int:
    """Replay every operation serially; returns how many disagree.

    An identify must equal ``ReferenceGallery.identify`` at the state its
    response names; an enroll must have grown its gallery by exactly one.
    """
    mismatches = 0
    identifies: Dict[str, Dict[int, list]] = {name: {} for name in NAMES}
    chains: Dict[str, Dict[int, int]] = {name: {} for name in NAMES}
    for name, kind, probe, response, *_ in records:
        if not response.ok:
            mismatches += 1
        elif kind == "identify":
            identifies[name].setdefault(response.n_gallery_subjects, []).append((probe, response))
        elif response.enrolled != 1 or response.n_subjects in chains[name]:
            mismatches += 1
        else:
            chains[name][response.n_subjects] = probe
    for name in NAMES:
        gallery = initial[name]
        size = gallery.n_subjects
        scans = inputs["galleries"][name]
        remaining = dict(identifies[name])
        while remaining:
            replayed = {}
            for probe, response in remaining.pop(size, []):
                if probe not in replayed:
                    replayed[probe] = Expected.of(gallery.identify([scans["probes"][probe]]))
                if not bitwise_match(replayed[probe], response.predicted_subject_ids,
                                     response.margins):
                    mismatches += 1
            if size + 1 not in chains[name]:
                break
            gallery.enroll([scans["enrolls"][chains[name][size + 1]]])
            size += 1
        mismatches += sum(len(entries) for entries in remaining.values())
    return mismatches


def tally_of(records: list, seconds: float) -> Tally:
    """The identifies of one window that succeeded within it."""
    tally = Tally(window_s=seconds)
    for _name, kind, _probe, response, latency, in_window in records:
        if kind == "identify" and response.ok and in_window:
            tally.time(latency, latency, response.timings)
    return tally


def run_routed(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One run of ``routed_tenants``; see ``run.py`` for the result."""
    from repro.service import ServiceConfig

    config = ServiceConfig(max_galleries=ROUTED["max_galleries"])
    inputs = make_inputs(seed)
    log = SpanLog()
    if trace:
        install_fit_spans(log)

    setup_s, pids = [], []
    router = registry = None
    try:
        for attempt in range(SETUPS):
            root = workdir / f"root-{attempt}"
            log.clear()  # the last set-up's fit spans are reported
            start = time.perf_counter()
            registry, router = _setup(inputs, root, config)
            setup_s.append(time.perf_counter() - start)
            workers = router.healthz()["workers"]
            pids.extend(entry["pid"] for entry in workers.values())
            if attempt + 1 < SETUPS:
                router.close()
                shutil.rmtree(root)
        setup_spans = log.snapshot()
        log.clear()
        placement = router.fleet.placement(NAMES)
        shares = {worker: sum(1 for owner in placement.values() if owner == worker)
                  for worker in router.workers}
        if min(shares.values()) <= ROUTED["max_galleries"]:
            raise RuntimeError(f"residency cap is not below every worker's share: {shares}")

        initial = {name: registry.get(name) for name in NAMES}
        operations = Operations(inputs["ops"])
        result = {"setup_s": setup_s, "pids": pids, "setup_spans": setup_spans,
                  "notes": [f"closed loop: {ROUTED['clients']} threads on one operation "
                            f"sequence, {ROUTED['workers']} workers sharing {shares}, "
                            f"max_galleries={ROUTED['max_galleries']} per worker"]}
        untraced: list = []
        window_s = seconds
        if trace:
            window_s = seconds / 2
            _window(router, inputs, window_s, operations, untraced)
            result["untraced"] = tally_of(untraced, window_s)
            log.patch(router, "_writer_lock", lambda original: (
                lambda gallery: TimedLock(original(gallery), log, "router.writer_lock_wait")))
            log.timed(router, "_data_call", "router.data_call")
        before = service_counters(router.stats())
        records: list = []
        _window(router, inputs, window_s, operations, records)
        after = service_counters(router.stats())
        workers = router.healthz()["workers"]
        pids.extend(entry["pid"] for entry in workers.values())
        enrolls = [r for r in records if r[1] == "enroll" and r[3].ok and r[5]]
        every = untraced + records
        result.update(
            tally=tally_of(records, window_s), before=before, after=after,
            spans=log.snapshot(), operations=len(records),
            enrolls={"latencies": [r[4] for r in enrolls], "failed": 0,
                     "refits": sum(1 for r in enrolls if r[3].refit_count >= 1)},
            peak_rss_mb=sum(peak_rss_mb(entry["pid"]) for entry in workers.values()),
            attempted=len(every), failed=check_oracle(inputs, initial, every),
        )
    finally:
        log.restore()
        if router is not None:
            router.close()
        if registry is not None:
            registry.close()
    return result
