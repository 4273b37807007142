"""The two HTTP workloads: ``hot_bulk`` (closed loop) and ``fresh_stream`` (open loop).

The server runs in a child process (``server.py``) so the load generator
never competes with it for the interpreter lock.  The generator speaks the
binary frame codec over raw keep-alive sockets with pipelining, times every
request, and checks every response against a serial
``ReferenceGallery.identify`` replay of the persisted gallery.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from harness import (
    SETUPS,
    Expected,
    Tally,
    bitwise_match,
    perturbed,
    poisson_schedule,
    run_open_loop,
)

HERE = Path(__file__).resolve().parent

#: Workload sizes.  ``hot_bulk`` is sized so the match kernel is a visible
#: share of a warm request (1024 gallery columns) while its set-up (fit and
#: persist, ~4 s) can still run three times per run; at 2048 subjects the
#: three set-ups alone took ~35 s.  ``fresh_stream``
#: arrives at a fixed rate below its serial capacity (~1.5 ms a probe), so
#: the queue stays short and the tail shows queueing, not overload.  At
#: 150/s the server idled between most arrivals and the run's median and
#: tail followed how fast the two-CPU machine woke it (p99 7 to 245 ms over
#: runs); at 300/s it stays busy and the figures repeat.  The arrival
#: schedule is part of the workload, the same for every seed (the seed varies
#: the probes), so run-to-run tail differences come from the program.
HOT_BULK = {"subjects": 1024, "regions": 100, "timepoints": 64, "pool": 256,
            "connections": 2}
FRESH_STREAM = {"subjects": 256, "regions": 100, "timepoints": 64, "rate": 300.0,
                "warmup": 64, "schedule_seed": 20212}
#: Both HTTP workloads finish with a burst of single-subject enrolls into a
#: small side gallery, so every workload reports enroll latency; 100 enrolls
#: leave 10 samples beyond the 90th percentile.
SIDE = {"subjects": 8, "enrolls": 100}

CONTENT_TYPE = "application/x-repro-frames"


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def _dataset(subjects: int, regions: int, timepoints: int, state: int):
    from repro.datasets.hcp import HCPLikeDataset

    return HCPLikeDataset(n_subjects=subjects, n_regions=regions,
                          n_timepoints=timepoints, random_state=state)


def _side_inputs(seed: int, regions: int, timepoints: int):
    side = _dataset(SIDE["subjects"] + SIDE["enrolls"], regions, timepoints, seed * 7919 + 3)
    scans = side.generate_session("REST", encoding="LR", day=1)
    return scans[:SIDE["subjects"]], scans[SIDE["subjects"]:]


def make_inputs(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Every input of one HTTP workload run, derived from ``seed`` alone."""
    from repro.datasets.base import ScanRecord

    sizes = HOT_BULK if workload == "hot_bulk" else FRESH_STREAM
    rng = np.random.default_rng([seed, 1 if workload == "hot_bulk" else 2])
    dataset = _dataset(sizes["subjects"], sizes["regions"], sizes["timepoints"], seed * 7919 + 1)
    reference = dataset.generate_session("REST", encoding="LR", day=1)
    side_reference, side_enrolls = _side_inputs(seed, sizes["regions"], sizes["timepoints"])
    inputs = {"galleries": {"main": reference, "side": side_reference},
              "enrolls": side_enrolls}
    if workload == "hot_bulk":
        subjects = rng.choice(sizes["subjects"], size=sizes["pool"], replace=False)
        inputs["pool"] = [dataset.generate_scan(int(i), "REST", encoding="RL", day=2)
                          for i in subjects]
        inputs["order"] = rng.integers(0, sizes["pool"], size=1 << 20)
    else:
        base = dataset.generate_session("REST", encoding="RL", day=2)
        due = poisson_schedule(sizes["rate"], seconds,
                               np.random.default_rng(sizes["schedule_seed"]))

        def fresh(count: int):
            picks = rng.integers(0, sizes["subjects"], size=count)
            return [ScanRecord(subject_id=base[i].subject_id, task="REST",
                               session=base[i].session,
                               timeseries=perturbed(base[i].timeseries, rng))
                    for i in picks]

        inputs["warmup"] = fresh(sizes["warmup"])
        inputs["due"] = due
        inputs["stream"] = fresh(len(due))
    return inputs


def write_server_inputs(path: Path, galleries: Dict[str, list]) -> None:
    """Store the gallery scans the server process builds from."""
    arrays = {"gallery_names": np.array(list(galleries))}
    for name, scans in galleries.items():
        arrays[f"{name}_ids"] = np.array([scan.subject_id for scan in scans])
        arrays[f"{name}_sessions"] = np.array([scan.session for scan in scans])
        arrays[f"{name}_ts"] = np.stack([scan.timeseries for scan in scans])
    np.savez(path, **arrays)


# --------------------------------------------------------------------------- #
# Wire
# --------------------------------------------------------------------------- #
def http_request(frames: Sequence[bytes], path: str = "/identify") -> bytes:
    """One pipelinable binary-codec POST."""
    body = b"".join(frames)
    head = (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: {CONTENT_TYPE}\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def identify_bytes(gallery: str, scan) -> bytes:
    from repro.service.codec import encode_identify_frames
    from repro.service.messages import IdentifyRequest

    return http_request(encode_identify_frames(IdentifyRequest(gallery=gallery, scans=[scan])))


def read_response(stream):
    """``(status, document, bytes on the wire)`` of one HTTP/1.1 response."""
    status_line = stream.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    size = len(status_line)
    length = 0
    while True:
        line = stream.readline()
        size += len(line)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = stream.read(length)
    return int(status_line.split()[1]), json.loads(body), size + len(body)


def connect(port: int):
    sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb")


# --------------------------------------------------------------------------- #
# Server process
# --------------------------------------------------------------------------- #
class ServerProcess:
    """``server.py`` as a child process, driven line by line."""

    def __init__(self, inputs: Path, root: Path, trace: bool):
        command = [sys.executable, str(HERE / "server.py"), "--inputs", str(inputs),
                   "--root", str(root)]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True, bufsize=1)
        self.ready = self._read()
        self.port = int(self.ready["port"])

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=30)
            raise RuntimeError(f"server process exited with {self.process.returncode}")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Drain and join the server (killed if it does not exit in time)."""
        if self.process.poll() is None:
            try:
                self.command("stop")
            except (OSError, RuntimeError, ValueError):
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def observe(tally: Tally, expected, status: int, document: dict, sent_bytes: int,
            received_bytes: int) -> Optional[dict]:
    """Check one identify against the oracle; its timings if it passed, else ``None``."""
    tally.attempted += 1
    tally.request_bytes += sent_bytes
    tally.response_bytes += received_bytes
    if (status == 200 and document.get("status") == "ok"
            and bitwise_match(expected, document["predicted_subject_ids"],
                              document["margins"])):
        return document.get("timings", {})
    tally.failed += 1
    return None


# --------------------------------------------------------------------------- #
# Load shapes
# --------------------------------------------------------------------------- #
def closed_loop(port: int, bodies: List[bytes], expected: list, order: np.ndarray,
                connections: int, depth: int, seconds: float, tally: Tally,
                start_offset: int = 0) -> None:
    """``connections`` sockets, each keeping ``depth`` identifies in flight."""
    lock = threading.Lock()
    cursor = [start_offset]
    errors: List[BaseException] = []

    def next_index() -> int:
        with lock:
            cursor[0] += 1
            return int(order[cursor[0] % len(order)])

    def connection(deadline: float) -> None:
        sock, stream = connect(port)
        inflight = deque()
        try:
            def send() -> None:
                index = next_index()
                inflight.append((index, time.perf_counter()))
                sock.sendall(bodies[index])

            for _ in range(depth):
                send()
            while inflight:
                status, document, size = read_response(stream)
                done = time.perf_counter()
                index, sent = inflight.popleft()
                with lock:
                    timings = observe(tally, expected[index], status, document,
                                      len(bodies[index]), size)
                    if timings is not None and done <= deadline:
                        tally.time(done - sent, done - sent, timings)
                if done < deadline:
                    send()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            stream.close()
            sock.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=connection, args=(start + seconds,))
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tally.window_s = seconds
    if errors:
        raise errors[0]


def open_loop(port: int, requests: List[bytes], expected: list, due: np.ndarray,
              tally: Tally) -> None:
    """Send request ``i`` at ``due[i]`` on one pipelined connection."""
    sock, stream = connect(port)
    try:
        records = run_open_loop(due, lambda i: sock.sendall(requests[i]),
                                lambda: read_response(stream))
    finally:
        stream.close()
        sock.close()
    for index, record in enumerate(records):
        status, document, size = record.response
        timings = observe(tally, expected[index], status, document, len(requests[index]), size)
        if timings is not None:
            tally.time(record.latency, record.done - record.sent, timings)
        tally.lags.append(record.lag)
    tally.window_s = records[-1].done - records[0].due if records else 0.0


def pipelined(port: int, bodies: List[bytes], depth: int) -> list:
    """``(status, document)`` of each body, at most ``depth`` in flight."""
    sock, stream = connect(port)
    replies = []
    try:
        sent = 0
        while len(replies) < len(bodies):
            while sent < len(bodies) and sent - len(replies) < depth:
                sock.sendall(bodies[sent])
                sent += 1
            status, document, _ = read_response(stream)
            replies.append((status, document))
    finally:
        stream.close()
        sock.close()
    return replies


def enroll_burst(port: int, scans: list, first_size: int) -> dict:
    """Enroll ``scans`` one subject at a time; latencies and checks."""
    from repro.service.codec import encode_enroll_frames
    from repro.service.messages import EnrollRequest

    latencies, failed, refits = [], 0, 0
    sock, stream = connect(port)
    try:
        for offset, scan in enumerate(scans):
            body = http_request(encode_enroll_frames(
                EnrollRequest(gallery="side", scans=[scan])), path="/enroll")
            start = time.perf_counter()
            sock.sendall(body)
            status, document, _ = read_response(stream)
            latencies.append(time.perf_counter() - start)
            if (status != 200 or document.get("status") != "ok"
                    or document.get("enrolled") != 1
                    or document.get("n_subjects") != first_size + offset + 1):
                failed += 1
            elif document.get("refit_count", 0) >= 1:
                refits += 1
    finally:
        stream.close()
        sock.close()
    return {"latencies": latencies, "failed": failed, "refits": refits}


# --------------------------------------------------------------------------- #
# Workload runs
# --------------------------------------------------------------------------- #
def replay(root: Path, probes: list) -> list:
    """Serial ``ReferenceGallery.identify`` of each probe on the persisted gallery."""
    from repro.gallery.reference import ReferenceGallery
    from repro.runtime.cache import ArtifactCache

    gallery = ReferenceGallery.load(root / "main", cache=ArtifactCache())
    return [Expected.of(gallery.identify([scan])) for scan in probes]


def run_http_workload(workload: str, seed: int, seconds: float, trace: bool,
                      workdir: Path) -> dict:
    """One run of ``hot_bulk`` or ``fresh_stream``; see ``run.py`` for the result."""
    from repro.service import ServiceConfig

    depth = ServiceConfig().pipeline_depth
    inputs = make_inputs(workload, seed, seconds)
    inputs_path = workdir / "inputs.npz"
    write_server_inputs(inputs_path, inputs["galleries"])
    side_size = len(inputs["galleries"]["side"])
    del inputs["galleries"]
    if workload == "hot_bulk":
        warm_bodies = [identify_bytes("main", scan) for scan in inputs["pool"]]
    else:
        warm_bodies = [identify_bytes("main", scan) for scan in inputs["warmup"]]

    setup_s, pids = [], []
    result = {"setup_s": setup_s, "pids": pids, "notes": []}
    server: Optional[ServerProcess] = None
    try:
        for attempt in range(SETUPS):
            if server is not None:
                server.stop()
                shutil.rmtree(root)
            root = workdir / f"root-{attempt}"
            start = time.perf_counter()
            server = ServerProcess(inputs_path, root, trace)
            pids.append(server.pid)
            for status, _ in pipelined(server.port, warm_bodies, depth):
                if status != 200:  # fills the probe cache on hot_bulk
                    raise RuntimeError(f"warm-up identify failed with HTTP {status}")
            setup_s.append(time.perf_counter() - start)

        if workload == "hot_bulk":
            expected = replay(root, inputs["pool"])
            bodies = warm_bodies
        else:
            expected = replay(root, inputs["stream"])
            bodies = [identify_bytes("main", scan) for scan in inputs["stream"]]

        def window(tally: Tally, share: float, part: int) -> None:
            if workload == "hot_bulk":
                closed_loop(server.port, bodies, expected, inputs["order"],
                            HOT_BULK["connections"], depth, seconds * share, tally,
                            start_offset=part * (len(inputs["order"]) // 2))
            else:
                due = inputs["due"]
                chosen = np.array_split(np.arange(len(due)), round(1 / share))[part]
                offsets = due[chosen] - due[chosen[0]]
                open_loop(server.port, [bodies[i] for i in chosen],
                          [expected[i] for i in chosen], offsets, tally)

        tally = Tally()
        if trace:
            # Untraced first half, traced second half, on one server: the
            # p50 difference is the tracing overhead.
            untraced = Tally()
            window(untraced, 0.5, 0)
            result["untraced"] = untraced
            server.command("trace")
            server.command("mark")
            window(tally, 0.5, 1)
        else:
            server.command("mark")
            window(tally, 1.0, 0)
        dump = server.command("dump")
        enrolls = enroll_burst(server.port, inputs["enrolls"], side_size)
        tallies = [tally] + ([result["untraced"]] if trace else [])
        result.update(
            tally=tally, enrolls=enrolls, spans=dump["spans"], before=dump["before"],
            after=dump["after"], setup_spans=server.ready.get("setup_spans", {}),
            peak_rss_mb=server.command("dump")["peak_rss_mb"],
            attempted=sum(t.attempted for t in tallies) + len(enrolls["latencies"]),
            failed=sum(t.failed for t in tallies) + enrolls["failed"],
        )
        if workload == "fresh_stream":
            result["notes"].append(
                f"open loop at {FRESH_STREAM['rate']:.0f}/s over {len(inputs['due'])} "
                f"scheduled requests")
        else:
            result["notes"].append(
                f"closed loop: {HOT_BULK['connections']} connections x {depth} in flight, "
                f"pool of {HOT_BULK['pool']} probes")
    finally:
        if server is not None:
            server.stop()
    return result
