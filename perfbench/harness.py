"""Workload-independent pieces of the serving benchmark.

Seeded input generation, the percentile helpers, the per-window tally, the
bitwise oracle compare, the open-loop driver, the counter snapshot, the leak
probe and the process-memory probe; ``test_harness.py`` pins the parts whose
mistakes would go unseen.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles the report may name as the tail, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A tail percentile is only reported when at least this many samples lie
#: beyond it; fewer and one outlier decides the value.
MIN_BEYOND = 10

#: How many times set-up runs in one benchmark run (the median is reported).
SETUPS = 3

#: Name prefix of the shared-memory segments the runtime creates
#: (``repro-shm-<pid>-...``, see ``repro.runtime.shm``).
SHM_PREFIX = "repro-shm"


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if len(samples) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` of the highest percentile with >= 10 samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it (fewer than 20 samples).
    """
    n = len(samples)
    best = None
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9:
            best = q
    if best is None:
        return None
    return best, percentile(samples, best)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n * (1.0 - q / 100.0)


def chunked_percentile(samples: Sequence[float], q: float, max_chunks: int = 5) -> float:
    """The ``q``-th percentile as the median over equal-count chunks of a window.

    ``samples`` are in completion order.  They are cut into as many
    consecutive chunks as leave every chunk at least ``MIN_BEYOND`` samples
    beyond the percentile (at most ``max_chunks``), and the median of the
    chunks' percentiles is reported, so a stall of the machine during one
    chunk does not decide the tail.  NaN when even one chunk of all the
    samples has fewer than ``MIN_BEYOND`` beyond it: a run too short to
    support the percentile then fails instead of printing a value one
    outlier decides.
    """
    chunks = min(max_chunks, int(samples_beyond(len(samples), q) / MIN_BEYOND + 1e-9))
    if chunks < 1:
        return float("nan")
    parts = np.array_split(np.asarray(samples, dtype=np.float64), chunks)
    return float(np.median([percentile(part, q) for part in parts]))


# --------------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------------- #
def zipf_weights(n: int, exponent: float = 1.1) -> np.ndarray:
    """Normalized Zipf popularity of ranks ``1..n`` (rank 1 most popular)."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def poisson_schedule(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Offsets (seconds from start) of ``rate * seconds`` Poisson arrivals.

    Given their count, the arrival times of a Poisson process are sorted
    uniform draws; fixing the count keeps the offered load identical across
    seeds while the spacing stays random.
    """
    return np.sort(rng.uniform(0.0, seconds, size=int(round(rate * seconds))))


def perturbed(timeseries: np.ndarray, rng: np.random.Generator, scale: float = 0.05) -> np.ndarray:
    """A never-seen copy of a scan: the series plus seeded Gaussian noise.

    The noise is small next to the signal, so the probe still identifies its
    subject, but its bytes are new, so every content-keyed cache misses.
    """
    noise = rng.standard_normal(timeseries.shape) * (scale * float(timeseries.std()))
    return np.ascontiguousarray(timeseries + noise)


# --------------------------------------------------------------------------- #
# Oracle
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Expected:
    """A serial replay's answer: predicted ids and the bytes of its margins."""

    predicted_ids: Tuple[str, ...]
    margin_bytes: bytes

    @classmethod
    def of(cls, result) -> "Expected":
        """From a :class:`~repro.attack.matching.MatchResult`."""
        return cls(tuple(result.predicted_subject_ids),
                   np.asarray(result.margin(), dtype=np.float64).tobytes())


def bitwise_match(expected: Expected, predicted_ids: Sequence[str],
                  margins: Sequence[float]) -> bool:
    """Whether a served identify equals a serial replay bit for bit.

    The served margins are compared as float64 bit patterns
    (``array_equal`` would let ``-0.0 == 0.0``).
    """
    return (tuple(predicted_ids) == expected.predicted_ids
            and np.asarray(margins, dtype=np.float64).tobytes() == expected.margin_bytes)


# --------------------------------------------------------------------------- #
# Measurement window
# --------------------------------------------------------------------------- #
@dataclass
class Tally:
    """What the generator observed of the identifies in one measurement window.

    ``latencies`` are what a client saw (in the open loop, from the due
    time); ``wall`` is the same request timed from when it was sent, the
    figure the server-side spans are subtracted from.
    """

    latencies: List[float] = field(default_factory=list)
    wall: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    lags: List[float] = field(default_factory=list)
    window_s: float = 0.0

    def time(self, latency: float, wall: float, timings: Dict[str, float]) -> None:
        """Record one correct identify."""
        self.latencies.append(latency)
        self.wall.append(wall)
        for key, value in timings.items():
            self.timings[key] = self.timings.get(key, 0.0) + value

    def mean_timing(self, key: str) -> float:
        """Mean of one ``response.timings`` entry over the timed identifies."""
        return self.timings.get(key, 0.0) / len(self.wall) if self.wall else 0.0


def service_counters(stats) -> Dict[str, object]:
    """The cumulative counters of a ``ServiceStats`` a window's deltas come from."""
    counters = {
        "requests": stats.requests,
        "batches": stats.batches,
        "coalesced_batches": stats.coalesced_batches,
        "cache_kinds": stats.cache_kinds,
    }
    if stats.router is not None:
        per_worker = stats.router["per_worker"]
        counters.update(
            respawns=stats.router["respawns"],
            worker_requests={name: entry["requests"] for name, entry in per_worker.items()},
            auto_evictions=sum(entry["auto_evictions"] for entry in per_worker.values()),
        )
    return counters


# --------------------------------------------------------------------------- #
# Open loop
# --------------------------------------------------------------------------- #
@dataclass
class OpenLoopRecord:
    """Timing of one open-loop request, all on one clock."""

    due: float
    sent: float
    done: float
    response: object

    @property
    def latency(self) -> float:
        """Seconds from when the request was due (not sent) to its response."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent it."""
        return self.sent - self.due


def run_open_loop(
    due_offsets: Sequence[float],
    send: Callable[[int], None],
    receive: Callable[[], object],
) -> List[OpenLoopRecord]:
    """Send request ``i`` at ``start + due_offsets[i]`` whatever came back.

    One sender thread follows the schedule; the calling thread reads the
    responses, which arrive in request order (HTTP/1.1 pipelining).  A stall
    in the sender or the server delays later requests, and their latency
    counts that wait, because it is timed from the due time.
    """
    n = len(due_offsets)
    sent = [0.0] * n
    failure: List[BaseException] = []
    clock = time.perf_counter
    start = clock()

    def sender() -> None:
        try:
            for index, offset in enumerate(due_offsets):
                wait = start + offset - clock()
                if wait > 0:
                    time.sleep(wait)
                sent[index] = clock()
                send(index)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller's thread
            failure.append(exc)

    thread = threading.Thread(target=sender, name="perfbench-open-loop", daemon=True)
    thread.start()
    records = []
    try:
        for index in range(n):
            if failure:
                break
            response = receive()
            records.append(
                OpenLoopRecord(start + due_offsets[index], sent[index], clock(), response)
            )
    finally:
        thread.join(timeout=60.0)
    if failure:
        raise failure[0]
    return records


# --------------------------------------------------------------------------- #
# Leaks and memory
# --------------------------------------------------------------------------- #
def leaked_segments(pids: Sequence[int], shm_dir: Path = Path("/dev/shm")) -> List[str]:
    """Shared-memory segments still present that one of ``pids`` created."""
    if not shm_dir.exists():
        return []
    prefixes = tuple(f"{SHM_PREFIX}-{int(pid)}-" for pid in pids)
    return sorted(path.name for path in shm_dir.iterdir() if path.name.startswith(prefixes))


def live_children(parent: Optional[int] = None) -> List[int]:
    """Pids whose parent is ``parent`` (default: this process), zombies included."""
    parent = os.getpid() if parent is None else parent
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            children.append(int(entry.name))
    return sorted(children)


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size of a live process, in MiB."""
    for line in Path(f"/proc/{int(pid)}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def leak_report(pids: Sequence[int]) -> Dict[str, List]:
    """Everything a finished run must not leave behind."""
    return {"segments": leaked_segments(pids), "children": live_children()}
