"""Serving benchmark: one seeded command, three workloads, a per-layer breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_bulk --seed 1 --seconds 30 --trace 0

Workloads (sizes in ``http_load.py`` and ``routed.py``):

``hot_bulk``
    A 1024-subject x 100-region gallery behind the HTTP server (a child
    process).  Closed loop: 2 binary-codec connections, each keeping
    ``pipeline_depth`` (8) single-probe identifies in flight, drawn from a
    fixed pool of 256 probes, so the probe cache hits.  Exercises the wire,
    the codec, the batcher's coalescing and the match kernel.  Should move:
    ``http.*``, ``codec.decode_ms``, ``service.batch_size_mean``,
    ``gallery.kernel_*``.  Should not move: ``runtime.group_matrix_calls``
    (~0) and ``gallery.fit_s`` outside set-up.
``fresh_stream``
    A 256-subject gallery behind the HTTP server.  Open loop: Poisson
    arrivals at 300/s (a probe takes ~1.5 ms) on one pipelined connection,
    every probe never seen before, so the probe cache misses.  Latency is
    timed from each request's due time; the generator's lag is reported.
    Should move: ``runtime.group_matrix_ms``, ``service.probe_ms``,
    ``service.queue_wait_ms``.  Should not move: ``gallery.kernel_ms`` (a
    small share), ``service.batch_size_mean``.  Not listed in
    ``BENCHMARK.json``: on a two-CPU machine its p99 varied by more than half
    its median from run to run, more than a regression bound can allow; run it
    for the group-matrix and probe-reduction breakdown.
``routed_tenants``
    ``GalleryRouter`` called in-process with 2 forked workers and 8 persisted
    128-subject galleries, Zipf-skewed popularity, ``max_galleries=3`` per
    worker (each owns 4), every 20th operation a durable enroll.  Closed
    loop, 2 threads drawing from one shared operation sequence.  Should move:
    ``router.*``, ``registry.auto_evictions``, ``worker.residual_ms``,
    ``gallery.refits``.  Should not move: ``http.*`` and ``gallery.kernel_*``
    (not on this path; reported as 0).

Every run uses the shipped ``ServiceConfig`` defaults, except the residency
cap of ``routed_tenants``, and the environment it is started in (no thread
counts are pinned).  Every identify is compared bit for bit with a
serial ``ReferenceGallery.identify`` replay and every enroll's acknowledged
gallery size is checked; a mismatch counts as a failed operation.  After the
run no ``repro-shm-*`` segment of the run's processes and no child process
may remain.  A mismatch or a leak makes the run exit non-zero.

The HTTP workloads end with 100 single-subject enrolls into a small side
gallery so that every workload reports enroll latency; on
``routed_tenants`` enrolls are part of the traffic.

``identify_rps`` and ``identify_p50_ms`` are taken over the whole window.
``identify_p99_ms`` and ``enroll_p90_ms`` are medians over up to five
equal-count chunks of the window, each chunk holding at least 10 samples
beyond the percentile (``harness.chunked_percentile``); a run too short for
even one such chunk fails.  ``error_rate`` (failed plus mismatched
over attempted operations) is printed and carried by the JSON's
``failed``/``attempted``; it is not a bounded metric because it is 0 on every
correct run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
window untraced and half traced (functions wrapped at their import sites,
see ``spans.py``) and prints the per-layer metrics, the share of wall time
no span covers, and the tracing overhead (traced minus untraced median).
A span the workload must exercise (``REQUIRED_SPANS``) that recorded no
sample fails the traced run: a wrapper that stopped taking effect would
otherwise read as 0.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

WORKLOADS = ("hot_bulk", "fresh_stream", "routed_tenants")

#: Spans each workload's traced run must record at least once.  The fit and
#: leverage spans come from set-up, the rest from the traced window.
SETUP_SPANS = ("gallery.fit", "linalg.leverage")
REQUIRED_SPANS = {
    "hot_bulk": ("service.identify_async", "codec.decode", "gallery.kernel"),
    "fresh_stream": ("service.identify_async", "codec.decode", "gallery.kernel",
                     "runtime.group_matrix"),
    "routed_tenants": ("router.data_call", "router.writer_lock_wait"),
}

END_TO_END = (
    ("setup_s", "s"),
    ("identify_rps", "1/s"),
    ("identify_p50_ms", "ms"),
    ("identify_p99_ms", "ms"),
    ("enroll_p50_ms", "ms"),
    ("enroll_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("http.overhead_ms", "ms"),
    ("http.request_bytes", "B"),
    ("http.response_bytes", "B"),
    ("codec.decode_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.coalesced_share", "ratio"),
    ("service.batch_ms", "ms"),
    ("service.probe_ms", "ms"),
    ("service.match_ms", "ms"),
    ("runtime.group_matrix_ms", "ms"),
    ("runtime.group_matrix_calls", "count"),
    ("runtime.probe_hit_ratio", "ratio"),
    ("runtime.gallery_norm_hit_ratio", "ratio"),
    ("gallery.kernel_ms", "ms"),
    ("gallery.kernel_columns", "count"),
    ("gallery.kernel_bytes", "B"),
    ("gallery.fit_s", "s"),
    ("gallery.refits", "count"),
    ("linalg.leverage_s", "s"),
    ("router.ipc_ms", "ms"),
    ("router.writer_lock_wait_ms", "ms"),
    ("router.retries", "count"),
    ("router.respawns", "count"),
    ("router.worker_share_max", "ratio"),
    ("registry.auto_evictions", "count"),
    ("worker.residual_ms", "ms"),
    ("generator.lag_ms", "ms"),
    ("unaccounted_share", "ratio"),
    ("trace.overhead_ms", "ms"),
)


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def cache_ratio(before: dict, after: dict, kind: str):
    """``(hit ratio, lookups)`` of one artifact kind over a window."""
    old = before["cache_kinds"].get(kind, {})
    new = after["cache_kinds"].get(kind, {})
    hits = new.get("hits", 0) - old.get("hits", 0)
    lookups = hits + new.get("misses", 0) - old.get("misses", 0)
    return ratio(hits, lookups), lookups


# --------------------------------------------------------------------------- #
# Summary: (value, samples) per metric name
# --------------------------------------------------------------------------- #
def ms(seconds) -> list:
    return [1e3 * value for value in seconds]


def summarize(workload: str, result: dict, trace: bool) -> dict:
    """End-to-end and per-layer metrics of one run.

    ``result`` is what ``run_http_workload`` or ``run_routed`` returned:
    ``tally`` (the measured identifies; the traced half when tracing) and
    ``untraced`` (the other half), ``enrolls`` (latencies and refits),
    counter snapshots ``before``/``after`` the window, the window's
    ``spans`` and the last set-up's ``setup_spans``.
    """
    from harness import chunked_percentile, percentile

    tally, enrolls = result["tally"], result["enrolls"]
    lat_ms, enroll_ms = ms(tally.latencies), ms(enrolls["latencies"])
    e2e = {
        "identify_rps": (ratio(len(lat_ms), tally.window_s), len(lat_ms)),
        "identify_p50_ms": (percentile(lat_ms, 50), len(lat_ms)),
        "identify_p99_ms": (chunked_percentile(lat_ms, 99), len(lat_ms)),
        "enroll_p50_ms": (percentile(enroll_ms, 50), len(enroll_ms)),
        "enroll_p90_ms": (chunked_percentile(enroll_ms, 90), len(enroll_ms)),
    }
    layers = {}
    if trace:
        layers = shared_layers(result)
        layers.update(router_layers(result) if workload == "routed_tenants"
                      else http_layers(result))
    return {"e2e": e2e, "layers": layers, "samples": {"identify": lat_ms, "enroll": enroll_ms}}


def shared_layers(result: dict) -> dict:
    """The layers every workload reports: batching, caches, kernel, fit, residuals."""
    from harness import percentile

    tally, spans = result["tally"], result["spans"]["durations"]
    counters = result["spans"]["counters"]
    before, after = result["before"], result["after"]
    setup = result["setup_spans"].get("durations", {})
    n = len(tally.wall)
    batch, probe, match = (tally.mean_timing(k) for k in ("batch_s", "probe_s", "match_s"))
    batches = after["batches"] - before["batches"]
    calls = counters.get("kernel_calls", 0)
    group = spans.get("runtime.group_matrix", [])
    probe_hits, probe_lookups = cache_ratio(before, after, "probe")
    norm_hits, norm_lookups = cache_ratio(before, after, "gallery_norm")
    enrolls = result["enrolls"]

    def span_mean_ms(name: str):
        return 1e3 * mean(spans.get(name, [])), len(spans.get(name, []))

    def setup_total_s(name: str):
        return sum(setup.get(name, [])), len(setup.get(name, []))

    return {
        "codec.decode_ms": span_mean_ms("codec.decode"),
        "service.queue_wait_ms": span_mean_ms("service.queue_wait"),
        "service.batch_size_mean": (ratio(after["requests"] - before["requests"], batches),
                                    batches),
        "service.coalesced_share": (
            ratio(after["coalesced_batches"] - before["coalesced_batches"], batches), batches),
        "service.batch_ms": (1e3 * batch, n),
        "service.probe_ms": (1e3 * probe, n),
        "service.match_ms": (1e3 * match, n),
        "runtime.group_matrix_ms": span_mean_ms("runtime.group_matrix"),
        "runtime.group_matrix_calls": (len(group), n),
        "runtime.probe_hit_ratio": (probe_hits, probe_lookups),
        "runtime.gallery_norm_hit_ratio": (norm_hits, norm_lookups),
        "gallery.kernel_ms": (span_mean_ms("gallery.kernel")[0], calls),
        "gallery.kernel_columns": (ratio(counters.get("kernel_columns", 0), calls), calls),
        "gallery.kernel_bytes": (ratio(counters.get("kernel_bytes", 0), calls), calls),
        "gallery.fit_s": setup_total_s("gallery.fit"),
        "gallery.refits": (enrolls["refits"], len(enrolls["latencies"])),
        "linalg.leverage_s": setup_total_s("linalg.leverage"),
        "worker.residual_ms": (1e3 * (batch - probe - match), n),
        "unaccounted_share": (ratio(batch - probe - match, mean(tally.wall)), n),
        "trace.overhead_ms": (
            percentile(ms(tally.latencies), 50) - percentile(ms(result["untraced"].latencies), 50),
            len(tally.latencies) + len(result["untraced"].latencies)),
    }


def http_layers(result: dict) -> dict:
    """The wire: client time outside the server's identify, bytes, generator lag."""
    tally, spans = result["tally"], result["spans"]["durations"]
    served = mean(spans.get("service.identify_async", []))
    return {
        "http.overhead_ms": (1e3 * (mean(tally.wall) - served), len(tally.wall)),
        "http.request_bytes": (ratio(tally.request_bytes, tally.attempted), tally.attempted),
        "http.response_bytes": (ratio(tally.response_bytes, tally.attempted), tally.attempted),
        "generator.lag_ms": (1e3 * mean(tally.lags), len(tally.lags)),
    }


def router_layers(result: dict) -> dict:
    """The fleet: IPC, writer locks, retries, respawns, balance, reloads."""
    tally, spans = result["tally"], result["spans"]["durations"]
    before, after = result["before"], result["after"]
    n = len(tally.wall)
    data_calls = len(spans.get("router.data_call", []))
    waits = spans.get("router.writer_lock_wait", [])
    shares = [after["worker_requests"][name] - before["worker_requests"].get(name, 0)
              for name in after["worker_requests"]]
    return {
        "router.ipc_ms": (1e3 * (mean(tally.wall) - tally.mean_timing("batch_s")), n),
        "router.writer_lock_wait_ms": (1e3 * mean(waits), len(waits)),
        "router.retries": (data_calls - result["operations"], data_calls),
        "router.respawns": (after["respawns"] - before["respawns"], 1),
        "router.worker_share_max": (ratio(max(shares, default=0), sum(shares)), sum(shares)),
        "registry.auto_evictions": (after["auto_evictions"] - before["auto_evictions"], n),
    }


# --------------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------------- #
def describe(name: str, value: float, unit: str, samples) -> str:
    from harness import samples_beyond

    line = f"  {name:<32s} {value:14.4f} {unit:<6s} (n={int(samples)}"
    for suffix, q in (("_p99_ms", 99.0), ("_p90_ms", 90.0)):
        if name.endswith(suffix):
            line += f", {samples_beyond(samples, q):.0f} beyond"
    return line + ")"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    from harness import leak_report, tail_percentile

    trace = bool(args.trace)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "routed_tenants":
            from routed import run_routed

            result = run_routed(args.seed, args.seconds, trace, workdir)
        else:
            from http_load import run_http_workload

            result = run_http_workload(args.workload, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            (ROOT / ".perfbench_work").rmdir()
    leaks = leak_report([os.getpid()] + result["pids"])
    summary = summarize(args.workload, result, trace)

    e2e = summary["e2e"]
    e2e["setup_s"] = (statistics.median(result["setup_s"]), len(result["setup_s"]))
    e2e["peak_rss_mb"] = (result["peak_rss_mb"], 1)
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not leaks["segments"] and not leaks["children"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for note in result["notes"]:
        print(f"  {note}")
    print(f"  setup runs (s): {', '.join(f'{value:.3f}' for value in result['setup_s'])}")
    print("end-to-end:")
    for name, unit in END_TO_END:
        value, samples = e2e[name]
        print(describe(name, value, unit, samples))
    print(describe("error_rate", ratio(failed, attempted), "ratio", attempted))
    for kind, samples in summary["samples"].items():
        tail = tail_percentile(samples)
        if tail is None:
            print(f"  {kind} tail: too few samples ({len(samples)}) for any percentile")
        else:
            print(f"  {kind} tail: p{tail[0]:g} = {tail[1]:.4f} ms, the highest percentile "
                  f"with >= 10 of {len(samples)} samples beyond it")
    print(f"  leaks: {len(leaks['segments'])} shm segment(s), "
          f"{len(leaks['children'])} child process(es)")
    metrics = {name: e2e[name] for name, _ in END_TO_END}
    units = dict(END_TO_END)
    if trace:
        print("per-layer (traced half of the window; means per request or call):")
        for name, unit in PER_LAYER:
            value, samples = summary["layers"].get(name, (0.0, 0))
            print(describe(name, float(value), unit, samples))
        metrics = {name: summary["layers"].get(name, (0.0, 0)) for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        recorded = {**result["setup_spans"].get("durations", {}), **result["spans"]["durations"]}
        silent = [span for span in SETUP_SPANS + REQUIRED_SPANS[args.workload]
                  if not recorded.get(span)]
        if silent:
            print(f"  span(s) that never fired: {', '.join(silent)}")
            correct = False
    # A metric that could not be measured (no samples, or a tail with fewer
    # than 10 samples beyond it) fails the run rather than printing NaN,
    # which is not JSON.
    values = {name: float(value) for name, (value, _) in metrics.items()}
    measured = all(math.isfinite(value) for value in values.values())
    correct = correct and measured
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
