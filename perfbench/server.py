"""The serving process of the HTTP workloads (run as a child of ``run.py``).

Usage: ``python3 perfbench/server.py --inputs FILE.npz --root DIR [--trace]``

It builds and persists the galleries named in the inputs file under the
shipped ``ServiceConfig`` defaults (only the port is ephemeral), serves them
over HTTP on 127.0.0.1, and prints one JSON line ``{"ready": ..., "port":
...}``.  It then answers one-line commands on stdin, one JSON line each on
stdout:

The ready line carries the spans recorded while building (with
``--trace``: the gallery fit and its leverage scores).

``trace``  wrap the identify path's functions at their import sites
``mark``   start a measurement window: clear spans, snapshot the counters
``dump``   spans and counter deltas since ``mark``, plus peak RSS
``stop``   drain the server and exit (so does EOF on stdin)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from harness import peak_rss_mb, service_counters  # noqa: E402
from spans import SpanLog, install_fit_spans, kernel_shape_counters  # noqa: E402


def scans_from_inputs(inputs, prefix: str):
    """Rebuild the scan records stored under ``prefix`` in an inputs file."""
    from repro.datasets.base import ScanRecord

    return [
        ScanRecord(subject_id=str(subject), task="REST", session=str(session),
                   timeseries=np.ascontiguousarray(series))
        for subject, session, series in zip(
            inputs[f"{prefix}_ids"], inputs[f"{prefix}_sessions"], inputs[f"{prefix}_ts"]
        )
    ]


def install_identify_spans(log: SpanLog, service) -> None:
    import functools

    log.timed("repro.service.codec", "identify_request_from_frames", "codec.decode")
    log.timed("repro.service.service", "build_group_matrix_batched", "runtime.group_matrix")
    log.timed("repro.service.service", "match_normalized", "gallery.kernel",
              extra=kernel_shape_counters)

    def make(original):
        @functools.wraps(original)
        async def traced(request):
            start = time.perf_counter()
            response = await original(request)
            span = time.perf_counter() - start
            log.add("service.identify_async", span)
            if "batch_s" in response.timings:
                log.add("service.queue_wait", span - response.timings["batch_s"])
            return response

        return traced

    log.patch(service, "identify_async", make)


def reply(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.service import (
        BackgroundHttpServer,
        GalleryRegistry,
        IdentificationService,
        ServiceConfig,
    )

    log = SpanLog()
    if args.trace:
        install_fit_spans(log)
    config = ServiceConfig()
    registry = GalleryRegistry(root=args.root, config=config)
    with np.load(args.inputs) as inputs:
        names = [str(name) for name in inputs["gallery_names"]]
        for name in names:
            registry.build(name, scans_from_inputs(inputs, name))
            registry.persist(name)
    service = IdentificationService(registry=registry, config=config)
    server = BackgroundHttpServer(service, port=0).start()
    reply({"ready": True, "port": server.port, "galleries": names,
           "setup_spans": log.snapshot()})

    baseline = service_counters(service.stats())
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                install_identify_spans(log, service)
                reply({"ok": True})
            elif command == "mark":
                log.clear()
                baseline = service_counters(service.stats())
                reply({"ok": True})
            elif command == "dump":
                reply({
                    "spans": log.snapshot(),
                    "before": baseline,
                    "after": service_counters(service.stats()),
                    "peak_rss_mb": peak_rss_mb(os.getpid()),
                })
            elif command == "stop":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        server.stop()
        service.close()
        log.restore()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
