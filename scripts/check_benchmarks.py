"""Import-check every benchmark module (CI benchmark-smoke job).

Benchmarks only execute under pytest-benchmark, but import-time breakage
(renamed experiment functions, moved helpers) should fail fast in CI without
paying for a full benchmark run.  This script imports every
``benchmarks/bench_*.py`` module with the benchmarks directory on
``sys.path`` (mirroring how pytest resolves their ``conftest`` import).

With ``--backend-trajectory PATH`` it additionally *runs* the backend
matching benchmark and writes its trajectory record (transport speedup,
selected backend, precision outcomes) to PATH — the ``BENCH_backend.json``
artifact the CI smoke job uploads so speedups can be tracked across
commits.  ``--http-trajectory PATH`` does the same for the HTTP serving
benchmark, writing the wire-overhead ratio per codec (JSON vs binary
frames) to PATH (``BENCH_http.json`` in CI).  ``--router-trajectory
PATH`` runs the gallery-router scaling benchmark and writes the 4-vs-1
worker aggregate throughput plus the routed bit-identity verdict (IPC and
both HTTP codecs) to PATH (``BENCH_router.json`` in CI); bit-identity is
the hard gate, the speedup is recorded for trajectory tracking.
``--chaos-trajectory PATH`` runs the chaos-churn serving benchmark — the
phased fault schedule (worker crash, hang, corrupted/truncated IPC
frames, disk-cache I/O errors) under concurrent identify + enroll churn —
and writes per-phase outcomes, p50/p99 latency, and every hard-gate
verdict to PATH (``BENCH_chaos.json`` in CI); all of its gates
(bit-identity to the fault-free replay, bounded error rate, observable
respawns/timeouts/disk errors, bounded hung-worker failover, zero leaked
segments or worker processes) are hard gates.  ``--fleet-trajectory PATH``
runs the fleet-churn benchmark — the live membership schedule (2 → 3 → 4
→ 3 via ``add_worker``/``remove_worker``) under concurrent identify +
enroll load — and writes per-step remap fractions, drain outcomes, and
every hard-gate verdict to PATH (``BENCH_fleet.json`` in CI); all of its
gates (bit-identity to the resize-free replay, zero identify errors,
durable-or-safe-to-resend enrolls, remap <= 1.5/N per step, clean drains
within the deadline, zero leaks) are hard gates.

Usage::

    PYTHONPATH=src python scripts/check_benchmarks.py
    PYTHONPATH=src python scripts/check_benchmarks.py --backend-trajectory BENCH_backend.json
    PYTHONPATH=src python scripts/check_benchmarks.py --http-trajectory BENCH_http.json
    PYTHONPATH=src python scripts/check_benchmarks.py --router-trajectory BENCH_router.json
    PYTHONPATH=src python scripts/check_benchmarks.py --chaos-trajectory BENCH_chaos.json
    PYTHONPATH=src python scripts/check_benchmarks.py --fleet-trajectory BENCH_fleet.json
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

#: Benchmarks CI depends on (smoke-run directly in the workflow); a rename or
#: deletion should fail here, not in a YAML file nobody executes locally.
REQUIRED_BENCHMARKS = {
    "bench_runtime_batching",
    "bench_gallery_matching",
    "bench_service_batching",
    "bench_backend_matching",
    "bench_http_serving",
    "bench_router_scaling",
    "bench_chaos_serving",
    "bench_fleet_churn",
}


def _benchmarks_on_path() -> Path:
    """Make ``benchmarks/`` importable (idempotent); returns the directory."""
    benchmarks_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    if str(benchmarks_dir) not in sys.path:
        sys.path.insert(0, str(benchmarks_dir))
    return benchmarks_dir


def _recorded(run_name: str) -> Callable[..., dict]:
    """``run`` for a benchmark whose one run function feeds ``trajectory_record``."""
    return lambda bench, **kwargs: bench.trajectory_record(
        getattr(bench, run_name)(**kwargs)
    )


class Trajectory(NamedTuple):
    """One ``--NAME-trajectory`` flag: the benchmark it runs and its hard gates.

    ``run`` turns the imported benchmark module plus the workload keyword
    overrides into the trajectory record.  ``overrides`` maps each
    ``--NAME-OPTION`` smoke-size flag to ``(benchmark keyword, type,
    metavar, help)``; every override defaults to the acceptance workload.
    ``summary`` renders the one-line report and ``gate`` lists the record's
    hard-gate failures (empty when it passes).
    """

    name: str
    module: str
    run: Callable[..., dict]
    help: str
    summary: Callable[[dict], str]
    gate: Callable[[dict], List[str]]
    overrides: Dict[str, Tuple[str, type, str, str]] = {}


def _chaos_summary(record: dict) -> str:
    totals = record["totals"]
    return (
        f"{totals['ok']}/{totals['requests']} bit-identical, "
        f"error_rate={record['error_rate']:.3f}, respawns={totals['respawns']}, "
        f"timeouts={totals['worker_timeouts']}, disk_errors={totals['disk_errors']}, "
        f"p50={record['latency']['p50_ms']:.1f}ms p99={record['latency']['p99_ms']:.1f}ms"
    )


def _fleet_summary(record: dict) -> str:
    totals = record["totals"]
    remap = ", ".join(
        f"{step['action']} {step['remap_fraction']:.3f}/{step['remap_bound']:.3f}"
        for step in record["steps"]
    )
    return (
        f"{totals['ok']}/{totals['requests']} bit-identical, "
        f"{totals['errors']} error(s), churn {totals['churn_ok']}+"
        f"{totals['churn_resends']} resend(s), remap [{remap}], "
        f"members={len(record['final_members'])}"
    )


def _smoke_sizes(name: str, **extra: Tuple[str, type, str, str]) -> dict:
    """The gallery/subject overrides the serving benchmarks share, plus ``extra``."""
    return {
        "galleries": (
            "n_galleries", int, "N",
            f"override the gallery count of --{name}-trajectory (smoke runs)",
        ),
        "subjects": (
            "n_subjects", int, "N",
            f"override the subjects per gallery of --{name}-trajectory",
        ),
        **extra,
    }


#: Every ``--NAME-trajectory`` flag, in the order :func:`main` runs them.
#: Speedups and overhead ratios are trajectory data only (CI boxes are too
#: noisy to pin a ratio; the pytest-benchmark tests own those bounds), so
#: each gate checks correctness alone.  The chaos and fleet gates have no
#: soft mode: correctness under faults or across a resize is all or nothing.
TRAJECTORIES: Dict[str, Trajectory] = {
    spec.name: spec
    for spec in (
        Trajectory(
            "backend",
            "bench_backend_matching",
            # The acceptance workload (256-subject x 400-feature gallery)
            # is the only scale at which the transport comparison means
            # anything: tiny workloads cannot amortize the segment publish.
            run=lambda bench: bench.trajectory_record(
                bench.run_transport_benchmark(), bench.run_precision_benchmark()
            ),
            help="run the backend matching benchmark and write its trajectory "
            "record (speedup + backend name) to PATH",
            summary=lambda record: (
                f"backend={record['backend']} "
                f"transport_speedup={record['speedup']:.2f}x "
                f"bitwise_equal={record['transport']['bitwise_equal']}"
            ),
            gate=lambda record: (
                [] if record["transport"]["bitwise_equal"]
                else ["transports disagreed bitwise"]
            ),
        ),
        Trajectory(
            "http",
            "bench_http_serving",
            # The acceptance workload (64 x 100-region gallery, 4 keep-alive
            # clients) is the only scale at which the <= 5x binary-codec
            # bound is meaningful.
            run=_recorded("run_http_benchmark"),
            help="run the HTTP serving benchmark and write its trajectory "
            "record (wire-overhead ratio per codec) to PATH",
            summary=lambda record: (
                f"json={record['codecs']['json']['overhead']:.1f}x "
                f"binary={record['codecs']['binary']['overhead']:.1f}x "
                f"binary_vs_json={record['binary_vs_json_speedup'] or float('nan'):.1f}x "
                f"bitwise_equal={record['bitwise_equal']}"
            ),
            gate=lambda record: [
                failure
                for passed, failure in (
                    (record["bitwise_equal"], "responses diverged from serial identify"),
                    (record["max_http_batch"] > 1, "pipelined HTTP clients did not coalesce"),
                )
                if not passed
            ],
        ),
        Trajectory(
            "router",
            "bench_router_scaling",
            run=_recorded("run_router_benchmark"),
            help="run the gallery-router scaling benchmark and write its "
            "trajectory record (4-vs-1 worker throughput, routed bit-identity) "
            "to PATH",
            summary=lambda record: (
                f"speedup={record['speedup']:.2f}x "
                f"({record['fleet_workers']} workers vs 1) "
                f"bitwise_equal={record['bitwise_equal']} "
                f"http_codecs={record['http_codecs']}"
            ),
            gate=lambda record: (
                [] if record["bitwise_equal"]
                else ["routed responses diverged from single-process serving"]
            ),
            overrides=_smoke_sizes("router", requests=(
                "requests_per_gallery", int, "N",
                "override the requests per gallery of --router-trajectory",
            )),
        ),
        Trajectory(
            "chaos",
            "bench_chaos_serving",
            run=_recorded("run_chaos_benchmark"),
            help="run the chaos-churn serving benchmark (phased fault schedule "
            "under concurrent identify + enroll churn) and write its trajectory "
            "record (per-phase outcomes, p50/p99, hard-gate verdicts) to PATH",
            summary=_chaos_summary,
            gate=lambda record: list(record["gate_failures"]),
            overrides=_smoke_sizes("chaos", requests=(
                "requests_per_gallery", int, "N",
                "override the identify requests per gallery per phase of "
                "--chaos-trajectory (>= 4 so every fault rule fires)",
            )),
        ),
        Trajectory(
            "fleet",
            "bench_fleet_churn",
            run=_recorded("run_fleet_churn_benchmark"),
            help="run the fleet-churn benchmark (live 2→3→4→3 membership "
            "schedule under concurrent identify + enroll load) and write its "
            "trajectory record (per-step remap fractions, drain outcomes, "
            "hard-gate verdicts) to PATH",
            summary=_fleet_summary,
            gate=lambda record: list(record["gate_failures"]),
            overrides=_smoke_sizes("fleet", hold=(
                "hold_s", float, "SECONDS",
                "override the load hold between membership steps of "
                "--fleet-trajectory",
            )),
        ),
    )
}


def write_trajectory(spec: Trajectory, path: Path, **overrides) -> dict:
    """Run ``spec``'s benchmark and write its trajectory record to ``path``.

    ``overrides`` are keyed like the smoke-size flags (``galleries=4`` for
    ``--router-galleries 4``); ``None`` keeps the acceptance workload.
    """
    _benchmarks_on_path()
    bench = importlib.import_module(spec.module)
    kwargs = {
        spec.overrides[option][0]: value
        for option, value in overrides.items()
        if value is not None
    }
    record = spec.run(bench, **kwargs)
    path.write_text(json.dumps(record, indent=2))
    return record


write_backend_trajectory = functools.partial(write_trajectory, TRAJECTORIES["backend"])
write_http_trajectory = functools.partial(write_trajectory, TRAJECTORIES["http"])
write_router_trajectory = functools.partial(write_trajectory, TRAJECTORIES["router"])
write_chaos_trajectory = functools.partial(write_trajectory, TRAJECTORIES["chaos"])
write_fleet_trajectory = functools.partial(write_trajectory, TRAJECTORIES["fleet"])


def run_import_checks() -> int:
    """Import every ``benchmarks/bench_*.py`` module; 0 when all succeed.

    Imports resolve against the benchmarks directory (mirroring how pytest
    resolves their ``conftest`` import), so this must run in a process that
    has not already bound ``conftest`` to something else.
    """
    benchmarks_dir = _benchmarks_on_path()
    failures = []
    modules = sorted(path.stem for path in benchmarks_dir.glob("bench_*.py"))
    missing = REQUIRED_BENCHMARKS - set(modules)
    if missing:
        for module_name in sorted(missing):
            print(f"FAIL {module_name}: required benchmark module is missing")
        return 1
    for module_name in modules:
        try:
            importlib.import_module(module_name)
            print(f"ok   {module_name}")
        except Exception as exc:  # surface every broken module, not just the first
            failures.append((module_name, exc))
            print(f"FAIL {module_name}: {type(exc).__name__}: {exc}")
    print(f"{len(modules) - len(failures)}/{len(modules)} benchmark modules import cleanly")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    for name, spec in TRAJECTORIES.items():
        parser.add_argument(
            f"--{name}-trajectory", metavar="PATH", default=None, help=spec.help
        )
        for option, (_, kind, metavar, help_text) in spec.overrides.items():
            parser.add_argument(
                f"--{name}-{option}", metavar=metavar, type=kind, default=None,
                help=help_text,
            )
    args = parser.parse_args(argv)

    if run_import_checks() != 0:
        return 1

    for name, spec in TRAJECTORIES.items():
        path = getattr(args, f"{name}_trajectory")
        if not path:
            continue
        # Looked up by name at call time so a test can stand in for a writer.
        writer = globals()[f"write_{name}_trajectory"]
        record = writer(
            Path(path),
            **{option: getattr(args, f"{name}_{option}") for option in spec.overrides},
        )
        print(f"{name} trajectory: {spec.summary(record)} -> {path}")
        failures = spec.gate(record)
        for failure in failures:
            print(f"FAIL {name} trajectory: {failure}")
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
