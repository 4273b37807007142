"""Command-line interface.

Installed as the ``repro-attack`` console script (also runnable as
``python -m repro.cli``).  Six subcommands cover the common workflows:

``list``
    Show the available experiments (one per paper figure/table).
``run <experiment>``
    Run one experiment through the batched runtime, print its
    paper-vs-measured comparison, and optionally persist the record.
``report``
    Run every experiment through the :class:`~repro.runtime.ExperimentRunner`
    (optionally in parallel) and write EXPERIMENTS.md-style markdown.
``demo``
    Run the core de-anonymization attack on a freshly generated cohort and
    print the identification report with its timing breakdown.
``gallery build|enroll|identify|info``
    Operate a persistent identification gallery through the service-layer
    :class:`~repro.service.registry.GalleryRegistry`: fit it once from a
    reference session and save it to disk, append subjects incrementally,
    serve repeated identify queries against it (warm-cache, optionally
    sharded), and inspect its state (including the disk cache tier).
``serve``
    Batch-identify through the :class:`~repro.service.IdentificationService`
    async API: concurrent identify requests against a saved gallery are
    micro-batched into stacked sharded matches (bit-identical to serial
    identifies), and the serving statistics are printed.  With ``--http
    PORT`` it instead exposes the gallery over the stdlib-asyncio HTTP
    front end (``POST /identify``, ``POST /enroll``, ``GET /stats``,
    ``GET /healthz``) until SIGINT/SIGTERM, draining in-flight batches on
    shutdown.
``runtime-info``
    Print cache statistics (including the disk tier), worker configuration,
    and the detected BLAS threading setup.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.experiments import (
    ADHDExperimentConfig,
    HCPExperimentConfig,
    generate_experiments_markdown,
    paper_scale_adhd_config,
    paper_scale_hcp_config,
)
from repro.reporting.experiment import ExperimentRecord
from repro.runtime import (
    PAPER_EXPERIMENTS,
    ExperimentRunner,
    ExperimentSpec,
    format_runtime_info,
    get_default_cache,
    paper_experiment_specs,
    runtime_info,
    summarize_results,
    write_results_json,
)

#: Experiment id -> one-line description (mirrors the runtime registry).
EXPERIMENTS: Dict[str, str] = dict(PAPER_EXPERIMENTS)


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-attack",
        description="Reproduction of 'De-anonymization Attacks on Neuroimaging Datasets'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument(
        "--paper-scale", action="store_true", help="use the paper-sized configuration"
    )
    run_parser.add_argument(
        "--save", metavar="PATH", default=None, help="persist the record to PATH(.json/.npz)"
    )

    report_parser = subparsers.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report_parser.add_argument("--output", default="EXPERIMENTS.md")
    report_parser.add_argument("--paper-scale", action="store_true")
    report_parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker threads used to run experiments in parallel",
    )
    report_parser.add_argument(
        "--timings", metavar="PATH", default=None,
        help="also write per-experiment RunResult timings to PATH (JSON)",
    )

    demo_parser = subparsers.add_parser("demo", help="run the core attack on a fresh cohort")
    demo_parser.add_argument("--subjects", type=int, default=30)
    demo_parser.add_argument("--regions", type=int, default=100)
    demo_parser.add_argument("--timepoints", type=int, default=180)
    demo_parser.add_argument("--task", default="REST")
    demo_parser.add_argument("--features", type=int, default=100)
    demo_parser.add_argument("--seed", type=int, default=0)

    gallery_parser = subparsers.add_parser(
        "gallery", help="build, grow, and query a persistent identification gallery"
    )
    gallery_sub = gallery_parser.add_subparsers(dest="gallery_command", required=True)

    build_parser = gallery_sub.add_parser(
        "build", help="fit a gallery from a reference session and save it"
    )
    build_parser.add_argument("--dir", required=True, help="gallery directory")
    build_parser.add_argument("--subjects", type=_positive_int, default=16)
    build_parser.add_argument("--regions", type=_positive_int, default=64)
    build_parser.add_argument("--timepoints", type=_positive_int, default=120)
    build_parser.add_argument("--task", default="REST")
    build_parser.add_argument("--features", type=_positive_int, default=100)
    build_parser.add_argument("--rank", type=_positive_int, default=None)
    build_parser.add_argument(
        "--method", choices=("exact", "randomized"), default="exact",
        help="SVD backend for the leverage-score fit",
    )
    build_parser.add_argument("--shard-size", type=_positive_int, default=None)
    build_parser.add_argument("--seed", type=int, default=0)

    enroll_parser = gallery_sub.add_parser(
        "enroll", help="append newly scanned subjects to a saved gallery"
    )
    enroll_parser.add_argument("--dir", required=True)
    enroll_parser.add_argument(
        "--extra-subjects", type=_positive_int, default=4,
        help="how many additional cohort subjects to enroll",
    )

    identify_parser = gallery_sub.add_parser(
        "identify", help="identify an anonymous probe session against a saved gallery"
    )
    identify_parser.add_argument("--dir", required=True)
    identify_parser.add_argument(
        "--repeat", type=_positive_int, default=1,
        help="identify the same probes N times (shows warm-cache reuse)",
    )
    identify_parser.add_argument(
        "--codec", choices=("json", "binary"), default=None,
        help="route the identify over an in-process HTTP server using this "
        "request codec instead of calling in process (responses are "
        "bit-identical either way; see docs/protocol.md)",
    )
    _add_backend_arguments(identify_parser)

    info_parser_gallery = gallery_sub.add_parser(
        "info", help="print the state and cache statistics of a saved gallery"
    )
    info_parser_gallery.add_argument("--dir", required=True)

    serve_parser = subparsers.add_parser(
        "serve",
        help="micro-batch concurrent identify requests against a saved gallery",
    )
    serve_parser.add_argument("--dir", required=True, help="saved gallery directory")
    serve_parser.add_argument(
        "--requests", type=_positive_int, default=8,
        help="how many concurrent identify requests to serve",
    )
    serve_parser.add_argument(
        "--rounds", type=_positive_int, default=2,
        help="serve the same request load N times (round 2+ shows warm serving)",
    )
    serve_parser.add_argument(
        "--max-batch", type=_positive_int, default=64,
        help="most requests coalesced into one stacked match",
    )
    serve_parser.add_argument(
        "--window", type=float, default=0.0,
        help="micro-batch window in seconds (0 = coalesce per event-loop tick)",
    )
    serve_parser.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve over HTTP on PORT instead of running synthetic rounds "
        "(0 = ephemeral port; SIGINT drains in-flight batches and exits)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address of the HTTP server"
    )
    serve_parser.add_argument(
        "--codec", choices=("json", "binary"), default="json",
        help="request codec advertised in the HTTP banner; the server "
        "always accepts both Content-Types (see docs/protocol.md)",
    )
    serve_parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="shard-matching worker pool size (1 = inline matching)",
    )
    serve_parser.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="worker pool kind for sharded matching",
    )
    serve_parser.add_argument(
        "--router-workers", type=int, default=0, metavar="N",
        help="routed mode: partition galleries across N service worker "
        "processes via a consistent-hash ring (0 = single-process serving); "
        "the gallery root is the parent of --dir",
    )
    serve_parser.add_argument(
        "--request-deadline", type=float, default=None, metavar="SECONDS",
        help="routed mode: deadline on every router->worker read; a worker "
        "that does not reply in time is reaped and respawned (default 30)",
    )
    serve_parser.add_argument(
        "--drain-deadline", type=float, default=None, metavar="SECONDS",
        help="routed mode: how long remove_worker waits for a leaving "
        "worker to drain before falling back to the crash path (default 30)",
    )
    serve_parser.add_argument(
        "--admin-token", default=None, metavar="TOKEN",
        help="enable POST /admin/workers (live fleet add/remove) behind "
        "this bearer token; omitted = the admin endpoint stays disabled",
    )
    serve_parser.add_argument(
        "--rescale-file", default=None, metavar="PATH",
        help="routed mode: file holding the target fleet size; SIGHUP "
        "re-reads it and adds/removes workers to match (default: "
        "<gallery-root>/fleet-size)",
    )
    serve_parser.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="JSON fault-injection plan for chaos/soak testing (see "
        "docs/serving.md for the format); faults fire deterministically "
        "from the plan's seeded schedule",
    )
    _add_backend_arguments(serve_parser)

    info_parser = subparsers.add_parser(
        "runtime-info",
        help="print cache statistics, worker configuration, and BLAS threading",
    )
    info_parser.add_argument("--workers", type=_positive_int, default=1)
    info_parser.add_argument("--executor", choices=("thread", "process"), default="thread")
    info_parser.add_argument(
        "--router-workers", type=int, default=0, metavar="N",
        help="report the gallery-router fleet shape for N workers",
    )
    info_parser.add_argument(
        "--ring-replicas", type=_positive_int, default=64,
        help="virtual nodes per worker on the consistent-hash ring",
    )
    return parser


def _add_backend_arguments(parser) -> None:
    """Shared ``--backend``/``--precision`` policy flags (serving commands)."""
    from repro.runtime.backend import AUTO_BACKEND, PRECISIONS, available_backends

    parser.add_argument(
        "--backend",
        choices=[*available_backends(), AUTO_BACKEND],
        default=None,
        help="matching backend (default: the bit-exact numpy64; "
        "'auto' picks the fastest for the chosen precision)",
    )
    parser.add_argument(
        "--precision",
        choices=PRECISIONS,
        default="float64",
        help="matching precision; float32 is opt-in (rank agreement, "
        "not bit-identity)",
    )


def _configs(paper_scale: bool):
    if paper_scale:
        return paper_scale_hcp_config(), paper_scale_adhd_config()
    return HCPExperimentConfig(), ADHDExperimentConfig()


def _print_record(record: ExperimentRecord) -> None:
    print(f"{record.experiment_id}: {record.title}")
    for comparison in record.comparisons:
        status = "ok" if comparison.matches_shape else "MISMATCH"
        print(f"  [{status:8s}] {comparison.description}")
        print(f"             paper:    {comparison.paper_value}")
        print(f"             measured: {comparison.measured_value}")
    print(
        "shape holds" if record.shape_holds() else "SHAPE MISMATCH — see comparisons above"
    )


def _command_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name.ljust(width)}  {EXPERIMENTS[name]}")
    return 0


def _command_run(args) -> int:
    hcp_config, adhd_config = _configs(args.paper_scale)
    runner = ExperimentRunner()
    spec = ExperimentSpec(
        name=args.experiment,
        kind="experiment",
        params={
            "experiment": args.experiment,
            "hcp_config": hcp_config,
            "adhd_config": adhd_config,
        },
    )
    result = runner.run_one(spec)
    if not result.ok:
        print(f"{args.experiment} failed: {result.error}", file=sys.stderr)
        return 1
    record: ExperimentRecord = result.output
    _print_record(record)
    print(f"wall-clock: {result.total_seconds:.2f} s")
    if args.save:
        record.save(args.save)
        print(f"record saved to {args.save}")
    return 0 if record.shape_holds() else 1


def _command_report(args) -> int:
    hcp_config, adhd_config = _configs(args.paper_scale)
    runner = ExperimentRunner(max_workers=args.workers)
    results = runner.run(paper_experiment_specs(hcp_config, adhd_config))
    failed = [result for result in results if not result.ok]
    for result in failed:
        print(f"{result.name} failed: {result.error}", file=sys.stderr)
    records = {result.name: result.output for result in results if result.ok}
    generate_experiments_markdown(records, output_path=args.output)
    print(summarize_results(results))
    print(f"wrote {args.output}")
    if args.timings:
        write_results_json(results, args.timings)
        print(f"wrote {args.timings}")
    return 1 if failed else 0


def _command_demo(args) -> int:
    runner = ExperimentRunner()
    spec = ExperimentSpec(
        name="demo",
        kind="attack",
        seed=args.seed,
        params={
            "n_subjects": args.subjects,
            "n_regions": args.regions,
            "n_timepoints": args.timepoints,
            "n_features": args.features,
            "task": args.task,
            "dataset_seed": args.seed,
        },
    )
    result = runner.run_one(spec)
    if not result.ok:
        print(f"demo failed: {result.error}", file=sys.stderr)
        return 1
    print(result.output)
    timings = ", ".join(
        f"{name}={seconds:.2f}s" for name, seconds in sorted(result.timings.items())
    )
    print()
    print(f"timings: {timings}")
    return 0


def _command_runtime_info(args) -> int:
    runner = ExperimentRunner(max_workers=args.workers, executor=args.executor)
    print(
        format_runtime_info(
            runtime_info(
                cache=get_default_cache(),
                runner=runner,
                router_workers=args.router_workers,
                ring_replicas=args.ring_replicas,
            )
        )
    )
    return 0


# --------------------------------------------------------------------------- #
# Gallery / serve subcommands (routed through the service layer)
# --------------------------------------------------------------------------- #
def _gallery_dataset(recipe: Dict):
    """Recreate the synthetic cohort a gallery was built from."""
    from repro.datasets.hcp import HCPLikeDataset

    return HCPLikeDataset(
        n_subjects=int(recipe["n_subjects"]),
        n_regions=int(recipe["n_regions"]),
        n_timepoints=int(recipe["n_timepoints"]),
        random_state=int(recipe["seed"]),
    )


def _registry_for(directory, config=None):
    """A :class:`~repro.service.GalleryRegistry` rooted next to ``directory``.

    The CLI addresses galleries by directory; the registry addresses them by
    name under a root — so ``--dir a/b/gal`` maps to root ``a/b`` and name
    ``gal``.
    """
    from repro.service import GalleryRegistry

    directory = Path(directory)
    root = directory.parent if str(directory.parent) else Path(".")
    return GalleryRegistry(root=root, config=config), directory.name


def _print_cache_kinds(cache, kinds) -> None:
    """Per-kind cache counters (memory + disk tiers) for operator output."""
    for kind in kinds:
        stats = cache.stats(kind)
        print(
            f"  - {kind:<13s}: hits={stats.hits} misses={stats.misses} "
            f"disk_hits={stats.disk_hits} hit_rate={stats.hit_rate:.2f}"
        )


def _command_gallery_build(args) -> int:
    from repro.service import ServiceConfig

    recipe = {
        "n_subjects": args.subjects,
        "n_regions": args.regions,
        "n_timepoints": args.timepoints,
        "task": args.task,
        "seed": args.seed,
    }
    dataset = _gallery_dataset(recipe)
    scans = dataset.generate_session(args.task, encoding="LR", day=1)
    n_features = min(args.features, dataset.n_regions * (dataset.n_regions - 1) // 2)
    config = ServiceConfig(
        n_features=n_features,
        rank=args.rank,
        method=args.method,
        random_state=args.seed,
        shard_size=args.shard_size,
    )
    registry, name = _registry_for(args.dir, config=config)
    try:
        gallery = registry.build(name, scans, metadata={"dataset": recipe})
        registry.persist(name)
        print(
            f"built gallery: {gallery.n_subjects} subjects, "
            f"{gallery.n_features}/{gallery.reference.n_features} features "
            f"({gallery.method} SVD), saved to {args.dir}"
        )
        print(f"fingerprint: {gallery.fingerprint[:16]}…")
        return 0
    finally:
        registry.close()


def _command_gallery_enroll(args) -> int:
    registry, name = _registry_for(args.dir)
    try:
        gallery = registry.get(name)
        recipe = dict(gallery.metadata.get("dataset") or {})
        if not recipe:
            print("gallery carries no dataset recipe; cannot synthesize new subjects",
                  file=sys.stderr)
            return 1
        recipe["n_subjects"] = int(recipe["n_subjects"]) + args.extra_subjects
        dataset = _gallery_dataset(recipe)
        scans = dataset.generate_session(recipe["task"], encoding="LR", day=1)
        added = registry.enroll(name, scans)
        gallery.metadata["dataset"] = recipe
        registry.persist(name)
        print(
            f"enrolled {added} new subject(s); gallery now holds "
            f"{gallery.n_subjects} subjects (refits: {gallery.refit_count_})"
        )
        return 0
    finally:
        registry.close()


def _command_gallery_identify(args) -> int:
    from repro.service import IdentificationService, IdentifyRequest, ServiceConfig

    config = ServiceConfig(backend=args.backend, precision=args.precision)
    registry, name = _registry_for(args.dir, config=config)
    service = IdentificationService(registry=registry, config=config)
    try:
        gallery = registry.get(name)
        recipe = gallery.metadata.get("dataset")
        if not recipe:
            print("gallery carries no dataset recipe; cannot synthesize probes",
                  file=sys.stderr)
            return 1
        dataset = _gallery_dataset(recipe)
        probes = dataset.generate_session(recipe["task"], encoding="RL", day=2)
        response = None
        if args.codec is not None:
            # Wire mode: the same identify, routed through an ephemeral HTTP
            # server in the chosen codec — the response is bit-identical to
            # the in-process path (docs/protocol.md).
            from repro.service.http import BackgroundHttpServer, ServiceClient

            with BackgroundHttpServer(service, port=0) as background:
                with ServiceClient(
                    port=background.port, codec=args.codec
                ) as wire_client:
                    for _ in range(args.repeat):
                        response = wire_client.identify(gallery=name, scans=probes)
            print(f"identified over HTTP ({args.codec} codec)")
        else:
            for _ in range(args.repeat):
                response = service.identify(IdentifyRequest(gallery=name, scans=probes))
        if not response.ok:
            print(f"identify failed: {response.error}", file=sys.stderr)
            return 1
        print(
            f"identified {response.n_probes} probes against "
            f"{response.n_gallery_subjects} enrolled subjects "
            f"(backend: {gallery.backend})"
        )
        print(f"identification accuracy : {100.0 * response.accuracy:.1f} %")
        margins = response.margins
        print(f"mean confidence margin  : {sum(margins) / len(margins):.3f}")
        stats = service.cache.stats("group_matrix")
        probe_stats = service.cache.stats("probe")
        print(
            f"group-matrix cache      : {stats.hits} hits / {stats.misses} misses "
            f"over {args.repeat} identify call(s)"
        )
        print(
            f"probe-signature cache   : {probe_stats.hits} hits / "
            f"{probe_stats.misses} misses"
        )
        return 0
    finally:
        service.close()


def _command_gallery_info(args) -> int:
    registry, name = _registry_for(args.dir)
    try:
        gallery = registry.get(name)
        info = gallery.info()
        cache_dir = gallery.cache.cache_dir
        print(f"subjects enrolled   : {info['n_subjects']}")
        print(
            "signature features  : "
            f"{info['n_features_selected']} of {info['n_features_total']}"
        )
        print(f"svd backend         : {info['method']} (rank={info['rank']})")
        print(f"matching backend    : {info['backend'] or 'numpy64 (default)'}")
        print(f"shard size          : {info['shard_size'] or '(single block)'}")
        print(f"fingerprint         : {info['fingerprint']}")
        print(f"disk cache tier     : {cache_dir if cache_dir is not None else '(memory only)'}")
        _print_cache_kinds(
            gallery.cache,
            ("gallery", "gallery_norm", "leverage", "svd", "group_matrix", "probe"),
        )
        return 0
    finally:
        registry.close()


def _command_serve(args) -> int:
    from repro.exceptions import ReproError

    try:
        return _serve(args)
    except ReproError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1


def _serve(args) -> int:
    import json as _json

    from repro.service import IdentificationService, ServiceConfig

    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = _json.loads(Path(args.fault_plan).read_text())
        except OSError as exc:
            print(f"serve failed: cannot read fault plan: {exc}", file=sys.stderr)
            return 1
        except _json.JSONDecodeError as exc:
            print(
                f"serve failed: fault plan {args.fault_plan} is not valid JSON: {exc}",
                file=sys.stderr,
            )
            return 1
    overrides = {}
    if args.request_deadline is not None:
        overrides["request_deadline_s"] = args.request_deadline
    if args.drain_deadline is not None:
        overrides["drain_deadline_s"] = args.drain_deadline
    if args.admin_token is not None:
        overrides["admin_token"] = args.admin_token
    config = ServiceConfig(
        max_batch_size=args.max_batch,
        batch_window_s=args.window,
        backend=args.backend,
        precision=args.precision,
        max_workers=args.workers,
        executor=args.executor,
        http_host=args.host,
        http_port=args.http if args.http is not None else 8035,
        codec=args.codec,
        router_workers=max(0, args.router_workers),
        fault_plan=fault_plan,
        **overrides,
    )
    if fault_plan is not None:
        rules = len(fault_plan.get("rules", []))
        print(f"fault injection: {rules} rule(s) loaded from {args.fault_plan}")
    if config.router_workers > 0:
        # Routed mode: one GalleryRouter over the parent of --dir; every
        # gallery under that root is servable, dispatched by name across
        # the worker fleet.
        from repro.exceptions import ValidationError
        from repro.service import GalleryRouter

        directory = Path(args.dir)
        root = directory.parent if str(directory.parent) else Path(".")
        name = directory.name
        router = GalleryRouter(root, config=config)
        try:
            if name not in router.registry:
                raise ValidationError(
                    f"no saved gallery named {name!r} under {root} "
                    "(routed serving loads from disk; build it first)"
                )
            if args.http is not None:
                return _serve_http(router, name, rescale_file=args.rescale_file)
            return _serve_rounds(router, name, args)
        finally:
            # Drains every worker (each releases its own pool and /dev/shm
            # segments before the router joins it).
            router.close()
    registry, name = _registry_for(args.dir, config=config)
    service = IdentificationService(registry=registry, config=config)
    # Everything below must release the runner pool and /dev/shm segments on
    # every exit path — early returns and mid-round ReproErrors included.
    try:
        if args.http is not None:
            return _serve_http(service, name)
        return _serve_rounds(service, name, args)
    finally:
        service.close()


def _serve_rounds(service, name, args) -> int:
    """Synthetic-load mode: N concurrent requests, R rounds, one event loop.

    All rounds run inside a single ``asyncio.run`` so round 2+ reuses the
    event loop — and therefore the per-loop micro-batcher — it claims to be
    measuring warm.  (One loop per round would create a fresh batcher each
    time; ``ServiceStats.batchers`` staying at 1 is the observable proof of
    reuse.)
    """
    import asyncio

    from repro.service import IdentifyRequest

    routed = not hasattr(service.registry, "get")
    if routed:
        # The router never loads galleries in this process; the persisted
        # metadata on disk carries the dataset recipe.
        import json as _json

        meta_path = Path(service.root) / name / "gallery.json"
        saved = _json.loads(meta_path.read_text())
        recipe = (saved.get("metadata") or {}).get("dataset")
        backend_label = service.config.backend or "numpy64 (default)"
    else:
        gallery = service.registry.get(name)
        recipe = gallery.metadata.get("dataset")
        backend_label = gallery.backend
    if not recipe:
        print("gallery carries no dataset recipe; cannot synthesize probes",
              file=sys.stderr)
        return 1
    dataset = _gallery_dataset(recipe)
    probes = dataset.generate_session(recipe["task"], encoding="RL", day=2)
    n_requests = min(args.requests, len(probes))
    groups = [probes[i::n_requests] for i in range(n_requests)]

    async def serve_rounds():
        last = []
        for round_index in range(args.rounds):
            requests = [IdentifyRequest(gallery=name, scans=group) for group in groups]
            start = time.perf_counter()
            last = await asyncio.gather(
                *(service.identify_async(request) for request in requests)
            )
            elapsed = time.perf_counter() - start
            label = "cold" if round_index == 0 else "warm"
            print(
                f"round {round_index + 1} ({label}): served {len(last)} "
                f"concurrent requests in {1e3 * elapsed:.1f} ms "
                f"(max coalesced batch: {max(r.batch_size for r in last)})"
            )
        return last, service.stats()

    responses, stats = asyncio.run(serve_rounds())
    if stats.batchers != 1 and not routed:
        print(
            f"warning: {stats.batchers} micro-batchers were live after "
            f"{args.rounds} rounds (expected 1: warm rounds should reuse "
            "the same event loop's batcher)",
            file=sys.stderr,
        )
    failed = [response for response in responses if not response.ok]
    for response in failed:
        print(f"{response.request_id} failed: {response.error}", file=sys.stderr)
    n_correct = sum(
        predicted == actual
        for response in responses
        if response.ok
        for predicted, actual in zip(
            response.predicted_subject_ids, response.target_subject_ids
        )
    )
    n_probes = sum(response.n_probes for response in responses if response.ok)
    if n_probes:
        print(f"identification accuracy : {100.0 * n_correct / n_probes:.1f} %")
    print(f"matching backend        : {backend_label}")
    print()
    for line in stats.summary_lines():
        print(line)
    return 1 if failed else 0


def _apply_rescale(router, path) -> None:
    """Bring the fleet to the worker count ``path`` holds (SIGHUP handler).

    The file carries one integer — the *target* fleet size; workers are
    added or removed one at a time until the membership matches.  A
    missing, unreadable, or non-integer file is logged and ignored (a
    stray SIGHUP must never tear the fleet down), as is a racing resize.
    """
    from repro.exceptions import ReproError

    try:
        target = int(Path(path).read_text().strip())
    except (OSError, ValueError) as exc:
        print(f"rescale ignored: cannot read a fleet size from {path}: {exc}",
              flush=True)
        return
    if target < 1:
        print(f"rescale ignored: target fleet size must be >= 1, got {target}",
              flush=True)
        return
    try:
        while len(router.workers) < target:
            record = router.add_worker()
            print(
                f"rescale: added {record['worker']} "
                f"({record['members_after']} workers, "
                f"{record['remapped_galleries']} galleries remapped, "
                f"{record['warmed']} warmed)",
                flush=True,
            )
        while len(router.workers) > target:
            record = router.remove_worker()
            drained = "drained" if record["drained"] else "killed after drain failure"
            print(
                f"rescale: removed {record['worker']} "
                f"({record['members_after']} workers, {drained} "
                f"in {record['drain_s']:.2f}s)",
                flush=True,
            )
    except ReproError as exc:
        print(f"rescale stopped: {exc}", flush=True)


def _serve_http(service, name, rescale_file=None) -> int:
    """HTTP mode: serve the gallery until SIGINT/SIGTERM, then drain."""
    import asyncio
    import signal

    from repro.service.http import HttpServiceServer

    if hasattr(service.registry, "get"):
        service.registry.get(name)  # fail fast on a missing/corrupt gallery

    async def run_server():
        server = HttpServiceServer(service)
        await server.start()
        host, port = server.address
        print(f"serving gallery {name!r} on http://{host}:{port}", flush=True)
        print("endpoints: POST /identify  POST /enroll  GET /stats  GET /healthz",
              flush=True)
        from repro.service.codec import CONTENT_TYPE_BINARY, CONTENT_TYPE_JSON

        advertised = (
            CONTENT_TYPE_BINARY if service.config.codec == "binary" else CONTENT_TYPE_JSON
        )
        print(
            f"codecs: {CONTENT_TYPE_JSON} (default)  {CONTENT_TYPE_BINARY}  "
            f"[advertised: {advertised}]",
            flush=True,
        )
        workers = getattr(service, "workers", None)
        if workers is not None:
            # Routed mode: surface the fleet shape and who holds what.
            health = service.healthz()
            print(
                f"router: {len(workers)} worker process(es), "
                f"ring size {service.ring_size} "
                f"({service.config.ring_replicas} virtual nodes per worker)",
                flush=True,
            )
            for worker_name in workers:
                entry = health["workers"].get(worker_name, {})
                resident = ", ".join(entry.get("resident") or ()) or "(none resident)"
                print(
                    f"  - {worker_name} (pid {entry.get('pid')}): {resident}",
                    flush=True,
                )
            if service.config.admin_token:
                print("admin: POST /admin/workers enabled (bearer token)", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.stop)
            except NotImplementedError:  # pragma: no cover - non-Unix loop
                signal.signal(signum, lambda *_: server.stop())
        if workers is not None and hasattr(signal, "SIGHUP"):
            # Live rescale: SIGHUP re-reads the target fleet size and
            # resizes off the event loop (a resize spawns/drains worker
            # processes; the loop keeps serving meanwhile).
            rescale_path = (
                Path(rescale_file) if rescale_file
                else Path(service.root) / "fleet-size"
            )

            def _on_sighup() -> None:
                loop.run_in_executor(None, _apply_rescale, service, rescale_path)

            try:
                loop.add_signal_handler(signal.SIGHUP, _on_sighup)
                print(
                    f"rescale: SIGHUP re-reads the target fleet size "
                    f"from {rescale_path}",
                    flush=True,
                )
            except NotImplementedError:  # pragma: no cover - non-Unix loop
                pass
        await server.serve_forever()
        print("shutdown: in-flight batches drained", flush=True)
        return server.requests_served

    served = asyncio.run(run_server())
    print(f"requests served over HTTP: {served}")
    for line in service.stats().summary_lines():
        print(line)
    return 0


def _command_gallery(args) -> int:
    from repro.exceptions import ReproError

    commands = {
        "build": _command_gallery_build,
        "enroll": _command_gallery_enroll,
        "identify": _command_gallery_identify,
        "info": _command_gallery_info,
    }
    try:
        return commands[args.gallery_command](args)
    except ReproError as exc:
        # Missing/tampered gallery directories and the like: a clean message
        # and exit 1, matching the other commands' failure style.
        print(f"gallery {args.gallery_command} failed: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-attack`` console script."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "demo":
        return _command_demo(args)
    if args.command == "gallery":
        return _command_gallery(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "runtime-info":
        return _command_runtime_info(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
