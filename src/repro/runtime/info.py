"""Runtime environment introspection for the ``runtime-info`` CLI command.

The batched paths lean on whatever BLAS NumPy is linked against, so knowing
which backend is active and how many threads it may spawn matters when
sizing the runner's worker pool (an 8-thread BLAS under an 8-worker pool
oversubscribes the machine 64-fold).  Detection is best-effort: we consult
``threadpoolctl`` when available, NumPy's build configuration otherwise, and
always report the standard threading environment variables.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

import numpy as np

#: Environment variables that cap BLAS/OpenMP thread pools.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def detect_blas_threading() -> Dict[str, Any]:
    """Best-effort description of the BLAS backend and its thread budget."""
    info: Dict[str, Any] = {
        "env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "cpu_count": os.cpu_count() or 1,
    }
    pools: List[Dict[str, Any]] = []
    try:  # threadpoolctl is optional; the container may not ship it.
        from threadpoolctl import threadpool_info

        for pool in threadpool_info():
            pools.append(
                {
                    "library": pool.get("internal_api") or pool.get("user_api"),
                    "num_threads": pool.get("num_threads"),
                    "filepath": pool.get("filepath"),
                }
            )
        info["source"] = "threadpoolctl"
    except ImportError:
        info["source"] = "numpy.__config__"
    if not pools:
        build = {}
        config = getattr(np, "__config__", None)
        if config is not None and hasattr(config, "show"):
            try:
                build = config.show(mode="dicts")  # numpy >= 1.26
            except TypeError:  # pragma: no cover - older numpy signature
                build = {}
        blas = {}
        if isinstance(build, dict):
            blas = build.get("Build Dependencies", {}).get("blas", {})
        pools.append(
            {
                "library": blas.get("name", "unknown"),
                "num_threads": None,
                "filepath": None,
            }
        )
    info["pools"] = pools
    return info


def runtime_info(
    cache=None, runner=None, router_workers: int = 0, ring_replicas: int = 64
) -> Dict[str, Any]:
    """Aggregate runtime diagnostics: cache stats, worker config, BLAS threading.

    Parameters
    ----------
    cache:
        :class:`~repro.runtime.cache.ArtifactCache` to report on; defaults to
        the process-wide cache.
    runner:
        Optional :class:`~repro.runtime.runner.ExperimentRunner` whose worker
        configuration should be reported; defaults to a fresh default runner.
    router_workers / ring_replicas:
        Gallery-router fleet shape to report on (``serve --router-workers``);
        0 workers means single-process serving, no router.
    """
    from repro.runtime.backend import backend_registry_info
    from repro.runtime.cache import get_default_cache
    from repro.runtime.runner import ExperimentRunner

    cache = cache if cache is not None else get_default_cache()
    runner = runner if runner is not None else ExperimentRunner(cache=cache)
    return {
        "numpy_version": np.__version__,
        "backends": backend_registry_info(),
        "cache": {
            "memory_items": len(cache),
            "max_memory_items": cache.max_memory_items,
            "cache_dir": str(cache.cache_dir) if cache.cache_dir is not None else None,
            "total": cache.stats().as_dict(),
            "by_kind": cache.stats_by_kind(),
        },
        "workers": runner.worker_config(),
        "router": {
            "workers": int(router_workers),
            "ring_replicas": int(ring_replicas),
            "ring_size": int(router_workers) * int(ring_replicas),
            "mode": "routed" if int(router_workers) > 0 else "single-process",
        },
        "blas": detect_blas_threading(),
    }


def format_runtime_info(info: Dict[str, Any]) -> str:
    """Render :func:`runtime_info` output as indented plain text."""
    lines: List[str] = []
    lines.append(f"numpy               : {info['numpy_version']}")
    workers = info["workers"]
    lines.append(
        "workers             : "
        f"max_workers={workers['max_workers']} executor={workers['executor']} "
        f"base_seed={workers['base_seed']} cpu_count={workers['cpu_count']}"
        + (
            f" shared_transport={workers['shared_transport']}"
            if "shared_transport" in workers
            else ""
        )
    )
    backends = info.get("backends") or []
    if backends:
        rendered = ", ".join(
            "{name} ({precision}{exact})".format(
                name=backend["name"],
                precision=backend["precision"],
                exact=", bit-exact" if backend["bit_exact"] else "",
            )
            for backend in backends
        )
        lines.append(f"matching backends   : {rendered}")
    router = info.get("router")
    if router:
        if router["workers"] > 0:
            lines.append(
                "gallery router      : "
                f"{router['workers']} worker process(es), "
                f"ring size {router['ring_size']} "
                f"({router['ring_replicas']} virtual nodes per worker)"
            )
        else:
            lines.append(
                "gallery router      : (single process; "
                "serve --router-workers N to scale out)"
            )
    cache = info["cache"]
    total = cache["total"]
    lines.append(
        "cache               : "
        f"{cache['memory_items']}/{cache['max_memory_items']} items in memory"
    )
    lines.append(f"disk cache tier     : {cache['cache_dir'] or '(memory only)'}")
    lines.append(
        "cache stats         : "
        f"hits={total['hits']} misses={total['misses']} puts={total['puts']} "
        f"evictions={total['evictions']} disk_hits={total['disk_hits']} "
        f"hit_rate={total['hit_rate']:.2f}"
    )
    for kind, stats in cache["by_kind"].items():
        lines.append(
            f"  - {kind:<17s}: hits={stats['hits']} misses={stats['misses']} "
            f"disk_hits={stats['disk_hits']} hit_rate={stats['hit_rate']:.2f}"
        )
    blas = info["blas"]
    lines.append(f"blas detection      : {blas['source']}")
    for pool in blas["pools"]:
        threads = pool["num_threads"] if pool["num_threads"] is not None else "?"
        lines.append(f"  - {pool['library']}: threads={threads}")
    env = ", ".join(
        f"{name}={value}" for name, value in blas["env"].items() if value is not None
    )
    lines.append(f"thread env          : {env or '(none set)'}")
    return "\n".join(lines)
