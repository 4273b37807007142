"""Sharded correlation matching against a reference gallery.

A production-scale gallery holds thousands of enrolled subjects; matching a
probe batch against all of them at once means one huge correlation matrix and
one huge GEMM.  :func:`match_against_gallery` splits the gallery into column
blocks (shards), computes each shard's similarity block independently —
inline, or as ``match_shard`` specs through an
:class:`~repro.runtime.runner.ExperimentRunner` pool — and merges the blocks
into one :class:`~repro.attack.matching.MatchResult`.

Exact equivalence is a hard requirement: the merged argmax/margins must be
*bit-for-bit* identical to the single-block path.  Two properties deliver it:

* Column normalization is computed **once** on the full matrices before
  sharding.  (NumPy reductions over single-column blocks collapse to a
  contiguous pairwise-summation path whose rounding differs from the
  multi-column row-sweep, so per-block normalization would not be
  shard-invariant — and neither is a BLAS GEMM, whose one-column edge shards
  take a GEMV kernel with a different accumulation order.)
* The shard similarity is a fixed-order ``einsum`` contraction whose
  per-element accumulation depends only on the feature dimension, so the
  block width cannot change a single bit of any output element.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attack.matching import MatchResult, prepare_match_inputs
from repro.exceptions import AttackError, ConfigurationError, ValidationError
from repro.runtime.backend import MatchingBackend, get_backend
from repro.utils.validation import check_matrix

#: What a matching call may name as its backend: a registry name or instance.
BackendLike = Optional[Union[str, MatchingBackend]]

#: Norm threshold below which a column counts as constant (mirrors
#: :func:`repro.utils.stats.pairwise_pearson`).
_DEGENERATE_NORM = 1e-15


def normalize_columns(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Center and unit-normalize each column; flag degenerate (constant) ones.

    Mirrors the column handling of
    :func:`repro.utils.stats.pairwise_pearson`: constant columns are flagged
    so their similarities can be zeroed after the contraction.
    """
    a = check_matrix(matrix, name="matrix")
    centered = a - a.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(centered, axis=0)
    degenerate = norms < _DEGENERATE_NORM
    safe = np.where(degenerate, 1.0, norms)
    return centered / safe, degenerate


def similarity_kernel(
    reference_normalized: np.ndarray,
    probe_normalized: np.ndarray,
    reference_degenerate: Optional[np.ndarray] = None,
    probe_degenerate: Optional[np.ndarray] = None,
    backend: BackendLike = None,
) -> np.ndarray:
    """Correlation block of pre-normalized columns, through a matching backend.

    With the default backend (``numpy64``, the fixed-order einsum
    contraction) the similarity of gallery column ``j`` with probe column
    ``k`` is bit-identical whether the reference block holds one column or
    the whole gallery.  This is a deliberate trade: the kernel gives up peak
    multithreaded GEMM throughput to buy shard invariance (BLAS row-blocking
    is not bitwise stable), and since matching runs in the leverage-reduced
    space (~100 features) the contraction is a negligible slice of any
    identify call.  Other backends (``numpy32`` mixed precision,
    ``blas_blocked`` GEMM — see :mod:`repro.runtime.backend`) trade that
    bit-identity for throughput and are strictly opt-in.
    """
    return get_backend(backend).similarity(
        reference_normalized,
        probe_normalized,
        reference_degenerate,
        probe_degenerate,
    )


def shard_similarity(reference_block: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """One-shot correlation of a gallery block against a probe batch.

    Normalizes both inputs and applies :func:`similarity_kernel`.  Note that
    the normalization here is *not* shard-invariant (single-column reductions
    round differently) — :func:`match_against_gallery` therefore normalizes
    the full matrices once and ships pre-normalized blocks to the shards.
    """
    ref = check_matrix(reference_block, name="reference_block")
    prb = check_matrix(probe, name="probe")
    if ref.shape[0] != prb.shape[0]:
        raise AttackError(
            "reference and probe must share the feature space, "
            f"got {ref.shape[0]} and {prb.shape[0]} features"
        )
    ref_normalized, ref_degenerate = normalize_columns(ref)
    probe_normalized, probe_degenerate = normalize_columns(prb)
    return similarity_kernel(
        ref_normalized, probe_normalized, ref_degenerate, probe_degenerate
    )


def shard_slices(n_columns: int, shard_size: Optional[int]) -> List[Tuple[int, int]]:
    """``[start, stop)`` column ranges covering ``n_columns`` in order.

    ``shard_size=None`` (or any size >= ``n_columns``) yields one block.
    """
    if n_columns < 1:
        raise ValidationError(f"n_columns must be >= 1, got {n_columns}")
    if shard_size is None:
        return [(0, n_columns)]
    shard_size = int(shard_size)
    if shard_size < 1:
        raise ValidationError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (start, min(start + shard_size, n_columns))
        for start in range(0, n_columns, shard_size)
    ]


def match_against_gallery(
    reference: np.ndarray,
    probe: np.ndarray,
    reference_subject_ids: Optional[Sequence[str]] = None,
    target_subject_ids: Optional[Sequence[str]] = None,
    shard_size: Optional[int] = None,
    runner=None,
    backend: BackendLike = None,
) -> MatchResult:
    """Match probe columns against gallery columns, shard by shard.

    Parameters
    ----------
    reference:
        ``(n_features, n_gallery)`` reduced gallery signatures.
    probe:
        ``(n_features, n_probe)`` reduced probe matrix (same feature space).
    reference_subject_ids / target_subject_ids:
        Optional identities; default to positional labels.
    shard_size:
        Gallery columns per block; ``None`` matches in a single block.
    runner:
        Optional :class:`~repro.runtime.runner.ExperimentRunner`; when given
        (and more than one shard exists) each block is computed as a
        ``match_shard`` spec through the runner's pool.  The merged result is
        bit-identical to the inline path.  A shared-memory-transport runner
        freezes the (internally normalized) inputs it publishes; the caller's
        ``reference``/``probe`` arrays themselves are never frozen here.
    backend:
        Matching-backend name or instance (``None`` = the bit-exact
        ``numpy64`` default; see :mod:`repro.runtime.backend`).
    """
    ref, prb, reference_subject_ids, target_subject_ids = prepare_match_inputs(
        reference, probe, reference_subject_ids, target_subject_ids
    )
    ref_normalized, ref_degenerate = normalize_columns(ref)
    probe_normalized, probe_degenerate = normalize_columns(prb)
    similarity = match_normalized(
        ref_normalized,
        probe_normalized,
        ref_degenerate,
        probe_degenerate,
        shard_size=shard_size,
        runner=runner,
        backend=backend,
    )
    predictions = np.argmax(similarity, axis=0)
    return MatchResult(
        similarity=similarity,
        predicted_reference_index=predictions,
        reference_subject_ids=list(reference_subject_ids),
        target_subject_ids=list(target_subject_ids),
    )


def match_normalized(
    reference_normalized: np.ndarray,
    probe_normalized: np.ndarray,
    reference_degenerate: np.ndarray,
    probe_degenerate: np.ndarray,
    shard_size: Optional[int] = None,
    runner=None,
    backend: BackendLike = None,
) -> np.ndarray:
    """Sharded similarity of pre-normalized columns (the shard-invariant core).

    This is the seam shared by :func:`match_against_gallery` and the serving
    layer's micro-batched identification
    (:class:`repro.service.IdentificationService` stacks the pre-normalized
    probes of many concurrent requests and runs them through one call):
    because the inputs are already normalized and the default backend is the
    fixed-order contraction, the output is bit-for-bit identical however the
    probe columns are batched or the gallery columns are sharded.  Non-
    default backends keep the sharding/batching semantics but trade the
    bit-identity guarantee for throughput (see
    :mod:`repro.runtime.backend`).

    .. note::
       A ``runner`` using the shared-memory transport content-keys its
       segments by freezing the input arrays
       (:func:`~repro.runtime.cache.frozen_array_digest` marks owning
       arrays ``writeable=False``), exactly like the artifact cache does.
       Callers that want to keep writing into the same buffers should pass
       copies — an in-place write after the call raises instead of
       silently corrupting a content key.
    """
    resolved = get_backend(backend)
    slices = shard_slices(reference_normalized.shape[1], shard_size)
    if runner is not None and len(slices) > 1:
        blocks = _pooled_shard_blocks(
            reference_normalized,
            probe_normalized,
            reference_degenerate,
            probe_degenerate,
            slices,
            runner,
            resolved,
        )
    else:
        blocks = [
            resolved.similarity(
                reference_normalized[:, start:stop],
                probe_normalized,
                reference_degenerate[start:stop],
                probe_degenerate,
            )
            for start, stop in slices
        ]
    return blocks[0] if len(blocks) == 1 else np.vstack(blocks)


def _pooled_shard_blocks(
    ref_normalized: np.ndarray,
    probe_normalized: np.ndarray,
    ref_degenerate: np.ndarray,
    probe_degenerate: np.ndarray,
    slices: Sequence[Tuple[int, int]],
    runner,
    backend: MatchingBackend,
) -> List[np.ndarray]:
    """Compute shard similarity blocks through an ExperimentRunner pool.

    The specs carry pre-normalized inputs plus the degenerate masks, so the
    worker applies only the backend contraction (for the default backend:
    the one operation proven shard-invariant, keeping the pooled result
    bit-identical to the inline path).  How the inputs travel depends on
    the runner:

    * **shared** — process pools with zero-copy transport publish the full
      normalized reference and probe once into runner-owned shared-memory
      segments (content-keyed, so repeated identifies reuse them); each spec
      carries only a descriptor plus its ``columns`` slice, and workers
      attach instead of unpickling.
    * **pickle** — process pools without shared memory fall back to shipping
      a contiguous copy of each reference block (the pre-zero-copy path).
    * **view** — thread pools share the address space, so specs carry plain
      views of the full matrices and the worker slices its columns.
    """
    from contextlib import nullcontext

    from repro.runtime.runner import ExperimentSpec

    executor = getattr(runner, "executor", "thread")
    shared = bool(getattr(runner, "supports_shared_transport", False))
    if executor == "process":
        # Workers resolve the backend from their own (module-level) registry,
        # so an instance that is not registered under its name would fail
        # inside every worker with a cryptic shard error — reject it here.
        backend_param: Any = backend.name
        registered = None
        try:
            registered = get_backend(backend.name)
        except Exception:  # noqa: BLE001 - unknown name, reported below
            pass
        if registered is not backend and type(registered) is not type(backend):
            raise ConfigurationError(
                f"matching backend {backend.name!r} is not registered under "
                "that name; process-pool workers resolve backends by name — "
                "call repro.runtime.backend.register_backend() first"
            )
    else:
        # Threads share the process: ship the instance itself, registered
        # or not.
        backend_param = backend

    if shared:
        # Publish-and-pin in one lease: segments are pinned from birth, so
        # concurrent callers' publishes can never LRU-evict them while this
        # batch's descriptors are in flight to the workers.
        transport_guard = runner.lease_arrays([ref_normalized, probe_normalized])
    else:
        transport_guard = nullcontext((ref_normalized, probe_normalized))

    with transport_guard as (reference_param, probe_param):
        specs = []
        for index, (start, stop) in enumerate(slices):
            params: Dict[str, Any] = {"probe": probe_param, "backend": backend_param}
            if shared or executor != "process":
                params["reference"] = reference_param
                params["reference_degenerate"] = ref_degenerate
                params["columns"] = (int(start), int(stop))
                params["probe_degenerate"] = probe_degenerate
            else:
                # Pickle transport: copy the slice so a contiguous block
                # crosses the process boundary without dragging the full
                # gallery.
                params["reference"] = np.ascontiguousarray(ref_normalized[:, start:stop])
                params["reference_degenerate"] = np.ascontiguousarray(
                    ref_degenerate[start:stop]
                )
                params["probe_degenerate"] = probe_degenerate
            specs.append(
                ExperimentSpec(
                    name=f"match-shard-{start:08d}-{stop:08d}",
                    kind="match_shard",
                    seed=index,
                    params=params,
                )
            )
        results = runner.run(specs)
    blocks: List[np.ndarray] = []
    for result in results:
        if not result.ok:
            raise AttackError(f"shard {result.name} failed: {result.error}")
        blocks.append(np.asarray(result.output))
    return blocks
