"""Leverage scores and the Principal Features Subspace method.

Leverage scores measure how much each row of a matrix contributes to its
column space (paper Equation 3/5).  The Principal Features Subspace (PFS)
method sorts rows by leverage score and keeps the top ``t`` deterministically
(Ravindra et al. 2018; Cohen et al. 2015 give guarantees for deterministic
selection).  In the attack, rows are connectome features (region-pair
correlations) and columns are subjects, so the retained rows are exactly the
"brain signature" locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.linalg.svd import economy_svd, randomized_svd
from repro.utils.rng import RandomStateLike
from repro.utils.validation import check_matrix, check_positive_int


def leverage_scores(matrix: np.ndarray) -> np.ndarray:
    """Row leverage scores ``l_i = ||U_{i,:}||^2`` of ``matrix``.

    ``U`` is an orthonormal basis of the column space obtained from the
    economy SVD.  Scores sum to the rank of the matrix.
    """
    a = check_matrix(matrix, name="matrix")
    u, s, _ = economy_svd(a)
    positive = s > s.max() * 1e-12 if s.size else np.zeros(0, dtype=bool)
    u = u[:, positive]
    return np.sum(u * u, axis=1)


def rank_k_leverage_scores(
    matrix: np.ndarray,
    rank: int,
    method: str = "exact",
    random_state: RandomStateLike = None,
) -> np.ndarray:
    """Rank-``k`` leverage scores (restricting ``U`` to the top ``k`` singular vectors).

    Parameters
    ----------
    matrix:
        ``(m, n)`` matrix with ``m`` features and ``n`` subjects.
    rank:
        Number of leading singular vectors to use.
    method:
        ``"exact"`` for a full economy SVD or ``"randomized"`` for the
        randomized SVD (useful at paper scale).
    random_state:
        Only used when ``method="randomized"``.
    """
    a = check_matrix(matrix, name="matrix")
    rank = check_positive_int(rank, name="rank")
    max_rank = min(a.shape)
    if rank > max_rank:
        raise ValidationError(f"rank must be <= {max_rank}, got {rank}")
    if method == "exact":
        u, _, _ = economy_svd(a)
        u = u[:, :rank]
    elif method == "randomized":
        u, _, _ = randomized_svd(a, rank=rank, random_state=random_state)
    else:
        raise ValidationError("method must be 'exact' or 'randomized'")
    return np.sum(u * u, axis=1)


def leverage_score_distribution(matrix: np.ndarray, rank: Optional[int] = None) -> np.ndarray:
    """Leverage scores normalized into a probability distribution over rows."""
    if rank is None:
        scores = leverage_scores(matrix)
    else:
        scores = rank_k_leverage_scores(matrix, rank=rank)
    total = scores.sum()
    if total <= 0:
        raise ValidationError("matrix has zero leverage mass (all-zero matrix?)")
    return scores / total


def principal_features(
    matrix: np.ndarray,
    n_features: int,
    rank: Optional[int] = None,
    method: str = "exact",
    random_state: RandomStateLike = None,
) -> np.ndarray:
    """Indices of the ``n_features`` rows with the highest leverage scores.

    This is the deterministic top-``t`` selection the paper calls the
    Principal Features Subspace method.  Indices are returned sorted by
    descending leverage score so the most discriminative feature comes first.
    """
    a = check_matrix(matrix, name="matrix")
    n_features = check_positive_int(n_features, name="n_features")
    if n_features > a.shape[0]:
        raise ValidationError(
            f"n_features must be <= number of rows ({a.shape[0]}), got {n_features}"
        )
    if rank is None:
        scores = leverage_scores(a)
    else:
        scores = rank_k_leverage_scores(a, rank=rank, method=method, random_state=random_state)
    order = np.argsort(scores)[::-1]
    return order[:n_features]


@dataclass
class PrincipalFeaturesSubspace:
    """Deterministic leverage-score feature selector (paper Section 3.1.2).

    The selector is fitted on the de-anonymized group matrix and then applied
    to any other group matrix with the same feature space; both the attack
    and the defense modules reuse it.

    Parameters
    ----------
    n_features:
        Number of features (rows) to retain.
    rank:
        Rank used when computing leverage scores; ``None`` uses the full
        column space (appropriate when ``n_subjects`` is small).
    method:
        ``"exact"`` or ``"randomized"`` SVD backend.
    random_state:
        Seed for the randomized backend.

    Attributes
    ----------
    scores_:
        Leverage score of every feature (set after :meth:`fit`).
    selected_indices_:
        Indices of the retained features, most important first.
    scores_bound_:
        Bound on ``|scores_ - SVD scores|`` when the scores came from the
        certified Gram route (:class:`IncrementalLeverage`) rather than the
        SVD; ``None`` when no such bound was recorded, as after :meth:`fit`.
    """

    n_features: int
    rank: Optional[int] = None
    method: str = "exact"
    random_state: RandomStateLike = None
    scores_: Optional[np.ndarray] = field(default=None, repr=False)
    selected_indices_: Optional[np.ndarray] = field(default=None, repr=False)
    scores_bound_: Optional[float] = field(default=None, repr=False)

    def fit(self, matrix: np.ndarray) -> "PrincipalFeaturesSubspace":
        """Compute leverage scores of ``matrix`` and choose the top features."""
        a = check_matrix(matrix, name="matrix")
        n_features = check_positive_int(self.n_features, name="n_features")
        if n_features > a.shape[0]:
            raise ValidationError(
                f"n_features ({n_features}) exceeds feature count ({a.shape[0]})"
            )
        if self.rank is None:
            self.scores_ = leverage_scores(a)
        else:
            self.scores_ = rank_k_leverage_scores(
                a, rank=self.rank, method=self.method, random_state=self.random_state
            )
        order = np.argsort(self.scores_)[::-1]
        self.selected_indices_ = order[:n_features]
        return self

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Restrict ``matrix`` to the selected feature rows."""
        self._check_fitted()
        a = check_matrix(matrix, name="matrix")
        if a.shape[0] <= int(self.selected_indices_.max()):
            raise ValidationError(
                "matrix has fewer rows than the fitted feature space "
                f"({a.shape[0]} <= {int(self.selected_indices_.max())})"
            )
        return a[self.selected_indices_, :]

    def fit_transform(self, matrix: np.ndarray) -> np.ndarray:
        """Fit on ``matrix`` and return the reduced matrix."""
        return self.fit(matrix).transform(matrix)

    def _check_fitted(self) -> None:
        if self.selected_indices_ is None or self.scores_ is None:
            raise NotFittedError(
                "PrincipalFeaturesSubspace must be fitted before calling transform"
            )

    @property
    def selected_scores_(self) -> np.ndarray:
        """Leverage scores of the retained features (descending)."""
        self._check_fitted()
        return self.scores_[self.selected_indices_]


#: Beyond this condition number ``fl(AᵀA)`` is no longer safely positive
#: definite, so a Cholesky factorization that succeeds does so by luck
#: (Yamamoto et al. 2015), and the SVD's rank filter (singular values below
#: ``1e-12·σ_max`` count as zero) comes within reach: the Gram route gives
#: up and the SVD decides.
MAX_BASIS_CONDITION = float(np.finfo(np.float64).eps) ** -0.5
#: A column whose residual against the basis is at most this share of its
#: norm counts as dependent: the SVD's rank filter decides what happens then.
DEPENDENT_RESIDUAL = 1e-8
#: Scores from this update and from the SVD may each be off by the bound, so
#: two scores keep their order in both when they are more than 4 bounds apart.
CERTIFICATE_MARGIN = 4.0
_EPS = float(np.finfo(np.float64).eps)


def _gamma(k: int) -> float:
    """Relative rounding bound of a length-``k`` dot product."""
    return k * _EPS / (1.0 - k * _EPS)


@dataclass(frozen=True, eq=False)
class IncrementalLeverage:
    """Full-column-space leverage scores kept current as columns are appended.

    For ``rank=None`` the leverage scores are the diagonal of the projector
    onto the column space, so appending a column adds the squares of its
    orthonormalized residual (Brand 2006, "Fast low-rank modifications of the
    thin singular value decomposition").  ``bound`` is a first-order bound on
    ``max|scores - exact scores|``: measured by :meth:`fit`, then grown by
    every appended column.  Instances are never mutated: :meth:`append`
    returns a new one.

    Attributes
    ----------
    basis:
        ``(n_rows, n_columns)`` orthonormal basis of the column space.
    scores:
        Squared row norms of ``basis``.
    bound:
        The score-error bound.
    """

    basis: np.ndarray
    scores: np.ndarray
    bound: float

    @classmethod
    def fit(cls, matrix: np.ndarray) -> Optional["IncrementalLeverage"]:
        """Orthonormalize the columns of ``matrix`` in one Cholesky pass, with a measured bound.

        A pass is a Gram product, a Cholesky factorization ``L Lᵀ`` and a
        product with ``L⁻ᵀ``; one more Gram product then measures the loss
        of orthogonality.  A second pass runs only when that loss exceeds
        the rounding of its own measurement, i.e. when another pass can
        still shrink the bound (CholeskyQR2, Fukaya et al. 2014).  Returns
        ``None`` for a failed factorization, a non-finite value, ``δ ≥ ½`` or
        a condition number that may exceed :data:`MAX_BASIS_CONDITION`.

        The bound uses measured quantities only.  Let ``Q`` be the computed
        basis (rows ``qᵢ``), ``X`` the product of the inverse factors used,
        and ``γₖ = k·eps/(1 − k·eps)``.  ``A X`` spans the column space of
        ``A`` exactly, so the exact leverage score ``ℓᵢ`` is the diagonal
        of the projector ``P̃`` onto the span of ``A X``.  Three terms bound
        ``|sᵢ − ℓᵢ|`` for the returned ``sᵢ = fl(‖qᵢ‖²)``:

        1. *Orthogonality.*  ``δ`` is the measured ``‖fl(QᵀQ) − I‖_F`` plus
           the Gram product's own rounding ``γ_F·‖Q‖_F²``, so
           ``‖QᵀQ − I‖₂ ≤ δ``.  The projector ``P`` onto the span of ``Q``
           has diagonal ``qᵢᵀ(QᵀQ)⁻¹qᵢ`` and ``‖(QᵀQ)⁻¹ − I‖₂ ≤ δ/(1−δ)``,
           so ``|Pᵢᵢ − ‖qᵢ‖²| ≤ ‖qᵢ‖²·δ/(1−δ)``.
        2. *Products.*  ``Q = A X + E``.  ``|fl(BY) − BY| ≤ γₙ|B||Y|``, so
           each pass ``Q ← fl(B Y)`` adds ``γₙ‖B‖_F‖Y‖_F`` to the bound
           ``e ≥ ‖E‖_F`` and scales the earlier ``e`` by ``‖Y‖_F``.  Both
           projectors have rank ``n``, since ``σ_min(A X) ≥ σ_min(Q) − e
           ≥ √(1−δ) − e > 0`` (checked below), so
           ``‖P − P̃‖₂ = ‖(I − P̃)P‖₂ = ‖(I − P̃)E Q⁺‖₂ ≤ e/√(1−δ)``, which
           bounds ``|Pᵢᵢ − ℓᵢ|``.
        3. *Row sums.*  ``|sᵢ − ‖qᵢ‖²| ≤ γₙ‖qᵢ‖²``.

        With ``s = max sᵢ/(1 − γₙ) ≥ max ‖qᵢ‖²`` the bound is
        ``s·δ/(1−δ) + e/√(1−δ) + γₙ·s``.  Products of two rounding errors
        and the rounding of the norms themselves (relative ``O(F·eps)``)
        are left out, as in any first-order analysis.  The Cholesky
        factor's own accuracy never enters: only ``Q`` and ``X`` do.

        The condition number is bounded from the same quantities, with no
        eigenvalue solve: ``σ_min(A)·‖X‖_F ≥ σ_min(A X) ≥ √(1−δ) − e``, so
        ``κ₂(A) ≤ ‖A‖_F‖X‖_F/(√(1−δ) − e)`` when the denominator is
        positive.  A rank-deficient matrix (a wide one included) never
        passes the check.
        """
        a = check_matrix(matrix, name="matrix")
        n_rows, n_columns = a.shape
        gamma_n = _gamma(n_columns)
        basis, gram, error, scale = a, a.T @ a, 0.0, 1.0
        norm_a = np.sqrt(np.trace(gram))
        for _ in range(2):
            try:
                # An explicit inverse keeps every BLAS call in numpy's
                # OpenBLAS: scipy links a second one, and alternating their
                # thread pools is slower.
                inverse = np.linalg.inv(np.linalg.cholesky(gram)).T
            except np.linalg.LinAlgError:
                return None
            norm = np.linalg.norm(inverse)
            error = (error + gamma_n * np.sqrt(np.trace(gram))) * norm
            scale *= norm
            basis = basis @ inverse
            gram = basis.T @ basis
            rounding = _gamma(n_rows) * float(np.trace(gram))
            loss = float(np.linalg.norm(gram - np.eye(n_columns)))
            if not loss > rounding:
                break
        delta = loss + rounding
        if not (
            delta < 0.5
            and norm_a * scale < MAX_BASIS_CONDITION * (np.sqrt(1.0 - delta) - error)
        ):
            return None
        scores = np.einsum("ij,ij->i", basis, basis)
        top = float(scores.max()) / (1.0 - gamma_n)
        bound = top * (delta / (1.0 - delta) + gamma_n) + error / np.sqrt(1.0 - delta)
        return cls(basis=basis, scores=scores, bound=float(bound))

    def append(self, columns: np.ndarray) -> Optional["IncrementalLeverage"]:
        """The state after appending ``columns``; ``None`` if one is dependent.

        Each column is orthogonalized against the basis twice (one
        reorthogonalization pass).  The bound grows by the measured loss of
        orthogonality of the new direction and by the rounding error of the
        residual relative to its length, which is large when the column
        nearly lies in the basis's span.
        """
        columns = np.asarray(columns, dtype=np.float64)
        n_rows, width = self.basis.shape
        basis = np.empty((n_rows, width + columns.shape[1]), order="F")
        basis[:, :width] = self.basis
        scores, bound = self.scores, self.bound
        for offset, column in enumerate(columns.T):
            m = width + offset
            previous = basis[:, :m]
            residual = column - previous @ (previous.T @ column)
            residual -= previous @ (previous.T @ residual)
            length, size = float(np.linalg.norm(residual)), float(np.linalg.norm(column))
            if not length > DEPENDENT_RESIDUAL * size:
                return None
            q = residual / length
            loss = float(np.abs(previous.T @ q).max(initial=0.0))
            bound += m * loss + _EPS * (n_rows + m) * size / length
            scores = scores + q * q
            basis[:, m] = q
        return IncrementalLeverage(basis=basis, scores=scores, bound=bound)

    def certified_order(self, n_features: int) -> Optional[np.ndarray]:
        """The top ``n_features`` rows by score, or ``None`` if the order is uncertain.

        The order is certified when every consecutive gap among the top
        ``n_features + 1`` scores exceeds :data:`CERTIFICATE_MARGIN` bounds;
        the exact SVD's ``argsort`` selection is then this one, in the same
        order.  Exact ties are never certified.
        """
        order = np.argsort(self.scores)[::-1]
        top = self.scores[order[: n_features + 1]]
        if not np.all(top[:-1] - top[1:] > CERTIFICATE_MARGIN * self.bound):
            return None
        return order[:n_features]
