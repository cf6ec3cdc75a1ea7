"""Cost-model-based pivot selection (Section 4.3, Fig. 3).

Pivots are ``d`` of the matrix's own gene feature vectors. The paper's cost
model scores a pivot set ``PIV`` on matrix ``M_i`` by

    T_i = sum_s min_{r,w} { dist(X_s, piv_r) + dist(X_s, piv_w) }

-- smaller ``T_i`` means a larger expected pivot pruning region (Fig. 2) and
hence higher pruning power. Because ``r`` and ``w`` range independently, the
inner double-min equals ``2 * min_r dist(X_s, piv_r)``, making the model a
k-medoids-style objective; we exploit that identity for speed but keep
:func:`pivot_cost_literal` as the literal double-min for verification.

The selection algorithm is the paper's random-restart swap search: pick a
random pivot set, repeatedly swap a random pivot with a random non-pivot
when that lowers ``T_i``, and restart ``global_iter`` times to escape local
optima.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .randomization import default_rng
from .standardize import standardize_matrix

__all__ = [
    "pivot_cost",
    "pivot_cost_literal",
    "select_pivots",
    "select_pivots_random",
]


def _pairwise_distances_to(std: np.ndarray, pivot_indices: np.ndarray) -> np.ndarray:
    """Distances from every column of ``std`` to each pivot column.

    Returns an ``n x d`` array ``D[s, r] = dist(X_s, piv_r)``.
    """
    pivots = std[:, pivot_indices]  # l x d
    # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b ; columns are standardized so
    # each squared norm equals l, but keep the general form for safety.
    col_sq = np.sum(std * std, axis=0)
    piv_sq = col_sq[pivot_indices]
    cross = std.T @ pivots
    sq = col_sq[:, np.newaxis] + piv_sq[np.newaxis, :] - 2.0 * cross
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def pivot_cost(std: np.ndarray, pivot_indices: np.ndarray) -> float:
    """The cost ``T_i`` of a pivot set on a standardized ``l x n`` matrix.

    Uses the identity ``min_{r,w}(dist_r + dist_w) = 2 * min_r dist_r``.
    """
    distances = _pairwise_distances_to(std, np.asarray(pivot_indices, dtype=np.intp))
    return float(2.0 * np.sum(np.min(distances, axis=1)))


def pivot_cost_literal(std: np.ndarray, pivot_indices: np.ndarray) -> float:
    """Literal double-min form of ``T_i`` (verification counterpart)."""
    distances = _pairwise_distances_to(std, np.asarray(pivot_indices, dtype=np.intp))
    total = 0.0
    for row in distances:
        best = min(float(a) + float(b) for a in row for b in row)
        total += best
    return total


def select_pivots(
    matrix: np.ndarray,
    num_pivots: int,
    global_iter: int = 3,
    swap_iter: int = 20,
    rng: np.random.Generator | int | None = None,
) -> tuple[int, ...]:
    """Fig.-3 ``Pivot_Selection``: column indices of the chosen pivots.

    Parameters
    ----------
    matrix:
        Raw ``l x n`` gene feature matrix (columns are genes); standardized
        internally so the cost model sees the same geometry as the query
        pipeline.
    num_pivots:
        ``d``; must satisfy ``1 <= d <= n``.
    global_iter, swap_iter:
        Outer restarts and inner swap attempts (lines 2 and 5 of Fig. 3).
    rng:
        Random source for the restarts/swaps.

    Returns
    -------
    tuple[int, ...]
        Sorted column indices of the best pivot set found.
    """
    std = standardize_matrix(np.asarray(matrix, dtype=np.float64))
    n = std.shape[1]
    if not 1 <= num_pivots <= n:
        raise ValidationError(
            f"num_pivots must be in [1, {n}], got {num_pivots}"
        )
    if global_iter < 1 or swap_iter < 0:
        raise ValidationError("global_iter must be >= 1 and swap_iter >= 0")
    if num_pivots == n:
        return tuple(range(n))
    gen = default_rng(rng)
    # Every candidate set's distances are columns of one n x n matrix, so
    # each swap is scored by slicing it instead of recomputing the product.
    distances = _pairwise_distances_to(std, np.arange(n))

    def cost(pivots: np.ndarray) -> float:
        return float(2.0 * distances[:, pivots].min(axis=1).sum())

    global_cost = np.inf
    best: np.ndarray | None = None
    for _restart in range(global_iter):
        pivots = gen.choice(n, size=num_pivots, replace=False)
        local_cost = cost(pivots)
        non_pivots = np.setdiff1d(np.arange(n), pivots)
        for _swap in range(swap_iter):
            r = int(gen.integers(num_pivots))
            j = int(gen.integers(non_pivots.shape[0]))
            candidate = pivots.copy()
            swapped_out = candidate[r]
            candidate[r] = non_pivots[j]
            candidate_cost = cost(candidate)
            if candidate_cost < local_cost:
                local_cost = candidate_cost
                pivots = candidate
                non_pivots[j] = swapped_out
        if local_cost < global_cost:
            global_cost = local_cost
            best = pivots
    assert best is not None
    return tuple(sorted(int(i) for i in best))


def select_pivots_random(
    matrix: np.ndarray,
    num_pivots: int,
    rng: np.random.Generator | int | None = None,
) -> tuple[int, ...]:
    """Random pivot choice -- the ablation baseline for the cost model."""
    arr = np.asarray(matrix, dtype=np.float64)
    n = arr.shape[1]
    if not 1 <= num_pivots <= n:
        raise ValidationError(
            f"num_pivots must be in [1, {n}], got {num_pivots}"
        )
    gen = default_rng(rng)
    chosen = gen.choice(n, size=num_pivots, replace=False)
    return tuple(sorted(int(i) for i in chosen))
