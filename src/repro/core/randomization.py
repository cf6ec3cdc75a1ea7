"""Randomized-vector machinery behind the IM-GRN probabilistic measure.

The paper defines the existence probability of an edge via *randomized
vectors* ``X^R``: uniformly random permutations of the entries of ``X``
(Section 3.1 notes the population has size ``l!``). This module provides

* :func:`lemma2_sample_size` -- the Monte-Carlo sample count of Lemma 2,
* :func:`sample_permutation_distances` -- vectorized sampling of
  ``dist(X_s, X_t^R)`` over random permutations,
* :func:`enumerate_permutation_distances` -- exact enumeration of all ``l!``
  permutations for small ``l`` (ground truth in tests),
* expected randomized distances ``E[dist(X^R, piv)]`` both as a Monte-Carlo
  estimate (:func:`expected_randomized_distance_mc`, what the paper
  pre-computes offline) and as the closed-form Jensen upper bound
  (:func:`expected_randomized_distance_jensen`), which keeps every pruning
  lemma sound with zero sampling.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import ValidationError
from .standardize import validate_same_length

__all__ = [
    "lemma2_sample_size",
    "default_rng",
    "content_seed",
    "sample_permutation_distances",
    "enumerate_permutation_distances",
    "expected_randomized_distance_mc",
    "expected_randomized_distance_jensen",
    "expected_squared_randomized_distance",
    "column_jensen_terms",
    "jensen_distance_matrix",
    "MAX_EXACT_LENGTH",
]

#: Largest vector length for which exact l! enumeration is permitted (8! = 40320).
MAX_EXACT_LENGTH = 8


def lemma2_sample_size(epsilon: float, delta: float) -> int:
    """Sample count ``S >= (3 / eps^2) * ln(2 / delta)`` of Lemma 2.

    With this many independent permutation samples, the estimated edge
    probability is an epsilon-approximation of the true probability with
    confidence at least ``1 - delta`` (Eq. 5).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must be in (0,1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0,1), got {delta}")
    return int(math.ceil(3.0 / (epsilon * epsilon) * math.log(2.0 / delta)))


def default_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed / Generator / None into a :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def content_seed(x: np.ndarray) -> int:
    """Deterministic 64-bit seed derived from a vector's float64 bytes.

    Used to key the permutation stream of the randomized vector ``X^R`` by
    the vector's *content*, so every code path (single-pair estimator,
    vectorized all-pairs matrix, baseline pre-computation) draws the same
    permutations for the same vector and therefore produces identical
    probability estimates.
    """
    import hashlib

    digest = hashlib.blake2b(
        np.ascontiguousarray(x, dtype=np.float64).tobytes(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def sample_permutation_distances(
    x: np.ndarray,
    y: np.ndarray,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Euclidean distances ``dist(x, perm(y))`` for random permutations.

    Draws ``n_samples`` uniformly random permutations of ``y`` and returns
    the vector of distances to ``x`` -- samples of the paper's random
    variable ``Z``.

    Notes
    -----
    Permutations are sampled with replacement from the ``l!`` population,
    exactly matching the Monte-Carlo estimator of Section 3.1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    validate_same_length(x, y)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    gen = default_rng(rng)
    permuted = gen.permuted(np.tile(y, (n_samples, 1)), axis=1)
    diffs = permuted - x[np.newaxis, :]
    return np.sqrt(np.einsum("ij,ij->i", diffs, diffs))


def enumerate_permutation_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distances ``dist(x, perm(y))`` over *all* ``l!`` permutations of ``y``.

    Ground-truth counterpart of :func:`sample_permutation_distances`, used
    by tests and by the exact mode of the probability estimator.

    Raises
    ------
    ValidationError
        If ``len(y) > MAX_EXACT_LENGTH`` (the enumeration would exceed
        ``8! = 40320`` permutations).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    length = validate_same_length(x, y)
    if length > MAX_EXACT_LENGTH:
        raise ValidationError(
            f"exact enumeration limited to length <= {MAX_EXACT_LENGTH}, "
            f"got {length}"
        )
    perms = np.array(list(itertools.permutations(y.tolist())), dtype=np.float64)
    diffs = perms - x[np.newaxis, :]
    return np.sqrt(np.einsum("ij,ij->i", diffs, diffs))


def expected_randomized_distance_mc(
    x: np.ndarray,
    pivot: np.ndarray,
    n_samples: int = 32,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Monte-Carlo estimate of ``E[dist(x^R, pivot)]``.

    This is the quantity the paper pre-computes offline for every
    (gene vector, pivot) pair to build the embedding coordinate ``y_s[w]``.
    """
    distances = sample_permutation_distances(pivot, x, n_samples, rng)
    return float(distances.mean())


def expected_squared_randomized_distance(x: np.ndarray, pivot: np.ndarray) -> float:
    """Closed form of ``E[dist(x^R, pivot)^2]`` under uniform permutations.

    For a uniformly random permutation ``x^R`` of ``x``::

        E[dist^2] = ||x||^2 + ||pivot||^2 - 2 * l * mean(x) * mean(pivot)

    because each coordinate of ``x^R`` has expectation ``mean(x)``.
    """
    x = np.asarray(x, dtype=np.float64)
    pivot = np.asarray(pivot, dtype=np.float64)
    length = validate_same_length(x, pivot)
    cross = 2.0 * length * float(x.mean()) * float(pivot.mean())
    value = float(x @ x) + float(pivot @ pivot) - cross
    # Guard against negative values from catastrophic cancellation.
    return max(0.0, value)


def column_jensen_terms(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column ``(means, squared norms)`` of an ``l x n`` matrix.

    These are the only per-vector terms of
    :func:`expected_squared_randomized_distance`, so a whole matrix's
    expected distances follow from them without a per-pair call. Both are
    bit-equal to what that function computes for one column ``x`` alone:
    the means reduce rows of the contiguous transpose, which numpy sums
    pairwise exactly like ``x.mean()``, and each squared norm is the same
    ``x @ x`` over the column view.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    means = np.ascontiguousarray(arr.T).mean(axis=1)
    sq_norms = np.array([float(arr[:, j] @ arr[:, j]) for j in range(arr.shape[1])])
    return means, sq_norms


def jensen_distance_matrix(matrix: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """:func:`expected_randomized_distance_jensen` for every column/pivot pair.

    Entry ``[s, r]`` is the bound for column ``s`` randomized against
    column ``pivots[r]`` of the same ``l x n`` matrix. One broadcast over
    :func:`column_jensen_terms`, in the scalar formula's operation order
    ``(||x||^2 + ||p||^2) - (2 l m_x) m_p``, so every entry is
    byte-identical to the per-pair call.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    means, sq_norms = column_jensen_terms(arr)
    cross = (2.0 * arr.shape[0] * means)[:, None] * means[None, pivots]
    value = (sq_norms[:, None] + sq_norms[None, pivots]) - cross
    return np.sqrt(np.maximum(value, 0.0))


def expected_randomized_distance_jensen(x: np.ndarray, pivot: np.ndarray) -> float:
    """Jensen upper bound ``sqrt(E[dist^2]) >= E[dist]`` in closed form.

    Using this bound wherever the pruning lemmas need ``E[dist(X^R, .)]``
    keeps them sound (an upper bound of the expectation only loosens the
    Markov bound, never tightens it below the true probability) and costs
    no sampling at all. For standardized vectors of length ``l`` the bound
    is simply ``sqrt(2*l)``.
    """
    return math.sqrt(expected_squared_randomized_distance(x, pivot))
