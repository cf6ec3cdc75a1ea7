"""Build parity: the one-pass pivot search and the vectorized embedding.

``select_pivots`` scores every candidate set by slicing one ``n x n``
distance matrix, and ``embed_matrix`` computes the Jensen ``y``
coordinates in one broadcast over per-column terms. The contract under
test: both are byte-identical to the reference loops they replace -- a
search that calls the public :func:`pivot_cost` per candidate, and one
:func:`expected_randomized_distance_jensen` call per (gene, pivot) pair
-- so a full engine build yields the same index fingerprint either way.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import EngineConfig, SyntheticConfig
from repro.core.embedding import EmbeddedMatrix, embed_matrix
from repro.core.pivots import _pairwise_distances_to, pivot_cost, select_pivots
from repro.core.randomization import (
    column_jensen_terms,
    default_rng,
    expected_randomized_distance_jensen,
    jensen_distance_matrix,
)
from repro.core.refine import SourceColumns
from repro.core.standardize import standardize_matrix
from repro.data.synthetic import generate_database

#: The two benchmark database shapes (gene and sample ranges, gene pool),
#: at a handful of matrices each.
SHAPES = {
    "sparse": dict(genes_range=(50, 100), samples_range=(12, 24), gene_pool=600),
    "dense": dict(genes_range=(24, 28), samples_range=(36, 48), gene_pool=32),
}


def _database(shape: str, seed: int = 29, count: int = 6):
    return generate_database(SyntheticConfig(seed=seed, **SHAPES[shape]), count)


def reference_select_pivots(
    matrix: np.ndarray,
    num_pivots: int,
    global_iter: int = 3,
    swap_iter: int = 20,
    rng=None,
) -> tuple[int, ...]:
    """Fig. 3's swap search, scoring each candidate with ``pivot_cost``."""
    std = standardize_matrix(np.asarray(matrix, dtype=np.float64))
    n = std.shape[1]
    if num_pivots == n:
        return tuple(range(n))
    gen = default_rng(rng)
    global_cost = np.inf
    best = None
    for _restart in range(global_iter):
        pivots = gen.choice(n, size=num_pivots, replace=False)
        local_cost = pivot_cost(std, pivots)
        non_pivots = np.setdiff1d(np.arange(n), pivots)
        for _swap in range(swap_iter):
            r = int(gen.integers(num_pivots))
            j = int(gen.integers(non_pivots.shape[0]))
            candidate = pivots.copy()
            swapped_out = candidate[r]
            candidate[r] = non_pivots[j]
            candidate_cost = pivot_cost(std, candidate)
            if candidate_cost < local_cost:
                local_cost = candidate_cost
                pivots = candidate
                non_pivots[j] = swapped_out
        if local_cost < global_cost:
            global_cost = local_cost
            best = pivots
    return tuple(sorted(int(i) for i in best))


def reference_jensen_y(std: np.ndarray, pivots) -> np.ndarray:
    """One ``expected_randomized_distance_jensen`` call per (gene, pivot)."""
    y = np.empty((std.shape[1], len(pivots)), dtype=np.float64)
    for s in range(std.shape[1]):
        for r, p in enumerate(pivots):
            y[s, r] = expected_randomized_distance_jensen(std[:, s], std[:, p])
    return y


def reference_embed_matrix(
    matrix,
    gene_ids,
    source_id,
    num_pivots,
    expectation_mode="jensen",
    expectation_samples=32,
    pivot_strategy="cost_model",
    pivot_global_iter=3,
    pivot_swap_iter=20,
    rng=None,
    tracer=None,
) -> EmbeddedMatrix:
    """``embed_matrix`` with both reference loops in place."""
    assert expectation_mode == "jensen" and pivot_strategy == "cost_model"
    arr = np.asarray(matrix, dtype=np.float64)
    pivots = reference_select_pivots(
        arr, num_pivots, pivot_global_iter, pivot_swap_iter, default_rng(rng)
    )
    std = standardize_matrix(arr)
    x = _pairwise_distances_to(std, np.asarray(pivots, dtype=np.intp))
    return EmbeddedMatrix(
        source_id=int(source_id),
        gene_ids=tuple(int(g) for g in gene_ids),
        pivot_indices=pivots,
        x=x,
        y=reference_jensen_y(std, pivots),
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestPivotSearch:
    def test_same_sets_as_reference_search(self, shape):
        for matrix in _database(shape):
            for d in (1, 2, 4):
                seed = (matrix.source_id, d)
                assert select_pivots(
                    matrix.values, d, rng=np.random.default_rng(seed)
                ) == reference_select_pivots(
                    matrix.values, d, rng=np.random.default_rng(seed)
                )

    def test_same_sets_with_long_searches(self, shape):
        matrix = _database(shape).get(0)
        for global_iter, swap_iter in ((1, 0), (5, 60)):
            kwargs = dict(global_iter=global_iter, swap_iter=swap_iter)
            assert select_pivots(
                matrix.values, 3, rng=7, **kwargs
            ) == reference_select_pivots(matrix.values, 3, rng=7, **kwargs)


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestJensenCoordinates:
    def test_y_bytes_equal_per_pair_loop(self, shape):
        for matrix in _database(shape):
            emb = embed_matrix(
                matrix.values,
                matrix.gene_ids,
                matrix.source_id,
                num_pivots=4,
                expectation_mode="jensen",
                rng=3,
            )
            std = standardize_matrix(matrix.values)
            reference = reference_jensen_y(std, emb.pivot_indices)
            assert emb.y.tobytes() == reference.tobytes()

    def test_distance_matrix_bytes_equal_on_raw_columns(self, shape):
        # Raw columns have non-zero means, so the cross term matters and
        # any change to the operation order shows in the bytes.
        for matrix in _database(shape):
            raw = matrix.values + 3.0
            pivots = np.array([0, raw.shape[1] // 2, raw.shape[1] - 1])
            assert (
                jensen_distance_matrix(raw, pivots).tobytes()
                == reference_jensen_y(raw, pivots).tobytes()
            )

    def test_column_terms_bit_equal_scalar_terms(self, shape):
        matrix = _database(shape).get(1)
        std = standardize_matrix(matrix.values)
        means, sq_norms = column_jensen_terms(std)
        for j in range(std.shape[1]):
            column = std[:, j]
            assert means[j] == float(column.mean())
            assert sq_norms[j] == float(column @ column)

    def test_store_expected_distance_bit_equal_scalar(self, shape):
        matrix = _database(shape).get(2)
        columns = SourceColumns(matrix)
        std = columns.std
        n = std.shape[1]
        for t, s in [(0, 1), (1, 0), (n - 1, 0), (3, 3), (n // 2, n - 2)]:
            assert columns.expected_distance(
                t, s
            ) == expected_randomized_distance_jensen(std[:, t], std[:, s])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_engine_fingerprint_equals_reference_build(shape, monkeypatch):
    database = _database(shape, count=8)
    config = EngineConfig(seed=5)
    built = repro.IMGRNEngine(database, config)
    built.build()
    monkeypatch.setattr(
        "repro.core.parallel_build.embed_matrix", reference_embed_matrix
    )
    reference = repro.IMGRNEngine(database, config)
    reference.build()
    assert built.array_index.fingerprint() == reference.array_index.fingerprint()
    for sid, entry in built._entries.items():
        other = reference._entries[sid].embedded
        assert entry.embedded.pivot_indices == other.pivot_indices
        assert entry.embedded.y.tobytes() == other.y.tobytes()
