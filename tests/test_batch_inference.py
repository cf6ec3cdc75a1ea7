"""Tests for the batched/cached/parallel edge-probability engine.

The contract under test: every execution strategy -- scalar per-pair,
batched matrix, pair blocks, cached, multi-process -- returns *identical*
probabilities for the same data and estimator parameters. That is what
makes batching safe to wire through every engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import InferenceConfig
from repro.core.batch_inference import (
    BatchInferenceEngine,
    EdgeProbabilityCache,
    batched_probability_matrix,
    standardize_columns,
)
from repro.core.inference import (
    EdgeProbabilityEstimator,
    edge_probability_matrix,
    infer_grn,
)
from repro.core.randomization import content_seed
from repro.core.standardize import standardize_vector
from repro.errors import (
    DegenerateVectorError,
    DimensionMismatchError,
    ReproError,
    ValidationError,
)


@pytest.fixture()
def matrix(rng) -> np.ndarray:
    """A 14-sample x 9-gene matrix with a mix of correlated columns."""
    m = rng.normal(size=(14, 9))
    m[:, 1] = m[:, 0] + 0.4 * rng.normal(size=14)
    m[:, 5] = -m[:, 2] + 0.3 * rng.normal(size=14)
    return m


def scalar_reference(matrix: np.ndarray, estimator) -> np.ndarray:
    """The per-pair sequential loop the batched paths must reproduce."""
    n = matrix.shape[1]
    probs = np.zeros((n, n), dtype=np.float64)
    for s in range(n):
        for t in range(s + 1, n):
            probs[s, t] = estimator.pair_probability(matrix[:, s], matrix[:, t])
    probs += probs.T
    return probs


class TestStandardizeColumns:
    def test_matches_per_column_standardize(self, rng):
        m = rng.normal(size=(11, 5))
        std = standardize_columns(m)
        for j in range(5):
            assert np.array_equal(std[:, j], standardize_vector(m[:, j]))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatchError):
            standardize_vector(np.ones((3, 2)))
        with pytest.raises(DimensionMismatchError):
            standardize_columns(np.arange(6.0))

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
            elements=st.floats(
                min_value=-1e300,
                max_value=1e300,
                allow_nan=False,
                allow_infinity=False,
            ),
        )
    )
    def test_bytes_equal_per_column_loop(self, m):
        """Same bytes and layout as stacking standardize_vector per column,
        or the same error type when a column cannot be standardized."""
        try:
            reference = np.column_stack([standardize_vector(c) for c in m.T])
        except ReproError as exc:
            with pytest.raises(type(exc)):
                standardize_columns(m)
            return
        std = standardize_columns(m)
        assert std.flags.c_contiguous and reference.flags.c_contiguous
        assert std.shape == reference.shape
        assert std.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("length", [2, 3, 17, 128, 129, 300])
    def test_bytes_equal_at_pairwise_block_edges(self, rng, length):
        m = rng.normal(3.0, 7.0, size=(length, 13))
        reference = np.column_stack([standardize_vector(c) for c in m.T])
        assert standardize_columns(m).tobytes() == reference.tobytes()

    def test_constant_column_rejected_like_vector(self, rng):
        m = rng.normal(size=(6, 3))
        m[:, 1] = 2.5
        with pytest.raises(DegenerateVectorError):
            standardize_vector(m[:, 1])
        with pytest.raises(DegenerateVectorError):
            standardize_columns(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_like_vector(self, rng, bad):
        m = rng.normal(size=(6, 3))
        m[4, 2] = bad
        with pytest.raises(DegenerateVectorError):
            standardize_vector(m[:, 2])
        with pytest.raises(DegenerateVectorError):
            standardize_columns(m)

    def test_single_sample_rejected_like_vector(self):
        m = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(DimensionMismatchError):
            standardize_vector(m[:, 0])
        with pytest.raises(DimensionMismatchError):
            standardize_columns(m)


class TestBitIdentity:
    """Batched == scalar, bit for bit, under a fixed seed."""

    def test_matrix_equals_scalar_loop(self, matrix):
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        batched = estimator.probability_matrix(matrix)
        assert np.array_equal(batched, scalar_reference(matrix, estimator))

    def test_two_sided_matrix_equals_scalar_loop(self, matrix):
        estimator = EdgeProbabilityEstimator(
            n_samples=64, seed=5, semantics="two_sided"
        )
        batched = estimator.probability_matrix(matrix)
        assert np.array_equal(batched, scalar_reference(matrix, estimator))

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_batch_size_invariance(self, matrix, batch_size):
        reference = edge_probability_matrix(matrix, n_samples=64, seed=5)
        varied = edge_probability_matrix(
            matrix, n_samples=64, seed=5, batch_size=batch_size
        )
        assert np.array_equal(varied, reference)

    def test_workers_invariance(self, matrix):
        reference = edge_probability_matrix(matrix, n_samples=64, seed=5)
        parallel = edge_probability_matrix(
            matrix, n_samples=64, seed=5, workers=2
        )
        assert np.array_equal(parallel, reference)

    def test_pair_blocks_equal_scalar(self, matrix):
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        engine = BatchInferenceEngine(estimator, InferenceConfig())
        std = standardize_columns(matrix)
        pairs = [(0, 1), (2, 5), (0, 8), (3, 4)]
        probs = engine.pair_block_probabilities(std, pairs, raw=matrix)
        for s, t in pairs:
            assert probs[(s, t)] == estimator.pair_probability(
                matrix[:, s], matrix[:, t]
            )

    def test_pair_blocks_fill_and_reuse_seed_memo(self, matrix):
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        std = standardize_columns(matrix)
        pairs = [(0, 1), (2, 5), (0, 8)]
        reference = BatchInferenceEngine(
            estimator, InferenceConfig(cache=False)
        ).pair_block_probabilities(std, pairs)
        seeds: dict[int, int] = {}
        engine = BatchInferenceEngine(estimator, InferenceConfig(cache=False))
        assert engine.pair_block_probabilities(std, pairs, seeds=seeds) == reference
        # Without a cache only the randomized (target) columns need seeds.
        assert seeds == {t: content_seed(std[:, t]) for _s, t in pairs}
        assert engine.pair_block_probabilities(std, pairs, seeds=seeds) == reference

    def test_cache_off_equals_cache_on(self, matrix):
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        cached = BatchInferenceEngine(estimator, InferenceConfig(cache=True))
        uncached = BatchInferenceEngine(estimator, InferenceConfig(cache=False))
        assert np.array_equal(
            cached.probability_matrix(matrix), uncached.probability_matrix(matrix)
        )

    def test_exact_regime_matches_estimator(self, rng):
        # l <= exact_below: the engine must delegate to exact enumeration.
        m = rng.normal(size=(5, 4))
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5, exact_below=6)
        engine = BatchInferenceEngine(estimator, InferenceConfig())
        std = standardize_columns(m)
        pairs = [(0, 1), (1, 3)]
        probs = engine.pair_block_probabilities(std, pairs, raw=m)
        for s, t in pairs:
            assert probs[(s, t)] == estimator.pair_probability(m[:, s], m[:, t])
            assert engine.pair_probability(m[:, s], m[:, t]) == probs[(s, t)]


class TestCache:
    def test_hits_after_matrix_computation(self, matrix):
        engine = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=64, seed=5), InferenceConfig()
        )
        reference = engine.probability_matrix(matrix)
        before = engine.stats()["cache_hits"]
        # Single-pair lookups now hit the per-pair entries.
        p = engine.pair_probability(matrix[:, 0], matrix[:, 1])
        assert p == reference[0, 1]
        assert engine.stats()["cache_hits"] == before + 1

    def test_matrix_memo_hit(self, matrix):
        engine = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=64, seed=5), InferenceConfig()
        )
        first = engine.probability_matrix(matrix)
        hits_before = engine.stats()["cache_hits"]
        second = engine.probability_matrix(matrix)
        assert np.array_equal(first, second)
        assert engine.stats()["cache_hits"] == hits_before + 1

    def test_different_params_do_not_collide(self, matrix):
        cache = EdgeProbabilityCache()
        e64 = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=64, seed=5),
            InferenceConfig(),
            cache=cache,
        )
        e32 = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=32, seed=5),
            InferenceConfig(),
            cache=cache,
        )
        p64 = e64.pair_probability(matrix[:, 0], matrix[:, 1])
        p32 = e32.pair_probability(matrix[:, 0], matrix[:, 1])
        # Same pair, shared cache, different sample counts: the second
        # engine must not read the first engine's entry.
        assert p64 == EdgeProbabilityEstimator(n_samples=64, seed=5).pair_probability(
            matrix[:, 0], matrix[:, 1]
        )
        assert p32 == EdgeProbabilityEstimator(n_samples=32, seed=5).pair_probability(
            matrix[:, 0], matrix[:, 1]
        )

    def test_pair_keys_pack_both_seeds_and_share_params(self, matrix):
        engine = BatchInferenceEngine(
            EdgeProbabilityEstimator(n_samples=32, seed=5), InferenceConfig()
        )
        std = standardize_columns(matrix)
        pairs = [(0, 1), (0, 2), (1, 2)]
        engine.pair_block_probabilities(std, pairs)
        keys = list(engine.cache._data)
        assert len(keys) == len(pairs)
        seeds = [content_seed(std[:, c]) for c in range(3)]
        for key, (s, t) in zip(keys, pairs):
            packed, params = key
            assert packed >> 64 == seeds[s]
            assert packed & ((1 << 64) - 1) == seeds[t]
            assert params is keys[0][1]

    def test_lru_eviction(self):
        cache = EdgeProbabilityCache(max_entries=2)
        cache.put(("a",), 1.0)
        cache.put(("b",), 2.0)
        assert cache.get(("a",)) == 1.0  # refresh "a"
        cache.put(("c",), 3.0)  # evicts "b", the least recently used
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1.0
        assert cache.get(("c",)) == 3.0
        assert len(cache) == 2

    def test_clear_resets_counters(self):
        cache = EdgeProbabilityCache()
        cache.put(("k",), 0.5)
        cache.get(("k",))
        cache.get(("missing",))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "cache_entries": 0.0,
            "cache_hits": 0.0,
            "cache_misses": 0.0,
        }

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValidationError):
            EdgeProbabilityCache(max_entries=0)


class TestDeterminism:
    def test_same_seed_identical_probabilistic_graph(self, matrix):
        ids = list(range(100, 100 + matrix.shape[1]))
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        config = InferenceConfig(batch_size=4)
        g1 = infer_grn(matrix, ids, gamma=0.3, estimator=estimator,
                       inference=config)
        g2 = infer_grn(matrix, ids, gamma=0.3, estimator=estimator,
                       inference=config)
        assert g1.gene_ids == g2.gene_ids
        assert dict(g1.edges()) == dict(g2.edges())

    def test_batch_knobs_do_not_change_graph(self, matrix):
        ids = list(range(matrix.shape[1]))
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        small = infer_grn(matrix, ids, gamma=0.3, estimator=estimator,
                          inference=InferenceConfig(batch_size=1))
        large = infer_grn(matrix, ids, gamma=0.3, estimator=estimator,
                          inference=InferenceConfig(batch_size=64))
        assert dict(small.edges()) == dict(large.edges())

    def test_evaluation_order_independence(self, matrix):
        estimator = EdgeProbabilityEstimator(n_samples=64, seed=5)
        engine = BatchInferenceEngine(estimator, InferenceConfig(cache=False))
        std = standardize_columns(matrix)
        forward = engine.pair_block_probabilities(std, [(0, 3), (1, 3), (2, 3)])
        backward = engine.pair_block_probabilities(std, [(2, 3), (1, 3), (0, 3)])
        assert forward == backward


class TestSemanticsEquivalence:
    """one_sided and two_sided coincide on non-negatively correlated pairs.

    For ``r(X_s, X_t) >= 0`` and a permuted sample with
    ``|r_sampled| < r_observed``, both semantics count the same events up
    to the sign of the sampled score; on strongly positively correlated
    pairs the estimates agree closely (the docstring's claimed regime).
    """

    def test_agree_on_positively_correlated_pair(self, rng):
        x = rng.normal(size=40)
        y = x + 0.15 * rng.normal(size=40)
        one = EdgeProbabilityEstimator(
            n_samples=400, seed=5, semantics="one_sided"
        ).pair_probability(x, y)
        two = EdgeProbabilityEstimator(
            n_samples=400, seed=5, semantics="two_sided"
        ).pair_probability(x, y)
        assert one == pytest.approx(two, abs=0.05)
        assert one > 0.9 and two > 0.9

    def test_agree_across_positive_pairs(self, rng):
        for _ in range(5):
            x = rng.normal(size=36)
            y = 0.8 * x + 0.2 * rng.normal(size=36)
            one = EdgeProbabilityEstimator(
                n_samples=300, seed=7, semantics="one_sided"
            ).pair_probability(x, y)
            two = EdgeProbabilityEstimator(
                n_samples=300, seed=7, semantics="two_sided"
            ).pair_probability(x, y)
            assert one == pytest.approx(two, abs=0.06)


class TestValidation:
    def test_bad_batch_size_rejected(self, matrix):
        with pytest.raises(ValidationError):
            edge_probability_matrix(matrix, n_samples=16, batch_size=0)

    def test_bad_config_values_rejected(self):
        with pytest.raises(ValidationError):
            InferenceConfig(batch_size=0)
        with pytest.raises(ValidationError):
            InferenceConfig(workers=-1)
        with pytest.raises(ValidationError):
            InferenceConfig(cache_size=0)

    def test_config_with_copies(self):
        config = InferenceConfig()
        tuned = config.with_(batch_size=8, workers=2)
        assert tuned.batch_size == 8
        assert tuned.workers == 2
        assert config.batch_size == 32  # original untouched

    def test_non_2d_matrix_rejected(self):
        with pytest.raises(DimensionMismatchError):
            batched_probability_matrix(np.arange(8.0), n_samples=16)
