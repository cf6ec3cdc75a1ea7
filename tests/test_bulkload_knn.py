"""Tests for STR bulk loading (the array packer) and best-first kNN."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IMGRNEngine
from repro.errors import ValidationError
from repro.eval.experiments import rstar_reference_index
from repro.index.arraystore import ArrayStore
from repro.index.pagemanager import PageManager
from repro.index.rstartree import RStarTree

from conftest import TEST_CONFIG


def pack(points, max_entries=16, pages=None):
    """Pack ``points`` with gene = row, source = row % 3, payload = row."""
    rows = np.arange(len(points))
    return ArrayStore.pack(
        points,
        rows,
        rows % 3,
        rows,
        max_entries=max_entries,
        bitvector_bits=64,
        pages=pages,
    )


def payloads(store, rows):
    return [int(store.entry_payloads[row]) for row in rows]


class TestBulkLoad:
    @pytest.mark.parametrize("n", [1, 4, 5, 17, 100, 333])
    def test_invariants_at_many_sizes(self, rng, n):
        store = pack(rng.normal(size=(n, 3)), max_entries=8)
        store.check_invariants()
        assert len(store) == n

    def test_search_matches_brute_force(self, rng):
        points = rng.uniform(0, 10, size=(400, 4))
        store = pack(points, max_entries=8)
        for _ in range(15):
            low = rng.uniform(0, 8, size=4)
            high = low + rng.uniform(0.5, 4.0, size=4)
            found = sorted(payloads(store, store.search(low, high)))
            expected = sorted(
                i
                for i in range(400)
                if np.all(points[i] >= low) and np.all(points[i] <= high)
            )
            assert found == expected

    def test_higher_utilization_than_insertion(self, rng):
        points = rng.normal(size=(500, 3))
        bulk = pack(points, max_entries=8)
        one_by_one = RStarTree(dim=3, max_entries=8)
        for i, p in enumerate(points):
            one_by_one.insert(p, i, i % 3, i)
        bulk_leaves = int((bulk.node_levels == 0).sum())
        incremental_leaves = sum(
            1 for n in one_by_one.iter_nodes() if n.is_leaf
        )
        # STR packs leaves (near-)full; incremental insertion cannot beat it.
        assert bulk_leaves <= incremental_leaves

    def test_duplicate_points(self, rng):
        points = np.repeat(rng.normal(size=(5, 2)), 30, axis=0)
        store = pack(points, max_entries=6)
        store.check_invariants()
        assert len(store) == 150

    def test_rejects_mismatched_columns(self, rng):
        rows = np.arange(5)
        with pytest.raises(ValidationError):
            ArrayStore.pack(
                rng.normal(size=(5, 2)),
                rows,
                rows[:4],
                rows,
                max_entries=8,
                bitvector_bits=64,
            )

    def test_rejects_wrong_dim(self, rng):
        with pytest.raises(ValidationError):
            pack(rng.normal(size=5))
        with pytest.raises(ValidationError):
            pack(rng.normal(size=(5, 2, 2)))

    def test_empty_load_is_noop(self):
        store = pack(np.empty((0, 2)))
        store.check_invariants()
        assert len(store) == 0
        assert store.search(np.full(2, -1.0), np.ones(2)) == []

    def test_engine_bulk_build_same_answers(self, small_database, query_workload):
        packed = IMGRNEngine(small_database, TEST_CONFIG)
        packed.build()
        packed.array_index.check_invariants()
        # The paper's one-at-a-time R* insertion over the same points.
        incremental = IMGRNEngine(small_database, TEST_CONFIG)
        incremental.build()
        store, pages, _seconds = rstar_reference_index(incremental)
        store.check_invariants()
        incremental.array_index, incremental.pages = store, pages
        for query in query_workload:
            assert (
                packed.query(query, gamma=0.5, alpha=0.2).answer_sources()
                == incremental.query(query, gamma=0.5, alpha=0.2).answer_sources()
            )


class TestNearest:
    def test_matches_brute_force(self, rng):
        points = rng.normal(size=(300, 3))
        store = pack(points, max_entries=8)
        for _ in range(10):
            probe = rng.normal(size=3)
            found = store.nearest(probe, k=5)
            assert len(found) == 5
            distances = np.linalg.norm(points - probe, axis=1)
            expected = np.sort(distances)[:5]
            np.testing.assert_allclose(
                [d for d, _row in found], expected, rtol=1e-9
            )

    def test_sorted_by_distance(self, rng):
        store = pack(rng.normal(size=(100, 2)))
        found = store.nearest(np.zeros(2), k=10)
        dists = [d for d, _row in found]
        assert dists == sorted(dists)

    def test_k_larger_than_tree(self, rng):
        store = pack(rng.normal(size=(7, 2)))
        assert len(store.nearest(np.zeros(2), k=50)) == 7

    def test_exact_hit_is_first(self, rng):
        points = rng.normal(size=(50, 3))
        store = pack(points)
        dist, row = store.nearest(points[13], k=1)[0]
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert store.entry_payloads[row] == 13

    def test_empty_tree(self):
        tree = RStarTree(dim=2)
        assert tree.nearest(np.zeros(2), k=3) == []

    def test_domain_checks(self, rng):
        tree = RStarTree(dim=2)
        tree.insert(np.zeros(2), 0, 0, 0)
        with pytest.raises(ValidationError):
            tree.nearest(np.zeros(2), k=0)
        with pytest.raises(ValidationError):
            tree.nearest(np.zeros(3), k=1)

    def test_charges_io(self, rng):
        pages = PageManager()
        store = pack(rng.normal(size=(200, 2)), max_entries=6, pages=pages)
        store.nearest(np.zeros(2), k=3, pages=pages)
        assert pages.accesses >= 1
        # Best-first expands far fewer nodes than a full scan.
        assert pages.accesses < pages.num_pages
