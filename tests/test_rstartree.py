"""Unit + integration tests for the R*-tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.index.mbr import MBR
from repro.index.pagemanager import PageManager
from repro.index.rstartree import RStarTree


def build_tree(points, gene_ids=None, source_ids=None, max_entries=8):
    dim = points.shape[1]
    tree = RStarTree(dim=dim, max_entries=max_entries)
    for i, point in enumerate(points):
        gene = gene_ids[i] if gene_ids is not None else i
        source = source_ids[i] if source_ids is not None else 0
        tree.insert(point, gene, source, payload=i)
    return tree


class TestInsertion:
    def test_size_tracks_inserts(self, rng):
        tree = build_tree(rng.normal(size=(50, 3)))
        assert len(tree) == 50

    def test_invariants_after_bulk_insert(self, rng):
        tree = build_tree(rng.normal(size=(300, 5)))
        tree.check_invariants()

    def test_invariants_with_duplicates(self, rng):
        pts = np.repeat(rng.normal(size=(10, 3)), 20, axis=0)
        tree = build_tree(pts)
        tree.check_invariants()
        assert len(tree) == 200

    def test_grows_in_height(self, rng):
        small = build_tree(rng.normal(size=(4, 2)), max_entries=4)
        big = build_tree(rng.normal(size=(400, 2)), max_entries=4)
        assert small.height == 1
        assert big.height >= 3

    def test_all_entries_preserved(self, rng):
        pts = rng.normal(size=(120, 4))
        tree = build_tree(pts)
        payloads = sorted(e.payload for e in tree.iter_entries())
        assert payloads == list(range(120))

    def test_wrong_dim_rejected(self, rng):
        tree = RStarTree(dim=3)
        with pytest.raises(ValidationError):
            tree.insert(np.zeros(4), 0, 0, 0)

    def test_insert_after_finalize_rejected(self, rng):
        tree = build_tree(rng.normal(size=(10, 2)))
        tree.finalize()
        with pytest.raises(ValidationError):
            tree.insert(np.zeros(2), 0, 0, 0)

    def test_constructor_domains(self):
        with pytest.raises(ValidationError):
            RStarTree(dim=0)
        with pytest.raises(ValidationError):
            RStarTree(dim=2, max_entries=3)


class TestSearch:
    def test_matches_brute_force(self, rng):
        pts = rng.uniform(0.0, 10.0, size=(250, 3))
        tree = build_tree(pts)
        for _ in range(20):
            low = rng.uniform(0.0, 8.0, size=3)
            high = low + rng.uniform(0.5, 4.0, size=3)
            box = MBR(low, high)
            found = sorted(e.payload for e in tree.search(box))
            expected = sorted(
                int(i)
                for i in range(250)
                if np.all(pts[i] >= low) and np.all(pts[i] <= high)
            )
            assert found == expected

    def test_empty_tree_search(self):
        tree = RStarTree(dim=2)
        assert tree.search(MBR(np.zeros(2), np.ones(2))) == []

    def test_whole_space_returns_everything(self, rng):
        pts = rng.normal(size=(60, 2))
        tree = build_tree(pts)
        box = MBR(np.full(2, -100.0), np.full(2, 100.0))
        assert len(tree.search(box)) == 60

    def test_empty_tree_nearest(self):
        tree = RStarTree(dim=2)
        assert tree.nearest(np.zeros(2), k=3) == []

    def test_never_finalized_tree_searchable(self, rng):
        # search() must not require finalize(): mid-build lookups return
        # exactly the live entries, not [] or stale data.
        pts = rng.normal(size=(30, 2))
        tree = build_tree(pts)
        assert not tree._finalized
        box = MBR(np.full(2, -100.0), np.full(2, 100.0))
        assert len(tree.search(box)) == 30


class TestCoordinateValidation:
    """NaN coordinates must raise, not silently vanish from every search."""

    def test_insert_nan_rejected(self):
        tree = RStarTree(dim=2)
        with pytest.raises(ValidationError):
            tree.insert(np.array([0.0, np.nan]), 0, 0, 0)
        assert len(tree) == 0

    def test_insert_inf_rejected(self):
        tree = RStarTree(dim=2)
        with pytest.raises(ValidationError):
            tree.insert(np.array([np.inf, 0.0]), 0, 0, 0)

    def test_bulk_load_nan_rejected(self, rng):
        from repro.index.arraystore import ArrayStore

        pts = rng.normal(size=(10, 2))
        pts[4, 1] = np.nan
        rows = np.arange(10)
        with pytest.raises(ValidationError):
            ArrayStore.pack(
                pts, rows, np.zeros(10), rows, max_entries=8, bitvector_bits=64
            )

    def test_nearest_nan_query_rejected(self, rng):
        tree = build_tree(rng.normal(size=(20, 2)))
        with pytest.raises(ValidationError):
            tree.nearest(np.array([np.nan, 0.0]))

    def test_finite_points_unaffected(self, rng):
        # The validation must not reject any finite workload.
        pts = rng.normal(size=(40, 3)) * 1e6
        tree = build_tree(pts)
        assert len(tree) == 40
        tree.check_invariants()


class TestIOAccounting:
    def test_search_counts_pages(self, rng):
        pages = PageManager()
        tree = RStarTree(dim=2, pages=pages)
        for i, p in enumerate(rng.normal(size=(100, 2))):
            tree.insert(p, i, 0, i)
        pages.reset()
        tree.search(MBR(np.full(2, -100.0), np.full(2, 100.0)))
        # A full-space scan must read every node once.
        assert pages.accesses == pages.num_pages

    def test_pause_resume(self):
        pages = PageManager()
        pid = pages.allocate()
        pages.pause()
        pages.access(pid)
        assert pages.accesses == 0
        pages.resume()
        pages.access(pid)
        assert pages.accesses == 1

    def test_unallocated_page_rejected(self):
        pages = PageManager()
        with pytest.raises(ValidationError):
            pages.access(0)

    def test_page_size_domain(self):
        with pytest.raises(ValidationError):
            PageManager(page_size=32)


class TestSignatures:
    def test_leaf_signatures_cover_entries(self, rng):
        from repro.index.bitvector import signature, signatures_overlap
        from repro.index.invertedfile import SOURCE_SALT

        gene_ids = list(rng.integers(0, 1000, size=80))
        source_ids = list(rng.integers(0, 40, size=80))
        tree = build_tree(
            rng.normal(size=(80, 3)), gene_ids=gene_ids, source_ids=source_ids
        )
        tree.finalize()
        bits = tree.bitvector_bits
        for node in tree.iter_nodes():
            if node.is_leaf:
                for entry in node.entries:
                    assert signatures_overlap(
                        signature(entry.gene_id, bits), node.vf
                    )
                    assert signatures_overlap(
                        signature(entry.source_id, bits, SOURCE_SALT), node.vd
                    )

    def test_parent_signatures_superset_of_children(self, rng):
        tree = build_tree(rng.normal(size=(150, 3)))
        tree.finalize()
        tree.check_invariants()  # includes signature containment

    def test_root_signature_covers_all_genes(self, rng):
        from repro.index.bitvector import signature, signatures_overlap

        gene_ids = list(range(200, 260))
        tree = build_tree(rng.normal(size=(60, 2)), gene_ids=gene_ids)
        tree.finalize()
        for gene in gene_ids:
            assert signatures_overlap(
                signature(gene, tree.bitvector_bits), tree.root.vf
            )


class TestNodeCorners:
    def test_xy_corner_extraction(self, rng):
        """x_min/x_max/y_min/y_max slice the interleaved dims correctly."""
        d = 2
        pts = rng.uniform(0.0, 5.0, size=(40, 2 * d + 1))
        tree = build_tree(pts)
        for node in tree.iter_nodes():
            if node.mbr is None:
                continue
            np.testing.assert_allclose(node.x_min(d), node.mbr.low[[0, 2]])
            np.testing.assert_allclose(node.x_max(d), node.mbr.high[[0, 2]])
            np.testing.assert_allclose(node.y_min(d), node.mbr.low[[1, 3]])
            np.testing.assert_allclose(node.y_max(d), node.mbr.high[[1, 3]])


class TestQualityHeuristics:
    def test_reasonable_leaf_overlap(self, rng):
        """R* splits should keep sibling leaf overlap modest on uniform
        data (sanity check that the split heuristics do their job)."""
        pts = rng.uniform(0.0, 100.0, size=(500, 2))
        tree = build_tree(pts, max_entries=8)
        leaves = [n for n in tree.iter_nodes() if n.is_leaf]
        total_area = sum(leaf.mbr.area() for leaf in leaves)
        # Leaves tile ~the data extent; gross over-covering would inflate
        # total leaf area far beyond the 100x100 universe.
        assert total_area < 4.0 * 100.0 * 100.0
