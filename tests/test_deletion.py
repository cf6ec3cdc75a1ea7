"""Tests for R*-tree deletion and engine-level source removal."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IMGRNEngine
from repro.errors import IndexNotBuiltError, UnknownGeneError
from repro.index.mbr import MBR
from repro.index.rstartree import RStarTree

from conftest import TEST_CONFIG


def build_tree(points, max_entries=6):
    tree = RStarTree(dim=points.shape[1], max_entries=max_entries)
    for i, point in enumerate(points):
        tree.insert(point, gene_id=i, source_id=i % 4, payload=i)
    return tree


class TestTreeDeletion:
    def test_delete_reduces_size_and_keeps_invariants(self, rng):
        points = rng.normal(size=(120, 3))
        tree = build_tree(points)
        assert tree.delete(17)
        assert tree.delete(56)
        assert len(tree) == 118
        tree.check_invariants()

    def test_deleted_entry_not_searchable(self, rng):
        points = rng.uniform(0, 10, size=(80, 2))
        tree = build_tree(points)
        tree.delete(5)
        box = MBR(np.full(2, -100.0), np.full(2, 100.0))
        payloads = {e.payload for e in tree.search(box)}
        assert 5 not in payloads
        assert len(payloads) == 79

    def test_delete_missing_payload_returns_false(self, rng):
        tree = build_tree(rng.normal(size=(10, 2)))
        assert not tree.delete(999)
        assert len(tree) == 10

    def test_delete_everything(self, rng):
        points = rng.normal(size=(40, 2))
        tree = build_tree(points, max_entries=4)
        order = list(range(40))
        rng.shuffle(order)
        for payload in order:
            assert tree.delete(payload)
            tree.check_invariants()
        assert len(tree) == 0
        assert tree.search(MBR(np.full(2, -1e6), np.full(2, 1e6))) == []

    def test_delete_then_insert_roundtrip(self, rng):
        points = rng.normal(size=(60, 3))
        tree = build_tree(points)
        for payload in (3, 30, 59):
            tree.delete(payload)
            tree.insert(points[payload], payload, payload % 4, payload)
        tree.check_invariants()
        assert len(tree) == 60
        box = MBR(np.full(3, -100.0), np.full(3, 100.0))
        assert sorted(e.payload for e in tree.search(box)) == list(range(60))

    def test_search_oracle_after_random_deletes(self, rng):
        points = rng.uniform(0, 10, size=(150, 3))
        tree = build_tree(points)
        removed = set(rng.choice(150, size=60, replace=False).tolist())
        for payload in removed:
            assert tree.delete(int(payload))
        tree.check_invariants()
        for _ in range(10):
            low = rng.uniform(0, 8, size=3)
            high = low + rng.uniform(0.5, 4.0, size=3)
            found = sorted(e.payload for e in tree.search(MBR(low, high)))
            expected = sorted(
                i
                for i in range(150)
                if i not in removed
                and np.all(points[i] >= low)
                and np.all(points[i] <= high)
            )
            assert found == expected

    def test_root_collapse(self, rng):
        points = rng.normal(size=(30, 2))
        tree = build_tree(points, max_entries=4)
        assert tree.height > 1
        for payload in range(25):
            tree.delete(payload)
        tree.check_invariants()
        assert len(tree) == 5

    def test_signatures_recomputed_after_finalized_delete(self, rng):
        from repro.index.bitvector import signature, signatures_overlap

        points = rng.normal(size=(40, 2))
        tree = build_tree(points)
        tree.finalize()
        tree.delete(0)
        tree.check_invariants()
        # Signatures stay covering for every remaining entry.
        for node in tree.iter_nodes():
            if node.is_leaf:
                for entry in node.entries:
                    assert signatures_overlap(
                        signature(entry.gene_id, tree.bitvector_bits), node.vf
                    )


class TestEngineRemoval:
    @pytest.fixture()
    def fresh_engine(self, small_database):
        from repro import GeneFeatureDatabase

        engine = IMGRNEngine(GeneFeatureDatabase(iter(small_database)), TEST_CONFIG)
        engine.build()
        return engine

    def test_removed_source_never_answers(self, fresh_engine, query_workload):
        query = query_workload[0]
        target = query.source_id
        before = fresh_engine.query(query, gamma=0.5, alpha=0.0).answer_sources()
        assert target in before
        fresh_engine.remove_matrix(target)
        after = fresh_engine.query(query, gamma=0.5, alpha=0.0).answer_sources()
        assert target not in after
        assert set(after) <= set(before)

    def test_other_sources_unaffected(self, fresh_engine, query_workload):
        query = query_workload[1]
        before = set(fresh_engine.query(query, gamma=0.5, alpha=0.0).answer_sources())
        victim = next(
            s for s in fresh_engine.database.source_ids
            if s not in before and s != query.source_id
        )
        fresh_engine.remove_matrix(victim)
        fresh_engine.array_index.check_invariants()
        after = set(fresh_engine.query(query, gamma=0.5, alpha=0.0).answer_sources())
        assert after == before

    def test_remove_unknown_source(self, fresh_engine):
        with pytest.raises(UnknownGeneError):
            fresh_engine.remove_matrix(424242)

    def test_remove_before_build(self, small_database):
        engine = IMGRNEngine(small_database, TEST_CONFIG)
        with pytest.raises(IndexNotBuiltError):
            engine.remove_matrix(0)

    def test_tree_shrinks_by_matrix_width(self, fresh_engine):
        source = fresh_engine.database.source_ids[0]
        width = fresh_engine.database.get(source).num_genes
        before = len(fresh_engine.array_index)
        fresh_engine.remove_matrix(source)
        assert len(fresh_engine.array_index) == before - width

    def test_add_then_remove_is_noop_for_queries(
        self, fresh_engine, query_workload
    ):
        from repro.config import SyntheticConfig
        from repro.data.synthetic import generate_matrix

        new_matrix = generate_matrix(
            SyntheticConfig(
                genes_range=(10, 14), samples_range=(8, 12), gene_pool=50, seed=99
            ),
            source_id=777,
            rng=np.random.default_rng(99),
        )
        baseline = [
            fresh_engine.query(q, gamma=0.5, alpha=0.2).answer_sources()
            for q in query_workload
        ]
        fresh_engine.add_matrix(new_matrix)
        fresh_engine.remove_matrix(777)
        fresh_engine.array_index.check_invariants()
        after = [
            fresh_engine.query(q, gamma=0.5, alpha=0.2).answer_sources()
            for q in query_workload
        ]
        assert after == baseline
