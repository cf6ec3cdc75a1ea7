"""Array index: STR packing, structural checks, persistence, answers.

The contracts under test: :meth:`ArrayStore.pack` emits a structurally
valid index (``check_invariants``) that depends only on its input rows;
a compacted reference R*-tree (``from_tree``) answers range and kNN
searches exactly like the tree; and the engine's index -- built,
maintained by add/remove, or reloaded via ``np.memmap`` -- has the
fingerprint of a fresh build over the same sources and answers every
workload kind exactly like brute-force ``find_embeddings``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import (
    BuildConfig,
    EngineConfig,
    ObservabilityConfig,
    SyntheticConfig,
)
from repro.core.persistence import load_engine_sharded, save_engine_sharded
from repro.core.query import IMGRNEngine
from repro.data.database import GeneFeatureDatabase
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database
from repro.errors import IndexNotBuiltError, ValidationError
from repro.index.arraystore import (
    ArrayStore,
    int_to_words,
    min_dist_many,
    min_fill,
    signature_words,
    words_to_int,
)
from repro.index.mbr import MBR
from repro.index.pagemanager import PageManager
from repro.index.rstartree import RStarTree

from test_refine import ENGINE_NAMES, _brute_force, _make_engine, _spec

SEED = 11


def _config() -> EngineConfig:
    return EngineConfig(
        seed=SEED,
        build=BuildConfig(workers=0, shard_size=3),
        observability=ObservabilityConfig(shared_registry=False),
    )


def _database_of(matrices) -> GeneFeatureDatabase:
    database = GeneFeatureDatabase()
    for matrix in matrices:
        database.add(matrix)
    return database


def _answers(engine, queries) -> list[tuple]:
    out = []
    for query in queries:
        result = engine.query(query, gamma=0.4, alpha=0.4)
        out.append(
            (
                tuple(
                    (answer.source_id, answer.probability)
                    for answer in sorted(
                        result.answers, key=lambda a: a.source_id
                    )
                ),
                # Wall-clock metrics legitimately differ; every counter
                # (io, candidates, all pruning stages) must not.
                tuple(
                    sorted(
                        (key, value)
                        for key, value in result.metrics.items()
                        if "seconds" not in key
                    )
                ),
            )
        )
    return out


@pytest.fixture(scope="module")
def database():
    return generate_database(
        SyntheticConfig(genes_range=(10, 20), seed=SEED), 9
    )


@pytest.fixture(scope="module")
def queries(database):
    return generate_query_workload(database, n_q=3, count=3, rng=SEED)


@pytest.fixture(scope="module")
def array_engine(database):
    engine = IMGRNEngine(database, _config())
    engine.build()
    return engine


def _packed(points, max_entries=8, bits=128, pages=None):
    """Pack ``points`` with gene = row % 17, source = row % 5, payload = row."""
    rows = np.arange(points.shape[0])
    return ArrayStore.pack(
        points,
        rows % 17,
        rows % 5,
        rows,
        max_entries=max_entries,
        bitvector_bits=bits,
        pages=pages,
    )


@pytest.fixture()
def tree(rng):
    tree = RStarTree(dim=3, max_entries=4, pages=PageManager())
    points = rng.uniform(0.0, 10.0, size=(120, 3))
    for i, point in enumerate(points):
        tree.insert(point, gene_id=i % 17, source_id=i % 5, payload=i)
    tree.finalize()
    return tree


class TestSignatureWords:
    def test_round_trip(self):
        for value in (0, 1, 2**63, 2**64 - 1, 2**64, (1 << 1024) - 1):
            words = int_to_words(value, 17)
            assert words_to_int(words) == value

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            int_to_words(-1, 2)

    def test_overflow_rejected(self):
        with pytest.raises(ValidationError):
            int_to_words(1 << 128, 2)

    def test_word_count(self):
        assert signature_words(1) == 1
        assert signature_words(64) == 1
        assert signature_words(65) == 2
        assert signature_words(1024) == 16

    def test_wordwise_and_equals_int_and(self, rng):
        # The vectorized signature filter: word-wise AND any() must be
        # exactly the scalar (a & b) != 0 test.
        for _ in range(50):
            a = int(rng.integers(0, 1 << 63)) | (
                int(rng.integers(0, 1 << 63)) << 70
            )
            b = int(rng.integers(0, 1 << 63)) | (
                int(rng.integers(0, 1 << 63)) << 70
            )
            wa, wb = int_to_words(a, 3), int_to_words(b, 3)
            assert bool((wa & wb).any()) == ((a & b) != 0)


class TestFromTree:
    def test_unfinalized_rejected(self):
        tree = RStarTree(dim=2)
        tree.insert(np.zeros(2), 0, 0, 0)
        with pytest.raises(ValidationError):
            ArrayStore.from_tree(tree)

    def test_compaction_mirrors_tree(self, tree):
        store = ArrayStore.from_tree(tree)
        assert store.num_entries == len(tree) == 120
        assert store.height == tree.height
        assert store.node_levels[0] == tree.root.level

        # Walk the BFS layout and re-derive every node from the tree.
        nodes = [tree.root]
        for node in nodes:
            if not node.is_leaf:
                nodes.extend(node.entries)
        assert store.num_nodes == len(nodes)
        for index, node in enumerate(nodes):
            assert store.node_levels[index] == node.level
            assert store.node_page_ids[index] == node.page_id
            assert store.node_vf(index) == node.vf
            assert store.node_vd(index) == node.vd
            assert store.node_lows[index].tobytes() == node.mbr.low.tobytes()
            assert store.node_highs[index].tobytes() == node.mbr.high.tobytes()

        # Every leaf entry row is recoverable, in tree order.
        rows = sorted(int(p) for p in store.entry_payloads)
        assert rows == list(range(120))

    def test_children_contiguous(self, tree):
        store = ArrayStore.from_tree(tree)
        seen = np.zeros(store.num_nodes, dtype=bool)
        seen[0] = True
        for index in range(store.num_nodes):
            if store.node_levels[index] == 0:
                continue
            start = int(store.node_child_start[index])
            stop = start + int(store.node_child_count[index])
            assert not seen[start:stop].any()  # each child claimed once
            seen[start:stop] = True
            # Parents strictly precede children (BFS order).
            assert start > index
        assert seen.all()


class TestSearchEquivalence:
    def test_search_matches_tree_and_counts_pages(self, tree, rng):
        store = ArrayStore.from_tree(tree)
        for _ in range(15):
            low = rng.uniform(0.0, 8.0, size=3)
            high = low + rng.uniform(0.5, 5.0, size=3)

            tree.pages.reset()
            expected = sorted(e.payload for e in tree.search(MBR(low, high)))
            tree_accesses = tree.pages.accesses

            tree.pages.reset()
            rows = store.search(low, high, pages=tree.pages)
            found = sorted(int(store.entry_payloads[r]) for r in rows)
            assert found == expected
            assert tree.pages.accesses == tree_accesses

    def test_nearest_matches_tree_and_counts_pages(self, tree, rng):
        store = ArrayStore.from_tree(tree)
        for k in (1, 3, 10):
            point = rng.uniform(0.0, 10.0, size=3)

            tree.pages.reset()
            expected = [
                (dist, entry.payload) for dist, entry in tree.nearest(point, k)
            ]
            tree_accesses = tree.pages.accesses

            tree.pages.reset()
            got = [
                (dist, int(store.entry_payloads[row]))
                for dist, row in store.nearest(point, k, pages=tree.pages)
            ]
            assert got == expected  # distances bit-identical, same order
            assert tree.pages.accesses == tree_accesses

    def test_empty_store(self):
        tree = RStarTree(dim=2)
        tree.finalize()
        store = ArrayStore.from_tree(tree)
        assert store.search(np.zeros(2), np.ones(2)) == []
        assert store.nearest(np.zeros(2), k=2) == []

    def test_nearest_validates_inputs(self, tree):
        store = ArrayStore.from_tree(tree)
        with pytest.raises(ValidationError):
            store.nearest(np.zeros(3), k=0)
        with pytest.raises(ValidationError):
            store.nearest(np.zeros(4))

    def test_min_dist_many_matches_scalar_shape(self, rng):
        lows = rng.uniform(0.0, 5.0, size=(20, 4))
        highs = lows + rng.uniform(0.0, 3.0, size=(20, 4))
        point = rng.uniform(-1.0, 7.0, size=4)
        dists = min_dist_many(lows, highs, point)
        assert dists.shape == (20,)
        inside = np.all(lows <= point, axis=1) & np.all(point <= highs, axis=1)
        assert np.all(dists[inside] == 0.0)
        assert np.all(dists >= 0.0)


class TestPersistence:
    def test_save_load_round_trip(self, tree, tmp_path):
        store = ArrayStore.from_tree(tree)
        header = store.save(tmp_path / "arrays")
        assert header["format_version"] == 1
        assert header["fingerprint"] == store.fingerprint()

        for mmap in (True, False):
            loaded = ArrayStore.load(tmp_path / "arrays", mmap=mmap)
            assert loaded.fingerprint() == store.fingerprint()
            assert loaded.num_nodes == store.num_nodes
            assert loaded.num_entries == store.num_entries

    def test_mmap_load_is_read_only_view(self, tree, tmp_path):
        store = ArrayStore.from_tree(tree)
        store.save(tmp_path / "arrays")
        loaded = ArrayStore.load(tmp_path / "arrays", mmap=True)
        assert isinstance(loaded.entry_points, np.memmap)
        with pytest.raises((ValueError, OSError)):
            loaded.entry_points[0, 0] = 99.0

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            ArrayStore.load(tmp_path)

    def test_version_mismatch_rejected(self, tree, tmp_path):
        store = ArrayStore.from_tree(tree)
        store.save(tmp_path / "arrays")
        header_path = tmp_path / "arrays" / "header.json"
        header = json.loads(header_path.read_text(encoding="utf-8"))
        header["format_version"] = 99
        header_path.write_text(json.dumps(header), encoding="utf-8")
        with pytest.raises(ValidationError):
            ArrayStore.load(tmp_path / "arrays")

    def test_shape_mismatch_rejected(self, tree, tmp_path):
        store = ArrayStore.from_tree(tree)
        store.save(tmp_path / "arrays")
        np.save(
            tmp_path / "arrays" / "entry_gene_ids.npy",
            np.zeros(3, dtype="<i8"),
        )
        with pytest.raises(ValidationError):
            ArrayStore.load(tmp_path / "arrays")

    def test_fingerprint_tracks_content(self, tree):
        store = ArrayStore.from_tree(tree)
        before = store.fingerprint()
        store.entry_payloads[0] += 1
        assert store.fingerprint() != before
        store.entry_payloads[0] -= 1
        assert store.fingerprint() == before


class TestPack:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 500])
    def test_valid_at_many_sizes(self, rng, n):
        store = _packed(rng.normal(size=(n, 4)))
        store.check_invariants()
        assert store.num_entries == n
        assert sorted(store.entry_payloads.tolist()) == list(range(n))
        assert store.node_page_ids.tolist() == list(range(store.num_nodes))
        assert store.pages_allocated == store.num_nodes

    def test_deterministic_in_rows(self, rng):
        points = rng.normal(size=(300, 5))
        assert _packed(points).fingerprint() == _packed(points).fingerprint()

    def test_pages_come_from_the_manager(self, rng):
        pages = PageManager()
        pages.reserve(10)
        store = _packed(rng.normal(size=(50, 3)), pages=pages)
        assert store.node_page_ids[0] == 10
        assert pages.num_pages == 10 + store.num_nodes

    def test_gene_axis_tiled_first(self, rng):
        # Gene IDs and axis 0 span the same range; slabs cut the gene axis
        # (the last coordinate) first, so leaves are gene-tight.
        points = rng.uniform(0.0, 25.0, size=(400, 3))
        points[:, -1] = np.repeat(np.arange(25), 16)
        store = _packed(points, max_entries=16)
        leaves = store.node_levels == 0
        extents = store.node_highs[leaves] - store.node_lows[leaves]
        assert extents[:, -1].mean() * 4 < extents[:, 0].mean()

    def test_rejects_bad_input(self, rng):
        points = rng.normal(size=(10, 3))
        rows = np.arange(10)
        with pytest.raises(ValidationError):
            ArrayStore.pack(
                points, rows[:9], rows, rows, max_entries=8, bitvector_bits=64
            )
        with pytest.raises(ValidationError):
            ArrayStore.pack(
                points, rows, rows, rows, max_entries=3, bitvector_bits=64
            )
        points[3, 1] = np.inf
        with pytest.raises(ValidationError):
            ArrayStore.pack(
                points, rows, rows, rows, max_entries=8, bitvector_bits=64
            )


class TestCheckInvariants:
    """Each injected fault in a valid store must be caught."""

    @pytest.fixture()
    def store(self, rng):
        store = _packed(rng.normal(size=(300, 3)))
        store.check_invariants()
        assert store.height >= 3
        return store

    def test_from_tree_store_is_valid(self, tree):
        ArrayStore.from_tree(tree).check_invariants()

    def test_flipped_child_mbr_bound(self, store):
        child = int(store.node_child_start[0])
        store.node_lows[child, 0] -= 1.0  # escapes the root's box
        with pytest.raises(ValidationError, match="MBR"):
            store.check_invariants()

    def test_loosened_leaf_box(self, store):
        leaf = int(np.nonzero(store.node_levels == 0)[0][0])
        store.node_highs[leaf, 1] += 1.0  # no longer tight over its points
        with pytest.raises(ValidationError, match="MBR"):
            store.check_invariants()

    def test_point_outside_leaf_box(self, store):
        store.entry_points[0, 2] += 100.0
        with pytest.raises(ValidationError, match="MBR"):
            store.check_invariants()

    def test_cleared_signature_word(self, store):
        store.node_vf_words[0, :] = 0  # the root no longer covers its children
        with pytest.raises(ValidationError, match="signature"):
            store.check_invariants()

    def test_cleared_leaf_source_signature(self, store):
        leaf = int(np.nonzero(store.node_levels == 0)[0][0])
        store.node_vd_words[leaf, :] = 0
        with pytest.raises(ValidationError, match="signature"):
            store.check_invariants()

    def test_overflowed_child_count(self, store):
        store.node_child_count[0] += 1
        with pytest.raises(ValidationError):
            store.check_invariants()

    def test_overflowed_last_leaf_count(self, store):
        store.node_child_count[store.num_nodes - 1] += 1  # past the entries
        with pytest.raises(ValidationError, match="bounds"):
            store.check_invariants()

    def test_fan_out_bounds(self, store):
        counts = store.node_child_count[1:]
        assert counts.max() > 6 and counts.min() < min_fill(16)
        for max_entries in (6, 16):  # M too small, then m too large
            store.max_entries = max_entries
            with pytest.raises(ValidationError, match="fan-out"):
                store.check_invariants()

    def test_level_mismatch(self, store):
        store.node_levels[0] += 1
        with pytest.raises(ValidationError, match="level"):
            store.check_invariants()

    def test_min_fill_matches_tree(self):
        for max_entries in (4, 8, 16, 50):
            assert min_fill(max_entries) == RStarTree(
                dim=2, max_entries=max_entries
            ).min_entries


class TestEngineEquivalence:
    """Build, maintenance and mmap reload: one index, exact answers."""

    def test_engine_index_is_packed(self, array_engine):
        store = array_engine.array_index
        store.check_invariants()
        assert not hasattr(array_engine, "tree")
        repacked = ArrayStore.pack(
            *array_engine.index_points(),
            max_entries=array_engine.config.rstar_max_entries,
            bitvector_bits=array_engine.config.bitvector_bits,
        )
        assert repacked.fingerprint() == store.fingerprint()

    @pytest.mark.parametrize("name", ENGINE_NAMES + ["imgrn_mmap"])
    @pytest.mark.parametrize("kind", ["containment", "similarity", "topk"])
    def test_matches_find_embeddings(
        self, name, kind, small_database, query_workload, tmp_path
    ):
        config = _config().with_(mc_samples=64)
        engine = _make_engine(name.removesuffix("_mmap"), small_database, config)
        engine.build()
        if name == "imgrn_mmap":
            save_engine_sharded(engine, tmp_path / "engine")
            engine = load_engine_sharded(tmp_path / "engine", mmap_index=True)
        budget = 1 if kind == "similarity" else None
        for query in query_workload:
            result = engine.execute(_spec(query, kind, budget))
            expected = _brute_force(
                engine, small_database, result.query_graph, kind, budget
            )
            assert [(a.source_id, a.probability) for a in result.answers] == (
                expected
            )
    def test_mmap_reload_bit_identical(self, array_engine, queries, tmp_path):
        report = save_engine_sharded(array_engine, tmp_path / "engine")
        assert report["index_arrays"] == "written"

        mapped = load_engine_sharded(tmp_path / "engine", mmap_index=True)
        assert mapped.array_index.fingerprint() == (
            array_engine.array_index.fingerprint()
        )
        assert isinstance(mapped.array_index.entry_points, np.memmap)
        assert _answers(mapped, queries) == _answers(array_engine, queries)

    def test_mmap_engine_is_read_only(self, array_engine, database, tmp_path):
        save_engine_sharded(array_engine, tmp_path / "engine")
        mapped = load_engine_sharded(tmp_path / "engine", mmap_index=True)
        matrix = next(iter(database))
        with pytest.raises(IndexNotBuiltError):
            mapped.add_matrix(matrix)
        with pytest.raises(IndexNotBuiltError):
            mapped.remove_matrix(matrix.source_id)

    def test_resave_skips_unchanged_arrays(self, array_engine, tmp_path):
        save_engine_sharded(array_engine, tmp_path / "engine")
        report = save_engine_sharded(array_engine, tmp_path / "engine")
        assert report["index_arrays"] == "skipped"

    def test_fingerprint_verified_on_load(self, array_engine, tmp_path):
        save_engine_sharded(array_engine, tmp_path / "engine")
        arrays_dir = tmp_path / "engine" / "index_arrays"
        payloads = np.load(arrays_dir / "entry_payloads.npy")
        payloads[0] += 1
        np.save(arrays_dir / "entry_payloads.npy", payloads)
        with pytest.raises(ValidationError):
            load_engine_sharded(tmp_path / "engine", mmap_index=True)

    def test_mmap_with_database_rejected(self, array_engine, database, tmp_path):
        save_engine_sharded(array_engine, tmp_path / "engine")
        with pytest.raises(ValidationError):
            load_engine_sharded(
                tmp_path / "engine", database, mmap_index=True
            )

    def test_maintenance_recompacts_arrays(self, database, queries):
        matrices = list(database)
        engine = IMGRNEngine(_database_of(matrices[:-1]), _config())
        engine.build()
        before = engine.array_index.fingerprint()

        engine.add_matrix(matrices[-1])
        engine.array_index.check_invariants()
        assert engine.array_index.fingerprint() != before

        # After maintenance the index is the one a fresh build over the
        # same matrices packs, and it answers the same.
        fresh = IMGRNEngine(_database_of(matrices), _config())
        fresh.build()
        assert engine.array_index.fingerprint() == fresh.array_index.fingerprint()
        assert _answers(engine, queries) == _answers(fresh, queries)

        engine.remove_matrix(matrices[-1].source_id)
        engine.array_index.check_invariants()
        assert engine.array_index.fingerprint() == before

    @pytest.mark.parametrize(
        "script",
        [
            [("remove", 0)],
            [("remove", 4), ("add", 6), ("remove", 6)],
            [("add", 7), ("remove", 2), ("add", 6), ("remove", 5), ("add", 8)],
            [("remove", s) for s in range(6)] + [("add", 8), ("add", 6)],
        ],
        ids=["one-remove", "add-remove", "interleaved", "empty-then-refill"],
    )
    def test_mutation_sequences_match_fresh_build(self, database, script):
        """Any add/remove sequence packs the index of a fresh build.

        The engine starts over sources 0-5; sources 6-8 arrive later. The
        fresh build runs over the surviving sources in the order the
        engine retains them (build order, then arrival order).
        """
        matrices = {m.source_id: m for m in database}
        engine = IMGRNEngine(_database_of(list(database)[:6]), _config())
        engine.build()
        alive = list(range(6))
        for action, source in script:
            if action == "remove":
                engine.remove_matrix(source)
                alive.remove(source)
            else:
                engine.add_matrix(matrices[source])
                alive.append(source)
            engine.array_index.check_invariants()
            if not alive:
                assert engine.array_index.num_entries == 0
                continue
            fresh = IMGRNEngine(_database_of(matrices[s] for s in alive), _config())
            fresh.build()
            assert engine.array_index.fingerprint() == (
                fresh.array_index.fingerprint()
            )
