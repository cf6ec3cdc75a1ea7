"""Micro-benchmarks of the index substrate.

STR packing, range search and kNN on the packed array index; insert and
delete on the reference R*-tree. Not a paper figure -- operational
visibility into the access method that every IM-GRN query rides on, at
the embedded-space dimensionality (2d+1=5).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.arraystore import ArrayStore
from repro.index.rstartree import RStarTree

DIM = 5
N_POINTS = 2000


@pytest.fixture(scope="module")
def points(bench_seed):
    return np.random.default_rng(bench_seed).uniform(0, 10, size=(N_POINTS, DIM))


def _pack(points) -> ArrayStore:
    rows = np.arange(len(points))
    return ArrayStore.pack(
        points, rows, rows % 50, rows, max_entries=16, bitvector_bits=64
    )


@pytest.fixture(scope="module")
def loaded_store(points):
    return _pack(points)


def test_insert_throughput(benchmark, points):
    def build():
        tree = RStarTree(dim=DIM, max_entries=16)
        for i, point in enumerate(points[:500]):
            tree.insert(point, i, i % 50, i)
        return tree

    tree = benchmark.pedantic(build, rounds=2, iterations=1)
    assert len(tree) == 500


def test_bulk_load_throughput(benchmark, points):
    store = benchmark.pedantic(_pack, args=(points,), rounds=2, iterations=1)
    assert len(store) == N_POINTS


def test_range_search_throughput(benchmark, loaded_store, bench_seed):
    rng = np.random.default_rng(bench_seed + 1)
    lows = rng.uniform(0, 8, size=(50, DIM))

    def run():
        return sum(len(loaded_store.search(low, low + 2.0)) for low in lows)

    total = benchmark(run)
    assert total > 0


def test_knn_throughput(benchmark, loaded_store, bench_seed):
    rng = np.random.default_rng(bench_seed + 2)
    probes = rng.uniform(0, 10, size=(50, DIM))

    def run():
        return sum(len(loaded_store.nearest(p, k=5)) for p in probes)

    total = benchmark(run)
    assert total == 50 * 5


def test_delete_throughput(benchmark, points, bench_seed):
    rng = np.random.default_rng(bench_seed + 3)
    victims = rng.choice(N_POINTS, size=200, replace=False).tolist()

    def run():
        tree = RStarTree(dim=DIM, max_entries=16)
        for i, point in enumerate(points):
            tree.insert(point, i, i % 50, i)
        for payload in victims:
            tree.delete(int(payload))
        return tree

    tree = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(tree) == N_POINTS - 200
    tree.check_invariants()
