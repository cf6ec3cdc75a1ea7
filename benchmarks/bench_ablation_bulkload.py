"""Ablation: STR bulk packing vs one-at-a-time R* insertion.

The engine packs its index with one vectorized Sort-Tile-Recursive pass
(``ArrayStore.pack``); the paper inserts every point with the full R*
algorithm. Both modes index the same embedded points: ``insert``
re-indexes a built engine's points through the reference
:class:`~repro.index.rstartree.RStarTree` and queries its compaction.
Packing should build several times faster with equal answers; query-time
node quality (I/O) may differ because STR tiles by coordinate order
instead of optimizing overlap.
"""

from __future__ import annotations

import time

import pytest

from conftest import scaled, write_table
from repro.config import EngineConfig, SyntheticConfig
from repro.core.query import IMGRNEngine
from repro.data.queries import generate_query_workload
from repro.data.synthetic import generate_database
from repro.eval.counters import aggregate_stats
from repro.eval.experiments import ExperimentResult, rstar_reference_index
from repro.eval.reporting import format_table

GAMMA = ALPHA = 0.5


@pytest.fixture(scope="module")
def setup(bench_seed):
    database = generate_database(
        SyntheticConfig(weights="uni", seed=bench_seed), scaled(150)
    )
    queries = generate_query_workload(database, n_q=5, count=5, rng=bench_seed)
    return database, queries


def _build(database, seed: int, mode: str) -> tuple[IMGRNEngine, float]:
    """A built engine indexed by ``mode``, and that mode's build seconds.

    ``insert`` swaps the pack for R* insertion of the same points: its
    build seconds are the packed build's, less one pack, plus the
    insertion time.
    """
    engine = IMGRNEngine(database, EngineConfig(seed=seed))
    seconds = engine.build()
    if mode == "insert":
        started = time.perf_counter()
        engine._repack()
        seconds -= time.perf_counter() - started
        store, pages, insert_seconds = rstar_reference_index(engine)
        seconds += insert_seconds
        engine.array_index, engine.pages = store, pages
    return engine, seconds


@pytest.mark.parametrize("mode", ["insert", "str_bulk"])
def test_build_speed(benchmark, setup, mode, bench_seed):
    database, _queries = setup
    engine, _seconds = benchmark.pedantic(
        _build, args=(database, bench_seed, mode), rounds=1, iterations=1
    )
    assert engine.is_built


def test_ablation_bulkload_series(benchmark, setup, bench_seed):
    database, queries = setup

    def sweep():
        result = ExperimentResult(name="ablation_bulkload", x_label="mode")
        answers = {}
        for mode in ("insert", "str_bulk"):
            engine, seconds = _build(database, bench_seed, mode)
            results = [engine.query(q, gamma=GAMMA, alpha=ALPHA) for q in queries]
            answers[mode] = [r.answer_sources() for r in results]
            agg = aggregate_stats([r.stats for r in results])
            result.rows.append(
                {
                    "mode": mode,
                    "build_seconds": seconds,
                    "index_pages": float(engine.pages.num_pages),
                    "cpu_seconds": agg["cpu_seconds"],
                    "io_accesses": agg["io_accesses"],
                    "candidates": agg["candidates"],
                }
            )
        return result, answers

    (result, answers) = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table("ablation_bulkload", format_table(result))
    by_mode = {row["mode"]: row for row in result.rows}
    # STR builds strictly (several times) faster...
    assert by_mode["str_bulk"]["build_seconds"] < by_mode["insert"]["build_seconds"]
    # ...stays query-competitive thanks to gene-ID-first tiling (the
    # multi-axis slab tails cost some page utilization, but clustering the
    # traversal's discriminative axis more than compensates in I/O)...
    assert by_mode["str_bulk"]["io_accesses"] <= by_mode["insert"]["io_accesses"] * 1.5
    # ...and never changes the answers.
    assert answers["str_bulk"] == answers["insert"]
