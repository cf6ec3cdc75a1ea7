"""Figure 13: index construction time vs [n_min, n_max] and vs N.

The paper's shape: build time grows with both the genes-per-matrix range
(more points to embed + insert) and the number of matrices. The engine
packs its index with STR; the series also times the paper's
one-at-a-time R* insertion of the same embedded points
(``rstar_insert_seconds``) next to the pack alone (``pack_seconds``).
"""

from __future__ import annotations

import pytest

from conftest import scaled, write_table
from repro.config import BuildConfig, EngineConfig, SyntheticConfig
from repro.core.query import IMGRNEngine
from repro.data.synthetic import generate_database
from repro.eval.experiments import ExperimentResult, index_build_row
from repro.eval.reporting import format_table

RANGES = ((10, 20), (20, 50), (50, 100))
SIZES = (50, 100, 200)


@pytest.fixture(scope="module")
def databases(bench_seed):
    built = {}
    for weights in ("uni", "gau"):
        for genes_range in RANGES:
            key = (weights, "range", genes_range)
            built[key] = generate_database(
                SyntheticConfig(
                    weights=weights, genes_range=genes_range, seed=bench_seed
                ),
                scaled(100),
            )
        for n in SIZES:
            key = (weights, "N", n)
            built[key] = generate_database(
                SyntheticConfig(weights=weights, seed=bench_seed), scaled(n)
            )
    return built


@pytest.mark.parametrize("genes_range", RANGES)
def test_build_speed_vs_matrix_width(benchmark, databases, genes_range, bench_seed):
    database = databases[("uni", "range", genes_range)]

    def build():
        engine = IMGRNEngine(database, EngineConfig(seed=bench_seed))
        engine.build()
        return engine

    engine = benchmark.pedantic(build, rounds=1, iterations=1)
    assert engine.is_built


@pytest.mark.parametrize("workers", (0, 2, 4))
def test_build_speed_vs_workers(benchmark, databases, workers, bench_seed):
    """Tentpole sweep: parallel sharded build vs the serial reference."""
    database = databases[("uni", "range", RANGES[-1])]
    config = EngineConfig(
        seed=bench_seed,
        build=BuildConfig(workers=workers, shard_size=8),
    )

    def build():
        engine = IMGRNEngine(database, config)
        engine.build()
        return engine

    engine = benchmark.pedantic(build, rounds=1, iterations=1)
    assert engine.is_built


def test_figure13_workers_series(benchmark, databases, bench_seed):
    """Build-time series across worker counts (written for EXPERIMENTS.md)."""
    database = databases[("uni", "range", RANGES[-1])]

    def sweep():
        result = ExperimentResult(name="fig13_parallel_build", x_label="workers")
        serial_seconds = None
        for workers in (0, 2, 4):
            engine = IMGRNEngine(
                database,
                EngineConfig(
                    seed=bench_seed,
                    build=BuildConfig(workers=workers, shard_size=8),
                ),
            )
            seconds = engine.build()
            if serial_seconds is None:
                serial_seconds = seconds
            result.rows.append(
                {
                    "workers": float(workers),
                    "build_seconds": seconds,
                    "speedup": serial_seconds / seconds if seconds else 0.0,
                }
            )
        return result

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table("fig13_parallel_build", format_table(result))
    assert all(row["build_seconds"] > 0 for row in result.rows)


def test_figure13_series(benchmark, databases, bench_seed):
    def sweep():
        result = ExperimentResult(name="fig13_index_build", x_label="sweep")
        for weights in ("uni", "gau"):
            for genes_range in RANGES:
                result.rows.append(
                    index_build_row(
                        databases[(weights, "range", genes_range)],
                        bench_seed,
                        weights,
                        f"range[{genes_range[0]},{genes_range[1]}]",
                    )
                )
            for n in SIZES:
                result.rows.append(
                    index_build_row(
                        databases[(weights, "N", n)],
                        bench_seed,
                        weights,
                        f"N={scaled(n)}",
                    )
                )
        return result

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table("fig13_index_build", format_table(result))
    for weights in ("uni", "gau"):
        ranges = [
            r for r in result.rows
            if r["dataset"] == weights and str(r["sweep"]).startswith("range")
        ]
        sizes = [
            r for r in result.rows
            if r["dataset"] == weights and str(r["sweep"]).startswith("N=")
        ]
        assert ranges[-1]["build_seconds"] > ranges[0]["build_seconds"]
        assert sizes[-1]["build_seconds"] > sizes[0]["build_seconds"]
