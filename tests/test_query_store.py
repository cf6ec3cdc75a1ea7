"""Queries read each source's standardized store and never re-standardize it.

Every engine standardizes a source's columns once, when it indexes the
source (:class:`repro.core.refine.SourceColumns`). The guard under test:
during ``execute()`` of any query kind, the only matrix that passes
through a standardization function is the query's own, on every engine,
on an mmap-loaded IM-GRN engine and on one that went through
``add_matrix``/``remove_matrix``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from conftest import TEST_CONFIG

from repro import IMGRNEngine, LinearScanEngine, QuerySpec
from repro.core.persistence import load_engine_sharded, save_engine_sharded
from repro.data.database import GeneFeatureDatabase

STANDARDIZERS = ("standardize_columns", "standardize_vector", "standardize_matrix")


@pytest.fixture()
def standardized_inputs(monkeypatch) -> list[np.ndarray]:
    """Copies of every array handed to a standardization function.

    Patches each module-level binding of the three functions across the
    loaded ``repro`` modules, so calls through any import path count.
    """
    calls: list[np.ndarray] = []

    def recording(original):
        def wrapper(values, *args, **kwargs):
            calls.append(np.array(values, dtype=np.float64, copy=True))
            return original(values, *args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr in STANDARDIZERS:
            original = module.__dict__.get(attr)
            if callable(original):
                monkeypatch.setattr(module, attr, recording(original))
    return calls


def _specs(queries) -> list[QuerySpec]:
    specs = []
    for query in queries:
        specs.append(QuerySpec(query, 0.5, 0.2))
        specs.append(QuerySpec(query, 0.5, 0.2, kind="similarity", edge_budget=1))
        specs.append(QuerySpec(query, 0.5, kind="topk", k=3))
    return specs


def _refined_sources(result) -> float:
    return sum(v for k, v in result.metrics.items() if k.startswith("refine.sources"))


def _assert_only_queries_standardized(engine, specs, calls) -> float:
    """Run ``specs``; returns the candidates refined, summed over them."""
    refined = 0.0
    for spec in specs:
        calls.clear()
        result = engine.execute(spec)
        refined += _refined_sources(result)
        assert calls, "the query matrix itself is standardized"
        for values in calls:
            assert np.array_equal(values, spec.matrix.values), (
                f"a {values.shape} matrix other than the query was standardized"
            )
    return refined


def test_imgrn_refines_from_store(built_engine, query_workload, standardized_inputs):
    refined = _assert_only_queries_standardized(
        built_engine, _specs(query_workload), standardized_inputs
    )
    assert refined > 0  # candidates did reach refinement


def test_linear_scan_refines_from_store(
    small_database, query_workload, standardized_inputs
):
    engine = LinearScanEngine(small_database, TEST_CONFIG)
    engine.build()
    refined = _assert_only_queries_standardized(
        engine, _specs(query_workload), standardized_inputs
    )
    assert refined > 0


def test_baseline_answers_from_store(
    baseline_engine, query_workload, standardized_inputs
):
    _assert_only_queries_standardized(
        baseline_engine, _specs(query_workload), standardized_inputs
    )


def test_mmap_loaded_engine_refines_from_store(
    built_engine, query_workload, tmp_path, standardized_inputs
):
    save_engine_sharded(built_engine, tmp_path / "engine")
    loaded = load_engine_sharded(tmp_path / "engine", mmap_index=True)
    specs = _specs(query_workload)
    refined = _assert_only_queries_standardized(loaded, specs, standardized_inputs)
    assert refined > 0
    for spec in specs:
        assert [
            (a.source_id, a.probability) for a in loaded.execute(spec).answers
        ] == [(a.source_id, a.probability) for a in built_engine.execute(spec).answers]


def test_mutated_engine_refines_from_store(
    small_database, query_workload, standardized_inputs
):
    matrices = list(small_database)
    engine = IMGRNEngine(GeneFeatureDatabase(matrices[1:]), TEST_CONFIG)
    engine.build()
    engine.add_matrix(matrices[0])
    engine.remove_matrix(matrices[5].source_id)
    assert set(engine._entries) == {m.source_id for m in matrices} - {
        matrices[5].source_id
    }
    refined = _assert_only_queries_standardized(
        engine, _specs(query_workload), standardized_inputs
    )
    assert refined > 0
