"""Core IM-GRN machinery: inference, pruning, embedding, query processing.

All four engines (:class:`~repro.core.query.IMGRNEngine`,
:class:`~repro.core.baseline.BaselineEngine`,
:class:`~repro.core.baseline.LinearScanEngine`,
:class:`~repro.core.measure_engine.MeasureScanEngine`) conform to the
:class:`QueryEngine` protocol below: ``build()`` once, then
``execute(QuerySpec(...))`` any number of times, always returning an
:class:`~repro.core.query.IMGRNResult`. The typed
:class:`~repro.core.spec.QuerySpec` names the workload kind
(``containment``, ``topk`` or ``similarity``) and validates its
parameters eagerly; ``query()`` / ``query_topk()`` remain as thin
keyword-only conveniences over ``execute()``.
"""

from typing import Protocol, runtime_checkable

from ..data.matrix import GeneFeatureMatrix
from .batch_inference import (
    BatchInferenceEngine,
    EdgeProbabilityCache,
    standardize_columns,
)
from .inference import EdgeProbabilityEstimator, edge_probability, infer_grn
from .matching import Embedding, find_embeddings, matches
from .probgraph import ProbabilisticGraph, edge_key
from .query import IMGRNAnswer, IMGRNEngine, IMGRNResult
from .refine import (
    BatchEdgeEvaluator,
    CandidateRefiner,
    RefinedAnswer,
    ScalarEdgeEvaluator,
    SourceColumns,
)
from .spec import KINDS, QuerySpec, validate_query_params

__all__ = [
    "QueryEngine",
    "BatchInferenceEngine",
    "EdgeProbabilityCache",
    "standardize_columns",
    "EdgeProbabilityEstimator",
    "edge_probability",
    "infer_grn",
    "Embedding",
    "find_embeddings",
    "matches",
    "ProbabilisticGraph",
    "edge_key",
    "IMGRNAnswer",
    "IMGRNEngine",
    "IMGRNResult",
    "BatchEdgeEvaluator",
    "CandidateRefiner",
    "RefinedAnswer",
    "ScalarEdgeEvaluator",
    "SourceColumns",
    "KINDS",
    "QuerySpec",
    "validate_query_params",
]


@runtime_checkable
class QueryEngine(Protocol):
    """The unified engine contract.

    Every engine exposes exactly this surface; downstream code (the CLI,
    the serving stack, the evaluation harness, the ad-hoc framework)
    programs against it and stays agnostic of which retrieval strategy is
    behind it.

    :meth:`execute` is the primary entry point: one typed
    :class:`~repro.core.spec.QuerySpec` in, one
    :class:`~repro.core.query.IMGRNResult` out, for every workload kind.
    :meth:`query` is the containment convenience with keyword-only
    thresholds; the historical positional form completed its deprecation
    cycle and raises :class:`TypeError`.
    """

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        ...

    def build(self) -> float:
        """Prepare the engine; returns wall-clock build seconds."""
        ...

    def query(
        self,
        query_matrix: GeneFeatureMatrix,
        *,
        gamma: float,
        alpha: float,
    ) -> IMGRNResult:
        """Answer a Definition-4 containment query."""
        ...

    def execute(self, spec: QuerySpec) -> IMGRNResult:
        """Answer one typed workload (containment / topk / similarity)."""
        ...
