"""Unified batched candidate refinement shared by the query engines.

Refinement is the last stage of the Fig.-4 pipeline: every candidate
that survived index pruning has its query edges verified with exact
Monte-Carlo probabilities (Definition 4). Historically each engine
carried its own copy of the per-pair loop -- containment, similarity and
top-k variants -- estimating one edge at a time through
``pair_probability`` and ignoring the batched estimator.

:class:`CandidateRefiner` centralizes the stage:

* **batched evaluation** -- a candidate's surviving (source, query-edge)
  pairs are estimated through
  :meth:`~repro.core.batch_inference.BatchInferenceEngine.pair_block_probabilities`
  (one permutation block per distinct target column serves all of its
  partner edges) instead of one scalar call per edge;
* **query-scoped memoization** -- per-``(source, edge)`` probabilities
  live in one table shared by every kind's decision loop, so top-k's
  bound-ordered revisits and similarity's budget accounting never
  recompute an edge;
* **cheapest-upper-bound-first ordering with sound prescreens** --
  Markov upper bounds (seeded from the traversal's anchor-edge bounds
  where available) order edge estimation so the early exits
  (``p <= gamma``, product ``<= alpha``, k-th best) fire on the fewest
  estimations, and candidates whose bounds alone already decide the
  replay are discarded without touching the estimator at all.

Bit-identity contract: whatever the strategy, answers are decided by
replaying the historical per-pair loop over the memoized probabilities
in sorted query-edge order -- the same multiplication order and the same
comparisons -- so answers, probabilities and the ``query.*`` pruning
counters are identical across strategies and engines. All probability
factors lie in ``[0, 1]``, so partial products are monotone
non-increasing; a bound-based discard therefore only ever removes a
candidate whose replay must fail (``refine.*`` diagnostics are
strategy-dependent by design; see ``docs/observability.md``).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import RefineConfig
from ..obs import MetricsRegistry
from ..obs import names as _names
from .batch_inference import standardize_columns
from .matching import Embedding
from .probgraph import ProbabilisticGraph
from .pruning import (
    markov_edge_upper_bound,
    relaxed_graph_existence_upper_bound,
)
from .randomization import column_jensen_terms

__all__ = [
    "BatchEdgeEvaluator",
    "CandidateRefiner",
    "RefinedAnswer",
    "ScalarEdgeEvaluator",
    "SourceColumns",
]

#: A query edge as its canonical sorted (gene, gene) key.
EdgeKey = tuple[int, int]


@dataclass(frozen=True)
class RefinedAnswer:
    """One refined candidate: the forced-mapping embedding plus ``Pr{G}``.

    Engines convert these into their public answer type
    (:class:`repro.core.query.IMGRNAnswer`); keeping the refinement
    result engine-neutral is what lets one layer serve all of them.
    """

    source_id: int
    embedding: Embedding
    probability: float


class SourceColumns:
    """One source's standardized columns and their per-column terms.

    An engine builds one per source when it indexes the source and keeps
    it for its lifetime, so queries read these bytes instead of
    re-standardizing candidates:

    * ``std`` -- :func:`~repro.core.batch_inference.standardize_columns`
      of the raw values, byte-identical to what ``pair_probability``
      applies to each vector, so batched probabilities and their
      content-seeded cache keys equal the scalar calls exactly;
    * ``seeds`` -- a ``{column: content_seed}`` memo that
      :meth:`~repro.core.batch_inference.BatchInferenceEngine.pair_block_probabilities`
      fills, so each column is hashed once per engine;
    * the per-column Jensen terms behind :meth:`expected_distance`,
      computed on first use.

    Concurrent queries may fill the memos at once; every value is a pure
    function of ``std``, so a race only repeats work.
    """

    __slots__ = ("matrix", "std", "seeds", "_terms")

    def __init__(self, matrix) -> None:
        self.matrix = matrix
        self.std = standardize_columns(matrix.values)
        self.seeds: dict[int, int] = {}
        self._terms: tuple[np.ndarray, np.ndarray] | None = None

    def expected_distance(self, t: int, s: int) -> float:
        """``expected_randomized_distance_jensen(std[:, t], std[:, s])``.

        Bit-equal to the scalar call: the same terms
        (:func:`~repro.core.randomization.column_jensen_terms`) combined
        in the same order.
        """
        if self._terms is None:
            self._terms = column_jensen_terms(self.std)
        means, sq_norms = self._terms
        cross = 2.0 * self.std.shape[0] * float(means[t]) * float(means[s])
        return math.sqrt(max(0.0, float(sq_norms[t]) + float(sq_norms[s]) - cross))


class BatchEdgeEvaluator:
    """Edge evaluation against an engine's stored :class:`SourceColumns`.

    ``get_columns`` is the engine's lookup from source ID to the
    :class:`SourceColumns` it built for that source, so refinement never
    standardizes a candidate: ``evaluate`` hands the stored columns and
    their seed memo to the batched estimator, and ``bounds`` derives the
    sound Markov upper bounds (Lemma 4) from the same bytes, keeping
    ordering and prescreen decisions consistent with the values they
    bound.
    """

    supports_bounds = True

    def __init__(
        self,
        inference,
        get_columns: Callable[[int], SourceColumns],
    ) -> None:
        self._inference = inference
        self._get_columns = get_columns

    def matrix(self, source: int):
        return self._get_columns(source).matrix

    def bounds(
        self, source: int, edges: Sequence[EdgeKey]
    ) -> dict[EdgeKey, float]:
        """Markov upper bounds on the edges' existence probabilities."""
        columns = self._get_columns(source)
        matrix = columns.matrix
        std = columns.std
        expected = math.sqrt(2.0 * matrix.num_samples)
        out: dict[EdgeKey, float] = {}
        for u, v in edges:
            cu = matrix.column_index(u)
            cv = matrix.column_index(v)
            distance = float(np.linalg.norm(std[:, cu] - std[:, cv]))
            out[(u, v)] = markov_edge_upper_bound(distance, expected)
        return out

    def evaluate(
        self, source: int, edges: Sequence[EdgeKey]
    ) -> dict[EdgeKey, float]:
        """Exact probabilities for ``edges``, one batched pass."""
        columns = self._get_columns(source)
        matrix = columns.matrix
        pairs = [
            (matrix.column_index(u), matrix.column_index(v)) for u, v in edges
        ]
        block = self._inference.pair_block_probabilities(
            columns.std, pairs, raw=matrix.values, seeds=columns.seeds
        )
        return {edge: block[pair] for edge, pair in zip(edges, pairs)}

    def evaluate_single(self, source: int, edge: EdgeKey) -> float:
        """One scalar ``pair_probability`` call (the historical path)."""
        matrix = self.matrix(source)
        return self._inference.pair_probability(
            matrix.column(edge[0]), matrix.column(edge[1])
        )


class ScalarEdgeEvaluator:
    """Scalar fallback for engines without a batched estimator.

    The measure engine's randomized-measure probabilities have neither a
    block evaluator nor a closed-form sound bound, so this evaluator
    reports ``supports_bounds = False``; the refiner still provides the
    shared memo table and the unified decision replay.
    """

    supports_bounds = False

    def __init__(
        self,
        pair_probability: Callable[[np.ndarray, np.ndarray], float],
        get_matrix: Callable[[int], "object"],
    ) -> None:
        self._pair_probability = pair_probability
        self._get_matrix = get_matrix
        self._matrices: dict[int, object] = {}

    def matrix(self, source: int):
        got = self._matrices.get(source)
        if got is None:
            got = self._matrices[source] = self._get_matrix(source)
        return got

    def bounds(
        self, source: int, edges: Sequence[EdgeKey]
    ) -> dict[EdgeKey, float]:
        raise NotImplementedError("scalar evaluator has no sound bounds")

    def evaluate(
        self, source: int, edges: Sequence[EdgeKey]
    ) -> dict[EdgeKey, float]:
        matrix = self.matrix(source)
        return {
            (u, v): self._pair_probability(matrix.column(u), matrix.column(v))
            for u, v in edges
        }

    def evaluate_single(self, source: int, edge: EdgeKey) -> float:
        matrix = self.matrix(source)
        return self._pair_probability(
            matrix.column(edge[0]), matrix.column(edge[1])
        )


class CandidateRefiner:
    """Query-scoped refinement of surviving candidates.

    One refiner serves one query: its memo table and bound cache are
    keyed by source and shared across every kind-specific entry point
    (:meth:`refine_containment`, :meth:`refine_similarity`,
    :meth:`refine_topk`, :meth:`refine_topk_posthoc`).

    Parameters
    ----------
    query_graph:
        The inferred query GRN; edges are replayed in its sorted key
        order, which is what makes products bit-identical to the
        historical loops.
    gamma:
        Edge-existence threshold of Definition 3.
    evaluator:
        :class:`BatchEdgeEvaluator` or :class:`ScalarEdgeEvaluator`.
    engine:
        Engine label for the ``refine.*`` / ``query.pruned_pairs``
        series.
    config:
        :class:`~repro.config.RefineConfig` strategy knobs.
    metrics:
        The query's private :class:`~repro.obs.MetricsRegistry`.
    tracer:
        The engine's tracer; one ``refine.source`` span per candidate
        that reaches the batched estimator.
    seed_bounds:
        Optional ``{(source, edge): upper bound}`` table reused from the
        index traversal (the leaf-level anchor-edge bounds), so the
        prescreen never recomputes a bound the traversal already paid
        for.
    """

    def __init__(
        self,
        query_graph: ProbabilisticGraph,
        gamma: float,
        evaluator,
        *,
        engine: str,
        config: RefineConfig | None = None,
        metrics: MetricsRegistry,
        tracer=None,
        seed_bounds: dict[tuple[int, EdgeKey], float] | None = None,
    ) -> None:
        self._edges = [key for key, _p in query_graph.edges()]
        self._gene_ids = query_graph.gene_ids
        self._mapping = tuple((g, g) for g in sorted(query_graph.gene_ids))
        self._gamma = gamma
        self._evaluator = evaluator
        self._config = config or RefineConfig()
        self._metrics = metrics
        self._tracer = tracer
        self._engine = engine
        self._memo: dict[tuple[int, EdgeKey], float] = {}
        self._bounds: dict[tuple[int, EdgeKey], float] = dict(seed_bounds or {})
        labels = {"engine": engine, "strategy": self._config.strategy}
        self._sources = metrics.counter(
            _names.REFINE_SOURCES, help="candidates refined", **labels
        )
        self._evaluated = metrics.counter(
            _names.REFINE_EDGES,
            help="edge probabilities estimated during refinement",
            **labels,
        )
        self._memo_hits = metrics.counter(
            _names.REFINE_MEMO_HITS, help="refinement memo-table hits", **labels
        )
        self._prescreened = metrics.counter(
            _names.REFINE_PRESCREENED,
            help="candidates discarded by bounds alone",
            **labels,
        )
        self._batches = metrics.counter(
            _names.REFINE_BATCHES, help="batched estimator calls", **labels
        )

    # -- kind-specific entry points ------------------------------------
    def refine_containment(
        self, sources: Iterable[int], alpha: float
    ) -> list[RefinedAnswer]:
        """Definition-4 containment: no budget, threshold ``alpha``."""
        return self._refine_all(sources, alpha=alpha, budget=0)

    def refine_similarity(
        self, sources: Iterable[int], alpha: float, edge_budget: int
    ) -> list[RefinedAnswer]:
        """Budget-aware similarity; ``edge_budget=0`` is containment."""
        return self._refine_all(sources, alpha=alpha, budget=edge_budget)

    def refine_topk_posthoc(
        self, sources: Iterable[int], k: int
    ) -> list[RefinedAnswer]:
        """Scan-engine top-k: refine everything at ``alpha=0``, sort, cut."""
        answers = self._refine_all(sources, alpha=0.0, budget=0)
        answers.sort(key=lambda a: (-a.probability, a.source_id))
        del answers[k:]
        return answers

    def refine_topk(
        self, survivors: Iterable[tuple[int, float]], k: int
    ) -> list[RefinedAnswer]:
        """Index-aware top-k with a running k-th-best bound.

        Visits candidates in descending Lemma-5 upper-bound order (ties
        by source ID) while a min-heap tracks the ``k`` highest exact
        probabilities so far. Once ``k`` answers exist, a candidate
        whose upper bound is *strictly* below the running k-th best
        cannot reach the top-k and is skipped without touching the raw
        data (pruning stage ``topk_kth_bound``); strictness preserves
        the ``(-probability, source_id)`` tie order, so the answers are
        bit-identical to the first ``k`` of the post-hoc ``alpha=0``
        sort.
        """
        pruned_kth = self._metrics.counter(
            _names.QUERY_PRUNED,
            help="pairs discarded by pruning",
            engine=self._engine,
            stage="topk_kth_bound",
        )
        best: list[float] = []  # min-heap of the k highest probabilities
        answers: list[RefinedAnswer] = []
        for source, upper in sorted(survivors, key=lambda su: (-su[1], su[0])):
            bounded = len(best) >= k
            kth_best = best[0] if bounded else 0.0
            if bounded and upper < kth_best:
                pruned_kth.inc()
                continue
            matched, probability = self._refine_source(
                source, alpha=0.0, budget=0, kth_best=kth_best, bounded=bounded
            )
            if not matched:
                continue
            answers.append(
                RefinedAnswer(
                    source, Embedding(self._mapping, probability), probability
                )
            )
            heapq.heappush(best, probability)
            if len(best) > k:
                heapq.heappop(best)
        answers.sort(key=lambda a: (-a.probability, a.source_id))
        del answers[k:]
        return answers

    # -- shared machinery ----------------------------------------------
    def _refine_all(
        self, sources: Iterable[int], *, alpha: float, budget: int
    ) -> list[RefinedAnswer]:
        answers: list[RefinedAnswer] = []
        for source in sources:
            matched, probability = self._refine_source(
                source, alpha=alpha, budget=budget, kth_best=0.0, bounded=False
            )
            if matched:
                answers.append(
                    RefinedAnswer(
                        source,
                        Embedding(self._mapping, probability),
                        probability,
                    )
                )
        return answers

    def _refine_source(
        self,
        source: int,
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> tuple[bool, float]:
        matrix = self._evaluator.matrix(source)
        if any(gene not in matrix for gene in self._gene_ids):
            return False, 0.0
        self._sources.inc()
        if self._config.strategy == "perpair":
            probe = self._perpair_probe(source)
        else:
            probabilities = self._batched_probabilities(
                source,
                alpha=alpha,
                budget=budget,
                kth_best=kth_best,
                bounded=bounded,
            )
            if probabilities is None:  # bounds alone decided the replay
                return False, 0.0
            probe = probabilities.__getitem__
        return self._decide(
            probe, alpha=alpha, budget=budget, kth_best=kth_best, bounded=bounded
        )

    def _decide(
        self,
        probe: Callable[[EdgeKey], float],
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> tuple[bool, float]:
        """Replay of the per-pair decision loop over ``probe``'s values.

        Multiplication runs in sorted query-edge order regardless of the
        order probabilities were *estimated* in, so matched products are
        bit-identical to the historical loops. Covers all kinds at once:
        containment is ``budget=0``, top-k is ``alpha=0.0`` (a product
        of positives hits ``<= 0`` exactly when it is ``0.0``) plus the
        running k-th-best cut.
        """
        probability = 1.0
        missing = 0
        for edge in self._edges:
            p = probe(edge)
            if p <= self._gamma:  # the edge does not exist in G_i
                missing += 1
                if missing > budget:
                    return False, probability
                continue  # absorbed by the budget; product unchanged
            probability *= p
            if probability <= alpha:
                return False, probability
            if bounded and probability < kth_best:
                return False, probability
        return True, probability

    def _perpair_probe(self, source: int) -> Callable[[EdgeKey], float]:
        def probe(edge: EdgeKey) -> float:
            key = (source, edge)
            p = self._memo.get(key)
            if p is None:
                p = self._evaluator.evaluate_single(source, edge)
                self._memo[key] = p
                self._evaluated.inc()
            else:
                self._memo_hits.inc()
            return p

        return probe

    def _batched_probabilities(
        self,
        source: int,
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> dict[EdgeKey, float] | None:
        """All of ``source``'s edge probabilities, or ``None`` when the
        per-edge upper bounds alone already decide the replay."""
        known: dict[EdgeKey, float] = {}
        needed: list[EdgeKey] = []
        for edge in self._edges:
            p = self._memo.get((source, edge))
            if p is None:
                needed.append(edge)
            else:
                self._memo_hits.inc()
                known[edge] = p
        if not needed:
            return known
        config = self._config
        chunk = config.chunk_size or len(needed)
        bounds: dict[EdgeKey, float] = {}
        use_bounds = self._evaluator.supports_bounds and (
            config.prescreen or chunk < len(needed)
        )
        if use_bounds:
            unseeded = [e for e in needed if (source, e) not in self._bounds]
            if unseeded:
                for edge, bound in self._evaluator.bounds(
                    source, unseeded
                ).items():
                    self._bounds[(source, edge)] = bound
            bounds = {e: self._bounds[(source, e)] for e in needed}
            if config.prescreen and self._prunable(
                {**bounds, **known},
                alpha=alpha,
                budget=budget,
                kth_best=kth_best,
                bounded=bounded,
            ):
                self._prescreened.inc()
                return None
            # Cheapest (smallest) upper bound first: the edges most
            # likely to be missing or to drag the product under alpha
            # are estimated earliest, so the inter-chunk discard fires
            # with the fewest Monte-Carlo estimations spent.
            needed.sort(key=lambda e: (bounds[e], e))
        span = (
            self._tracer.span(
                _names.REFINE_SOURCE_SPAN, source=source, edges=len(needed)
            )
            if self._tracer is not None
            else None
        )
        with span if span is not None else _NULL_SPAN:
            for start in range(0, len(needed), chunk):
                part = needed[start : start + chunk]
                evaluated = self._evaluator.evaluate(source, part)
                self._batches.inc()
                self._evaluated.inc(len(part))
                for edge in part:
                    p = evaluated[edge]
                    self._memo[(source, edge)] = p
                    known[edge] = p
                remaining = needed[start + chunk :]
                if use_bounds and remaining:
                    outlook = {e: bounds[e] for e in remaining}
                    outlook.update(known)
                    if self._prunable(
                        outlook,
                        alpha=alpha,
                        budget=budget,
                        kth_best=kth_best,
                        bounded=bounded,
                    ):
                        self._prescreened.inc()
                        return None
        return known

    def _prunable(
        self,
        upper_bounds: dict[EdgeKey, float],
        *,
        alpha: float,
        budget: int,
        kth_best: float,
        bounded: bool,
    ) -> bool:
        """Sound discard check on per-edge upper bounds.

        ``upper_bounds`` maps every query edge to an upper bound on its
        existence probability (exact memoized values count as their own
        bound). Each condition implies the decision replay must return
        not-matched, so discarding here never changes an answer:

        * more than ``budget`` edges are certainly missing
          (``bound <= gamma`` forces ``p <= gamma``);
        * the budget-relaxed Lemma-5 product over the possibly-present
          edges cannot exceed ``alpha`` (partial products only shrink);
        * (top-k) that product is strictly below the running k-th best.
        """
        missing = 0
        present: list[float] = []
        for bound in upper_bounds.values():
            if bound <= self._gamma:
                missing += 1
            else:
                present.append(bound)
        if missing > budget:
            return True
        relaxed = relaxed_graph_existence_upper_bound(
            present, budget - missing
        )
        if relaxed <= alpha:
            return True
        return bounded and relaxed < kth_best


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()
