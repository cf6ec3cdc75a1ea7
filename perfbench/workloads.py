"""Inputs, set-up, timed loops and correctness checks of the workloads.

Every input is a pure function of the workload seed. A run draws
``DATABASES`` independent databases from it with
:func:`repro.generate_database`; every engine built over one of them is
one of the set-ups ``setup_s`` takes the median of, and the timed
operations go round-robin over all of them, so one database's index
shape does not decide the run. Queries are cut from each source's inferred GRN by a
randomized BFS (the paper's Section 6.1 protocol, as in
:func:`repro.data.queries.extract_query`). The engine receives only the
generated inputs and runs with its default :class:`repro.EngineConfig`.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

import repro
from repro.core.inference import EdgeProbabilityEstimator
from repro.core.spec import QuerySpec
from repro.data.database import GeneFeatureDatabase
from repro.obs import NOOP_TRACER

from tracing import Recorder, Span, engine_spans, root_of, self_times

KINDS = ("containment", "similarity", "topk")
#: Databases drawn per run.
DATABASES = 3
#: Queries checked against LinearScanEngine per run (outside the timed loop).
CHECKED = 30
#: Sources per database that queries are cut from.
QUERY_SOURCES = 24


@dataclass(frozen=True)
class Shape:
    """One synthetic database shape and its query parameters."""

    n: int
    genes: tuple[int, int]
    pool: int
    samples: tuple[int, int]
    n_q: int
    gamma: float
    alpha: float
    #: Per-kind floor on the share of queries that return an answer.
    yield_floor: tuple[tuple[str, float], ...]
    #: Queries per session: each session builds a fresh engine, so every
    #: one starts from cold caches. 0 builds one engine per database for
    #: the whole run.
    session: int = 0

    def synthetic(self, seed: int, d: int) -> repro.SyntheticConfig:
        """Data of the run's ``d``-th database, from its own stream."""
        return repro.SyntheticConfig(
            weights="uni",
            genes_range=self.genes,
            samples_range=self.samples,
            gene_pool=self.pool,
            seed=seed * DATABASES + d,
        )

    def databases(self, seed: int) -> list[GeneFeatureDatabase]:
        return [
            repro.generate_database(self.synthetic(seed, d), self.n)
            for d in range(DATABASES)
        ]

    def spec(self, matrix, kind: str) -> QuerySpec:
        if kind == "topk":
            return QuerySpec(matrix, self.gamma, kind="topk", k=5)
        if kind == "similarity":
            return QuerySpec(
                matrix, self.gamma, self.alpha, kind="similarity", edge_budget=1
            )
        return QuerySpec(matrix, self.gamma, self.alpha)


# Table-2 defaults, resized from N=200 so that three builds fit in one run.
SPARSE = Shape(
    n=64,
    genes=(50, 100),
    pool=600,
    samples=(12, 24),
    n_q=4,
    gamma=0.5,
    alpha=0.2,
    yield_floor=(("containment", 0.5), ("similarity", 0.5), ("topk", 0.9)),
)
DENSE = Shape(
    n=48,
    genes=(24, 28),
    pool=32,
    samples=(36, 48),
    n_q=6,
    gamma=0.3,
    alpha=0.01,
    yield_floor=(("containment", 0.25), ("similarity", 0.4), ("topk", 0.9)),
    # The edge-probability cache of a long-lived engine fills within about
    # 1500 queries here, and each hit saves work a cold query spends on
    # Monte-Carlo inference; a run of sessions keeps that share the same
    # in every run instead of letting it follow the host's speed.
    session=48,
)


class QuerySource:
    """Draws connected ``n_Q``-gene query matrices from given sources.

    Each source's inferred GRN at ``gamma`` is computed once; every query
    is then a randomized BFS over it, so thousands of fresh queries cost
    little more than one GRN per source.
    """

    def __init__(self, shape: Shape, seed: int, stream: int):
        self.shape = shape
        self.rng = np.random.default_rng((seed, stream))
        self._estimator = EdgeProbabilityEstimator()
        self._adjacency: dict[int, list[list[int]]] = {}

    def graph(self, matrix) -> list[list[int]]:
        """Adjacency lists of ``matrix``'s inferred GRN (computed once)."""
        graph = self._adjacency.get(matrix.source_id)
        if graph is None:
            scores = self._estimator.probability_matrix(matrix.values)
            above = np.triu(scores > self.shape.gamma, k=1)
            above |= above.T
            graph = [np.flatnonzero(row).tolist() for row in above]
            self._adjacency[matrix.source_id] = graph
        return graph

    def draw(self, matrix):
        """One connected query cut from ``matrix``, or ``None``."""
        graph = self.graph(matrix)
        n_q = self.shape.n_q
        for start in self.rng.permutation(len(graph))[:8].tolist():
            chosen, seen, frontier = [start], {start}, [start]
            while frontier and len(chosen) < n_q:
                nxt = []
                for vertex in frontier:
                    for neighbor in self.rng.permutation(graph[vertex]).tolist():
                        if len(chosen) < n_q and neighbor not in seen:
                            seen.add(neighbor)
                            chosen.append(neighbor)
                            nxt.append(neighbor)
                frontier = nxt
            if len(chosen) == n_q:
                return matrix.submatrix([matrix.gene_ids[i] for i in sorted(chosen)])
        return None

    def spec(self, matrices: list, kind: str) -> QuerySpec:
        """A query of ``kind`` cut from a random one of ``matrices``."""
        query = None
        while query is None:
            query = self.draw(matrices[int(self.rng.integers(len(matrices)))])
        return self.shape.spec(query, kind)


def query_stream(
    shape: Shape, seed: int, databases, count: int
) -> list[tuple[int, QuerySpec]]:
    """``count`` (database index, query) pairs; databases and kinds rotate."""
    sources = [QuerySource(shape, seed, d) for d in range(len(databases))]
    # Queries come from a seeded subset of each database's sources, which
    # bounds the GRN inference spent on making inputs.
    matrices = []
    for src, db in zip(sources, databases):
        chosen = set(src.rng.permutation(shape.n)[:QUERY_SOURCES].tolist())
        matrices.append([m for m in db if m.source_id in chosen])
    stream = []
    for i in range(count):
        d = i % len(databases)
        kind = KINDS[(i // len(databases)) % len(KINDS)]
        stream.append((d, sources[d].spec(matrices[d], kind)))
    return stream


def engine_config(traced: bool) -> repro.EngineConfig:
    return repro.EngineConfig(observability=repro.ObservabilityConfig(tracing=traced))


def answers_of(result) -> list[tuple[int, float]]:
    return [(a.source_id, a.probability) for a in result.answers]


def build_engines(databases, recorder: Recorder | None):
    """Build one engine per database; returns (engines, seconds, spans).

    With a recorder, the engines record spans and the builds are traced.
    """
    engines, seconds, spans = [], [], []
    if recorder is not None:
        recorder.switch(True)
    for database in databases:
        engine = repro.IMGRNEngine(database, engine_config(recorder is not None))
        started = time.perf_counter()
        engine.build()
        ended = time.perf_counter()
        engines.append(engine)
        seconds.append(ended - started)
        if recorder is not None:
            recorder.spans.append(
                Span("bench.setup", started, ended, threading.get_ident())
            )
            spans.extend(engine_spans(engine.obs.tracer))
            engine.obs.tracer.reset()
    if recorder is not None:
        recorder.switch(False)
    return engines, seconds, spans


class Tracing:
    """Turns wrappers and the engines' tracers on or off per operation."""

    def __init__(self, recorder: Recorder | None, engines):
        self.recorder = recorder
        self.engines = engines
        self.tracers = [engine.obs.tracer for engine in engines]

    def set(self, traced: bool) -> None:
        if self.recorder is None:
            return
        self.recorder.switch(traced)
        for engine, tracer in zip(self.engines, self.tracers):
            engine.obs.tracer = tracer if traced else NOOP_TRACER

    def finish(self) -> list[Span]:
        """Restore every engine's tracer; returns the spans they recorded."""
        for engine, tracer in zip(self.engines, self.tracers):
            engine.obs.tracer = tracer
        if self.recorder is not None:
            self.recorder.switch(False)
        return [s for tracer in self.tracers for s in engine_spans(tracer)]


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def counter(delta: dict, name: str, stages: tuple[str, ...] | None = None) -> float:
    """Sum a labelled counter in a per-query metrics delta."""
    total = 0.0
    for key, value in delta.items():
        if key == name or key.startswith(name + "{"):
            if stages is None or any(f'stage="{s}"' in key for s in stages):
                total += value
    return total


def tally(spans: list[Span], root: str) -> list[tuple[Span, dict[str, float]]]:
    """Per ``root`` span: seconds spent in each named descendant.

    A span nested in a span of the same name (a recursive entry point) is
    not counted twice.
    """
    roots: dict[int, tuple[Span, dict[str, float]]] = {}
    for span in spans:
        top = root_of(span, root)
        if top is None:
            continue
        entry = roots.setdefault(id(top), (top, {}))
        if span.parent is not None and span.parent.name == span.name:
            continue
        entry[1][span.name] = entry[1].get(span.name, 0.0) + span.seconds
    return sorted(roots.values(), key=lambda e: e[0].start)


def median_of(rows: list[dict[str, float]], name: str, scale: float = 1.0) -> float:
    if not rows:
        return 0.0
    return statistics.median(r.get(name, 0.0) for r in rows) * scale


def yield_guard(shape: Shape, records: list[dict]) -> list[str]:
    """Per-kind answer-yield floors; returns a message per breach."""
    problems = []
    for kind, floor in shape.yield_floor:
        of_kind = [r for r in records if r["kind"] == kind]
        if not of_kind:
            problems.append(f"no {kind} queries ran")
            continue
        share = sum(1 for r in of_kind if r["answers"]) / len(of_kind)
        if share < floor:
            problems.append(
                f"{kind}: {share:.2f} of queries answered, floor {floor:.2f}"
            )
    return problems


def check_sample(records: list[dict], count: int) -> list[dict]:
    """Up to ``count`` records spread evenly over the run."""
    if len(records) <= count:
        return records
    step = len(records) / count
    return [records[int(i * step)] for i in range(count)]


def linear_check(database, checked: list[dict]) -> tuple[int, list[float]]:
    """Compare answers with LinearScanEngine; returns (mismatches, ms)."""
    scan = repro.LinearScanEngine(database, engine_config(False))
    scan.build()
    mismatches, times = 0, []
    for record in checked:
        started = time.perf_counter()
        result = scan.execute(record["spec"])
        times.append((time.perf_counter() - started) * 1e3)
        if answers_of(result) != record["answers"]:
            mismatches += 1
    return mismatches, times


def query_layers(spans: list[Span], records: list[dict], cache_delta) -> dict:
    """Per-query layer metrics from traced query spans and counters."""
    rows = []
    for top, sums in tally(spans, "query"):
        sums = dict(sums)
        sums["self"] = top.self_s
        rows.append(sums)
    pairs = [s.attrs.get("pairs", 0) for s in spans if s.name == "query.infer.estimate"]
    traced = [r for r in records if r["traced"]]
    deltas = [r["delta"] for r in traced]
    sources = sum(counter(d, "refine.sources") for d in deltas)
    edges = sum(counter(d, "refine.edges_evaluated") for d in deltas)
    memo = sum(counter(d, "refine.memo_hits") for d in deltas)
    screened = sum(counter(d, "refine.prescreened") for d in deltas)
    answers = sum(len(r["answers"]) for r in traced)
    hits, misses = cache_delta

    def per_query(name, stages=None):
        return statistics.median(counter(d, name, stages) for d in deltas)

    return {
        "query.self_ms": median_of(rows, "self", 1e3),
        "infer.ms": median_of(rows, "query.infer", 1e3),
        "infer.pairs_estimated": statistics.median(pairs) if pairs else 0.0,
        "inference.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "traverse.ms": median_of(rows, "query.traverse", 1e3),
        "index.pages_per_query": per_query("query.io_accesses"),
        "index.candidates_per_query": per_query("query.candidates"),
        "filter.ms": median_of(rows, "query.filter", 1e3),
        "filter.pruned_pairs_per_query": per_query(
            "query.pruned_pairs", ("lemma5", "missing_edge")
        ),
        "refine.ms": median_of(rows, "query.refine", 1e3),
        "refine.sources_per_query": per_query("refine.sources"),
        "refine.edges_evaluated_per_query": per_query("refine.edges_evaluated"),
        "refine.memo_hit_ratio": memo / (memo + edges) if memo + edges else 0.0,
        "refine.prescreen_ratio": screened / sources if sources else 0.0,
        "refine.answer_yield": answers / sources if sources else 0.0,
    }


def build_layers(spans: list[Span]) -> dict:
    """Per-build stage seconds (medians over the run's set-ups)."""
    rows = [sums for _top, sums in tally(spans, "bench.setup")]
    return {
        "build.embed_s": median_of(rows, "build.shard"),
        "build.index_insert_s": median_of(rows, "build.index_insert"),
        "build.compact_s": median_of(rows, "ArrayStore.from_tree"),
        "build.inverted_file_s": median_of(rows, "build.inverted_file"),
    }


def ingest_layers(spans: list[Span]) -> dict:
    """Per-mutation stage milliseconds of add_matrix / remove_matrix."""
    adds = tally(spans, "build.add_matrix")
    removes = tally(spans, "build.remove_matrix")
    add_rows = [sums for _top, sums in adds]
    remove_rows = [sums for _top, sums in removes]
    return {
        "ingest.add_ms": statistics.median(t.seconds for t, _ in adds) * 1e3,
        "ingest.remove_ms": statistics.median(t.seconds for t, _ in removes) * 1e3,
        "ingest.embed_ms": median_of(
            add_rows, "parallel_build.embed_with_padding", 1e3
        ),
        "ingest.tree_insert_ms": median_of(add_rows, "RStarTree.insert", 1e3),
        "ingest.tree_delete_ms": median_of(remove_rows, "RStarTree.delete", 1e3),
        "ingest.recompact_ms": median_of(
            add_rows + remove_rows, "ArrayStore.from_tree", 1e3
        ),
    }


@dataclass
class Probe:
    """What a traced run hands on for probing the layers it did not reach."""

    shape: Shape
    seed: int
    #: A built, in-process engine over the run's first database.
    engine: repro.IMGRNEngine
    #: Queries for that database.
    specs: list[QuerySpec]


def cache_counts(engines) -> tuple[float, float]:
    stats = [engine.inference_stats() for engine in engines]
    return (
        sum(s["cache_hits"] for s in stats),
        sum(s["cache_misses"] for s in stats),
    )


def overhead_ratio(records: list[dict]) -> float:
    traced = [r["ms"] for r in records if r["traced"]]
    plain = [r["ms"] for r in records if not r["traced"]]
    return statistics.median(traced) / statistics.median(plain)


def linear_checks(databases, records: list[dict]):
    """LinearScanEngine on a sample of records; returns (checked, bad, ms)."""
    checked = check_sample(records, CHECKED)
    mismatches, linear_ms = 0, []
    for d, database in enumerate(databases):
        bad, ms = linear_check(database, [r for r in checked if r["db"] == d])
        mismatches += bad
        linear_ms += ms
    return checked, mismatches, linear_ms


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class QueryRun:
    """Closed-loop queries of one run, over one or more sessions.

    One caller sends the next query when the previous one returns. With
    tracing, even-numbered queries run traced and odd-numbered ones
    untraced, so the tracing overhead is measured on the same stream.
    """

    def __init__(self, recorder: Recorder | None):
        self.recorder = recorder
        self.records: list[dict] = []
        self.failed = 0
        self.setups: list[float] = []
        self.spans: list[Span] = []
        self.cache = [0.0, 0.0]
        self.loop_seconds = 0.0
        #: The first engine built over database 0, for the traced probes.
        self.first = None

    def session(self, databases: dict, specs, seconds: float | None) -> None:
        """Build engines over ``databases`` ({index: database}) and send
        them ``specs`` ((index, spec) pairs), for at most ``seconds`` after
        the builds if that is given."""
        built, setups, spans = build_engines(list(databases.values()), self.recorder)
        engines = dict(zip(databases, built))
        self.setups += setups
        self.spans += spans
        if self.first is None:
            self.first = engines.get(0)
        tracing = Tracing(self.recorder, built)
        hits0 = cache_counts(built)
        started = time.perf_counter()
        deadline = started + seconds if seconds is not None else None
        for d, spec in specs:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            traced = self.recorder is not None and self.sent % 2 == 0
            tracing.set(traced)
            t0 = time.perf_counter()
            try:
                result = engines[d].execute(spec)
            except repro.ReproError:
                self.failed += 1
                continue
            self.records.append(
                {
                    "db": d,
                    "spec": spec,
                    "kind": spec.kind,
                    "ms": (time.perf_counter() - t0) * 1e3,
                    "answers": answers_of(result),
                    "traced": traced,
                    "delta": result.metrics if traced else None,
                }
            )
        self.loop_seconds += time.perf_counter() - started
        hits1 = cache_counts(built)
        self.cache[0] += hits1[0] - hits0[0]
        self.cache[1] += hits1[1] - hits0[1]
        self.spans += tracing.finish()

    @property
    def sent(self) -> int:
        return len(self.records) + self.failed


def query_workload(
    shape: Shape, seed: int, seconds: float, recorder: Recorder | None
) -> dict:
    """sparse-paper / dense-refine: in-process closed-loop queries.

    With ``shape.session`` set, the run is a series of whole sessions that
    visit the databases in turn, each answering the next ``shape.session``
    queries of its database; a session that starts before the deadline
    runs to its end. Otherwise one engine per database answers the
    rotating stream until the deadline.
    """
    databases = shape.databases(seed)
    # Enough fresh queries that the loop does not wrap at today's speed.
    stream = query_stream(shape, seed, databases, 12000)
    run = QueryRun(recorder)
    if shape.session:
        pools = [[q for q in stream if q[0] == d] for d in range(len(databases))]
        deadline = time.perf_counter() + seconds
        count = 0
        while time.perf_counter() < deadline:
            d, turn = count % len(databases), count // len(databases)
            first = turn * shape.session % len(pools[d])
            run.session(
                {d: databases[d]}, pools[d][first : first + shape.session], None
            )
            count += 1
    else:
        run.session(dict(enumerate(databases)), itertools.cycle(stream), seconds)
    records = run.records
    checked, mismatches, linear_ms = linear_checks(databases, records)
    problems = yield_guard(shape, records)
    if mismatches:
        problems.append(f"{mismatches} answers differ from LinearScanEngine")
    latencies = [r["ms"] for r in records]
    out = {
        "e2e": {
            "setup_s": statistics.median(run.setups),
            "latency_p50_ms": quantile(latencies, 0.5),
            "latency_p90_ms": quantile(latencies, 0.9),
            "throughput_per_s": len(records) / run.loop_seconds,
        },
        "attempted": run.sent + len(checked),
        "failed": run.failed + mismatches,
        "problems": problems,
    }
    if recorder is not None:
        spans = self_times(run.spans + recorder.spans)
        out["spans"] = spans
        out["layers"] = {
            **query_layers(spans, records, run.cache),
            **build_layers(spans),
            "trace.overhead_ratio": overhead_ratio(records),
            "reference.linear_scan_ms": statistics.median(linear_ms),
        }
        first = [spec for d, spec in stream[:300] if d == 0]
        out["probe"] = Probe(shape, seed, run.first, first)
    return out
