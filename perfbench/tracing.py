"""Span recording for the traced benchmark run.

Two span sources feed one timeline:

* the engine's own ``query.*`` / ``build.*`` spans, recorded by the
  :class:`repro.obs.Tracer` an engine gets from
  ``ObservabilityConfig(tracing=True)``;
* wrapper spans this module installs around public entry points of each
  layer (:data:`TARGETS`), timed from outside the program.

Spans stay in memory; :func:`write_chrome_trace` writes them out when the
run ends. :func:`self_times` turns the timeline into per-span self time
(duration minus the part of it that direct children cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass, field

#: (module, class or None, attribute) of every wrapped entry point. A
#: wrapper span is named ``<class or module>.<attribute>``.
TARGETS = (
    ("repro.core.query", "IMGRNEngine", "infer_query_graph"),
    ("repro.core.refine", "CandidateRefiner", "refine_containment"),
    ("repro.core.refine", "CandidateRefiner", "refine_similarity"),
    ("repro.core.refine", "CandidateRefiner", "refine_topk"),
    ("repro.core.batch_inference", "BatchInferenceEngine", "pair_block_probabilities"),
    ("repro.index.arraystore", "ArrayStore", "from_tree"),
    ("repro.index.rstartree", "RStarTree", "insert"),
    ("repro.index.rstartree", "RStarTree", "delete"),
    ("repro.core.parallel_build", None, "embed_with_padding"),
    ("repro.core.persistence", None, "save_engine_sharded"),
    ("repro.core.persistence", None, "load_engine_sharded"),
    ("repro.serve.client", "DaemonClient", "query"),
    ("repro.serve.client", "DaemonClient", "health"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    tid: int
    attrs: dict = field(default_factory=dict)
    self_s: float = 0.0
    parent: "Span | None" = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Wrapper spans, switched on and off per thread.

    While a thread's switch is off, every wrapper calls straight through,
    so the traced run can interleave untraced operations and measure the
    tracing overhead on the same inputs.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @property
    def on(self) -> bool:
        return getattr(self._local, "on", False)

    def switch(self, on: bool) -> None:
        self._local.on = on

    def _wrap(self, name: str, fn):
        spans = self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not getattr(self._local, "on", False):
                return fn(*args, **kwargs)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(Span(name, start, perf(), threading.get_ident()))

        return wrapper

    def install(self) -> None:
        """Patch every target in :data:`TARGETS`; undo with :meth:`uninstall`."""
        for module_name, class_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            span_name = f"{class_name or module_name.rsplit('.', 1)[1]}.{attr}"
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(span_name, original.__func__))
            else:
                patched = self._wrap(span_name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def engine_spans(tracer) -> list[Span]:
    """The spans an engine's :class:`repro.obs.Tracer` recorded."""
    return [
        Span(s.name, s.start, s.end, s.tid, dict(s.attrs))
        for s in getattr(tracer, "spans", ())
    ]


def self_times(spans: list[Span]) -> list[Span]:
    """Link each span to its parent and fill ``self_s``; returns ``spans``.

    Per thread, a span's parent is the innermost earlier span whose
    interval contains it. Self time is the span's duration minus the
    union of its direct children's intervals (children never overlap
    within one thread, so the union is their sum).
    """
    by_thread: dict[int, list[Span]] = {}
    for span in spans:
        by_thread.setdefault(span.tid, []).append(span)
    for lane in by_thread.values():
        lane.sort(key=lambda s: (s.start, -s.end))
        stack: list[Span] = []
        for span in lane:
            while stack and stack[-1].end < span.end:
                stack.pop()
            span.parent = stack[-1] if stack else None
            span.self_s = span.seconds
            if span.parent is not None:
                span.parent.self_s -= span.seconds
            stack.append(span)
    return spans


def root_of(span: Span, name: str) -> Span | None:
    """The nearest ancestor (or ``span`` itself) called ``name``."""
    node: Span | None = span
    while node is not None and node.name != name:
        node = node.parent
    return node


def write_chrome_trace(spans: list[Span], path) -> None:
    """All spans as Chrome ``trace_event`` complete events."""
    if not spans:
        return
    epoch = min(s.start for s in spans)
    lanes: dict[int, int] = {}
    events = [
        {
            "name": s.name,
            "ph": "X",
            "pid": 1,
            "tid": lanes.setdefault(s.tid, len(lanes) + 1),
            "ts": (s.start - epoch) * 1e6,
            "dur": s.seconds * 1e6,
            "args": {
                **{k: str(v) for k, v in s.attrs.items()},
                "self_us": s.self_s * 1e6,
            },
        }
        for s in sorted(spans, key=lambda s: s.start)
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events}, handle)
