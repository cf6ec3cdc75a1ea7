"""Layer probes for the traced run.

A workload's timed path does not reach every layer: none saves, loads,
serves or mutates the index. After its timed phase, a traced run
therefore visits each of those layers once and briefly, with its own
first database: a sharded save, an mmap load and two seconds of
open-loop load on a real ``imgrn serve`` daemon over that save, whose
answers must equal the engine's; one ``add_matrix`` and one
``remove_matrix``. Every layer is then measured on every workload's
data, and none reports a constant.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import repro
from repro.core import persistence

import serving
import workloads as wl
from tracing import Recorder, engine_spans, self_times

#: Length and offered rate of the probe's open-loop phase against a
#: daemon; the rate stays within what two workers sustain on every
#: workload's queries (dense-refine's take about 60 ms).
SERVE_SECONDS = 2.0
SERVE_RPS = 10.0


def fill(row: dict, recorder: Recorder, root: Path, out: Path, name: str) -> None:
    """Add the probed layers to ``row["layers"]`` and their spans."""
    layers, probe = row["layers"], row["probe"]
    engine = probe.engine
    engine.obs.tracer.reset()
    mark = len(recorder.spans)
    directory = out / f"probe-{name}-{probe.seed}"
    shutil.rmtree(directory, ignore_errors=True)
    recorder.switch(True)
    try:
        persistence.save_engine_sharded(engine, directory)
        persistence.load_engine_sharded(directory, mmap_index=True)
        index_bytes = serving.dir_bytes(directory)
        input_bytes = sum(m.values.nbytes for m in engine.database)
        started = time.perf_counter()
        daemon = serving.Daemon(root, directory)
        ready = time.perf_counter() - started
        try:
            rows = serving.open_loop(daemon.port, probe.specs, SERVE_SECONDS, SERVE_RPS)
        finally:
            daemon.stop()
        layers.update(serving.serve_layers(rows, [ready]))
        check_daemon(row, engine, rows)
        # Removal goes last: the save above needs every source indexed.
        shape, seed = probe.shape, probe.seed
        arriving = list(
            repro.generate_database(shape.synthetic(seed, 0), shape.n + 1)
        )[-1]
        engine.add_matrix(arriving)
        engine.remove_matrix(min(m.source_id for m in engine.database))
    finally:
        recorder.switch(False)
        shutil.rmtree(directory, ignore_errors=True)
    spans = self_times(engine_spans(engine.obs.tracer) + recorder.spans[mark:])
    layers.update(serving.persist_layers(spans, index_bytes, input_bytes))
    layers.update(wl.ingest_layers(spans))
    row["spans"] += spans


def check_daemon(row: dict, engine, rows: list[dict]) -> None:
    """Daemon answers must equal the in-process engine's, bit for bit.

    Requests that were shed, timed out or failed, and answers that
    differ, count in ``row["failed"]``.
    """
    served = [r for r in rows if r["outcome"].get("status") == "ok"]
    differ = sum(
        wl.answers_of(engine.execute(r["spec"]))
        != [(a["source_id"], a["probability"]) for a in r["outcome"]["answers"]]
        for r in served
    )
    row["attempted"] += len(rows)
    row["failed"] += len(rows) - len(served) + differ
    if len(served) < len(rows):
        row["problems"].append(f"{len(rows) - len(served)} daemon requests not ok")
    if differ:
        row["problems"].append(f"{differ} daemon answers differ from the engine's")
