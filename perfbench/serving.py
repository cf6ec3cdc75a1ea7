"""A real ``imgrn serve`` daemon under open-loop load, for the traced probes.

The daemon is ``python -m repro serve`` over a sharded save; it is ready
once it prints its listening banner (every worker has loaded the mmap
index) and ``/healthz`` answers. The load generator is one process with
at most ``min(2, nproc)`` keep-alive connections, one thread each.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.serve.client import DaemonClient, DaemonError

from tracing import Span

DAEMON_WORKERS = 2


class Daemon:
    """One ``python -m repro serve`` subprocess over a sharded save."""

    def __init__(self, root: Path, index_dir: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        command = [sys.executable, "-m", "repro", "serve", str(index_dir)]
        command += ["--daemon-workers", str(DAEMON_WORKERS), "--port", "0"]
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        banner = self.process.stdout.readline()
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError(f"daemon did not start: {banner!r}")
        address = banner.split("listening on ")[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        with DaemonClient("127.0.0.1", self.port) as client:
            if client.health().get("status") != "serving":
                self.stop()
                raise RuntimeError("daemon is not serving")

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the daemon and its worker processes."""
        pid = self.process.pid
        pids = [pid]
        for task in Path(f"/proc/{pid}/task").iterdir():
            pids += [int(c) for c in (task / "children").read_text().split()]
        total_kb = 0
        for p in pids:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def connect(port: int, lane: int) -> DaemonClient:
    """One keep-alive connection of load-generator lane ``lane``."""
    return DaemonClient("127.0.0.1", port, timeout=30.0, client_id=f"lane{lane}")


def send(client: DaemonClient, spec) -> dict:
    return client.query(
        spec.matrix, spec.gamma, spec.alpha,
        kind=spec.kind, k=spec.k, edge_budget=spec.edge_budget,
    )


def open_loop(port: int, specs, seconds: float, rate: float) -> list[dict]:
    """Requests due every ``1/rate`` s, timed from when each was due.

    A request whose connection is still busy when it falls due waits, and
    that wait counts in its latency; ``lag`` is how late it was sent.
    """
    count = int(seconds * rate)
    rows: list[dict | None] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker(lane: int) -> None:
        with connect(port, lane) as client:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= count:
                    return
                due = start + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    outcome = send(client, specs[i % len(specs)])
                except DaemonError as exc:
                    outcome = {"status": "error", "error": str(exc)}
                done = time.perf_counter()
                rows[i] = {
                    "spec": specs[i % len(specs)],
                    "due_ms": (done - due) * 1e3,
                    "client_ms": (done - sent) * 1e3,
                    "lag_ms": (sent - due) * 1e3,
                    "outcome": outcome,
                }

    run_lanes(worker)
    return rows


def run_lanes(worker) -> None:
    lanes = [
        threading.Thread(target=worker, args=(lane,))
        for lane in range(min(2, os.cpu_count() or 1))
    ]
    for thread in lanes:
        thread.start()
    for thread in lanes:
        thread.join()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def persist_layers(spans: list[Span], index_bytes: int, input_bytes: int) -> dict:
    """Sharded save / mmap load seconds and the save's size."""
    return {
        "persist.save_s": statistics.median(
            s.seconds for s in spans if s.name == "persistence.save_engine_sharded"
        ),
        "persist.load_s": statistics.median(
            s.seconds for s in spans if s.name == "persistence.load_engine_sharded"
        ),
        "persist.index_bytes": float(index_bytes),
        "persist.bytes_per_input_byte": index_bytes / input_bytes,
    }


def serve_layers(rows: list[dict], ready: list[float]) -> dict:
    """Daemon layers from open-loop rows: each response's own timings."""
    served = [r for r in rows if r["outcome"].get("status") == "ok"]
    outcomes = [r["outcome"] for r in served]
    return {
        "serve.ready_s": statistics.median(ready),
        "serve.client_ms": statistics.median(
            r["client_ms"] - r["outcome"]["daemon_seconds"] * 1e3 for r in served
        ),
        "serve.queue_ipc_ms": statistics.median(
            (o["daemon_seconds"] - o["seconds"]) * 1e3 for o in outcomes
        ),
        "serve.engine_ms": statistics.median(o["seconds"] * 1e3 for o in outcomes),
        "serve.shed_ratio": sum(
            r["outcome"].get("status") == "shed" for r in rows
        ) / len(rows),
        "serve.generator_lag_ms": statistics.median(r["lag_ms"] for r in rows),
    }
