"""serve-2c: a closed loop of two synchronous clients against ``repro serve``.

Each client is one session of its own tenant, on its own connection and
thread.  An iteration is one traced pair: ``begin_trace``, a static 8-shard
launch, a ``ModularFunctor``-checked 8-shard launch, ``end_trace`` — four
CALLs, each waiting for its reply before the next is sent.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

import measure
from repro.core.projection import ModularFunctor
from repro.serve.client import ServiceBusy, ServiceClient
from repro.serve.loadgen import BUMP

CLIENTS = 2
SHARDS = 8
ELEMS = 64
TRACE_ID = 7
#: Iterations per client before timing starts: the trace records, then
#: replays, and the plan memo fills.
WARMUP_ITERS = 10
HERE = Path(__file__).resolve().parent


class Server:
    """One ``repro serve`` subprocess.  With a ``span_file`` it runs under
    ``serve_traced.py``, which records spans between :meth:`start_trace`
    and :meth:`stop_trace` and writes them to that file."""

    def __init__(self, root: Path, env: dict, workers: int,
                 span_file: Optional[Path] = None):
        self.span_file = span_file
        args = ["serve", "--workers", str(workers), "--port", "0"]
        if span_file is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(span_file), *args]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _signal(self, sig, ack: str) -> None:
        os.kill(self.pid, sig)
        line = self.proc.stdout.readline()
        if ack not in line:
            raise RuntimeError(f"traced server answered {line!r}, not {ack!r}")

    def start_trace(self) -> None:
        self._signal(signal.SIGUSR1, "tracing")

    def stop_trace(self) -> dict:
        self._signal(signal.SIGUSR2, "spans written")
        return json.loads(self.span_file.read_text())

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns how many of the
        server's children outlived it."""
        children = measure.descendants(self.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        return measure.surviving(children)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


@dataclass
class Samples:
    iters: List[float] = field(default_factory=list)
    static: List[float] = field(default_factory=list)
    dynamic: List[float] = field(default_factory=list)
    trace_calls: List[float] = field(default_factory=list)
    #: wall seconds of the closed-loop windows
    wall_s: float = 0.0
    #: (iterations, CPU seconds of the server and its workers) per window
    blocks: List[tuple] = field(default_factory=list)

    def extend(self, other: "Samples") -> None:
        for name in ("iters", "static", "dynamic", "trace_calls"):
            getattr(self, name).extend(getattr(other, name))

    @property
    def launches(self) -> int:
        return len(self.static) + len(self.dynamic)


class Client:
    """One session: a region of ``ELEMS`` seeded values, an 8-way equal
    partition, and the loadgen's bump task."""

    def __init__(self, port: int, tenant: str, seed: int):
        t0 = time.perf_counter()
        self.cli = ServiceClient("127.0.0.1", port, tenant=tenant)
        self.initial = np.random.default_rng(seed).uniform(0.0, 1.0, ELEMS)
        self.region = self.cli.create_region("load_rx", ELEMS, {"x": "f8"})
        self.cli.write_field(self.region, "x", self.initial)
        self.part = self.cli.equal_partition("load_p", self.region, SHARDS)
        self.task = self.cli.define_task(BUMP)
        self.session_setup_s = time.perf_counter() - t0
        self.iterations = 0
        self.calls = 0
        self.busy = 0

    def _call(self, fn, *args, **kwargs) -> float:
        """One CALL, retried on BUSY; returns its round-trip seconds."""
        t0 = time.perf_counter()
        while True:
            self.calls += 1
            try:
                fn(*args, **kwargs)
                return time.perf_counter() - t0
            except ServiceBusy:
                self.busy += 1
                time.sleep(0.001)

    def iteration(self, out: Samples) -> None:
        t0 = time.perf_counter()
        out.trace_calls.append(self._call(self.cli.begin_trace, TRACE_ID))
        out.static.append(
            self._call(self.cli.index_launch, self.task, SHARDS, self.part))
        out.dynamic.append(
            self._call(self.cli.index_launch, self.task, SHARDS, self.part,
                       functor=ModularFunctor(SHARDS, 1)))
        out.trace_calls.append(self._call(self.cli.end_trace, TRACE_ID))
        out.iters.append(time.perf_counter() - t0)
        self.iterations += 1

    def verify(self) -> bool:
        """Every launch bumps every element by one."""
        got = self.cli.read_field(self.region, "x")
        return bool(np.allclose(got, self.initial + 2 * self.iterations))

    def close(self) -> None:
        self.cli.close()


def _parallel(clients: List[Client], body) -> None:
    """Run ``body(i, client)`` on one thread per client; re-raise the first
    failure."""
    errors: List[BaseException] = []

    def run(i, c):
        try:
            body(i, c)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i, c))
               for i, c in enumerate(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def connect(server: Server, seed: int) -> List[Client]:
    """Open both sessions and warm them up concurrently."""
    clients: List[Optional[Client]] = [None] * CLIENTS

    def body(i, _):
        clients[i] = Client(server.port, f"tenant{i}", seed + i)
        for _ in range(WARMUP_ITERS):
            clients[i].iteration(Samples())

    _parallel([None] * CLIENTS, body)
    return clients


def closed_loop(clients: List[Client], seconds: float) -> tuple:
    """Both clients iterate until ``seconds`` pass; returns the merged
    samples and the window's wall time."""
    per_client = [Samples() for _ in clients]
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def body(i, c):
        while time.perf_counter() < deadline:
            c.iteration(per_client[i])

    _parallel(clients, body)
    wall = time.perf_counter() - t0
    merged = Samples()
    for s in per_client:
        merged.extend(s)
    return merged, wall


class Session:
    """One server and its two warmed-up clients, from spawn to shutdown."""

    def __init__(self, root: Path, env: dict, workers: int, seed: int,
                 span_file: Optional[Path] = None):
        self.server = Server(root, env, workers, span_file)
        self.clients: List[Client] = []
        try:
            self.clients = connect(self.server, seed)
        except BaseException:
            self.server.kill()
            raise
        #: spawn to the end of warm-up, wall and server-tree CPU seconds
        self.setup_s = time.perf_counter() - self.server.t_spawn
        self.setup_cpu_s = measure.tree_cpu_seconds(self.server.pid)
        self.samples = Samples()
        self._finished: Optional[tuple] = None

    def window(self, seconds: float) -> None:
        """One closed-loop window, appended to ``samples``."""
        cpu0 = measure.tree_cpu_seconds(self.server.pid)
        block, wall = closed_loop(self.clients, seconds)
        cpu = measure.tree_cpu_seconds(self.server.pid) - cpu0
        self.samples.extend(block)
        self.samples.wall_s += wall
        self.samples.blocks.append((len(block.iters), cpu))

    def cpu_s(self) -> float:
        return measure.cpu_seconds(self.server.pid)

    def stats_sum(self, key: str) -> float:
        return sum(c.cli.stats().get(key, 0) for c in self.clients)

    @property
    def calls(self) -> int:
        return sum(c.calls for c in self.clients)

    @property
    def busy(self) -> int:
        return sum(c.busy for c in self.clients)

    def finish(self) -> tuple:
        """Verify every client's region, then shut down (once).  Returns
        ``(correct, peak_rss_mb, leaked_children)``."""
        if self._finished is not None:
            return self._finished
        try:
            correct = all(c.verify() for c in self.clients)
            rss = measure.peak_rss_mb(self.server.pid)
        except BaseException:
            self.server.kill()
            raise
        finally:
            for c in self.clients:
                c.close()
        self._finished = (correct, rss, self.server.stop())
        return self._finished
