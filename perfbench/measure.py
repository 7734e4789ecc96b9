"""Measurement helpers: interleaved windows, percentiles, and the process
facts the benchmark reports — CPU time, peak RSS, descendant processes and
leftover shared-memory segments (Linux ``/proc`` and ``/dev/shm``)."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set

SHM_DIR = "/dev/shm"
SHM_PREFIX = "reproshm-"
_TICKS = os.sysconf("SC_CLK_TCK")
_IDLE_POLL = Path(__file__).resolve().parent / "idle_poll.py"
#: pids of the running idle-poll processes; never counted as descendants
_idle_pids: Set[int] = set()


class IdlePoll:
    """Context manager: one ``idle_poll.py`` process per CPU while the
    block runs, stopped and waited for on the way out.

    When a CPU of a virtual machine has nothing to run it halts, and the
    host lends the core to other tenants; the task that wakes next finds
    cold caches and is charged for refilling them, by an amount that follows
    the neighbours' load.  Request/reply workloads wake thousands of times a
    second, so that charge made their CPU time per iteration drift from run
    to run.  Spinning at ``SCHED_IDLE`` keeps every CPU in use without
    taking time from the measured processes (the effect of booting with
    ``idle=poll``)."""

    def __init__(self, cpus: int):
        self.cpus = cpus
        self.procs: List[subprocess.Popen] = []

    def __enter__(self) -> "IdlePoll":
        try:
            for _ in range(self.cpus):
                proc = subprocess.Popen([sys.executable, str(_IDLE_POLL)],
                                        stdin=subprocess.DEVNULL)
                self.procs.append(proc)
                _idle_pids.add(proc.pid)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            proc.wait()
            _idle_pids.discard(proc.pid)
        self.procs = []


def alternate(parts: Sequence[tuple], seconds: float, block_s: float) -> None:
    """Measure ``(target, share)`` parts in turn until ``seconds`` pass:
    every round of about ``block_s`` gives each target ``share`` of it
    through its ``window(seconds)`` method.  Interleaving spreads every
    configuration's samples over the whole run, so slow drifts of the host
    reach all of them alike."""
    rounds = max(1, round(seconds / block_s))
    for _ in range(rounds):
        for target, share in parts:
            target.window(seconds / rounds * share)


def block_cost(blocks: Sequence[tuple]) -> float:
    """Median over ``(iterations, cpu_seconds)`` windows of CPU seconds per
    iteration."""
    return statistics.median(cpu / n for n, cpu in blocks if n)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(pid: int = 0) -> float:
    """VmHWM of ``pid`` (0 = this process) in MiB."""
    with open(f"/proc/{pid or 'self'}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as fh:
        raw = fh.read()
    # The command name may contain spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds ``pid`` has used (its own threads only)."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICKS


def tree_cpu_seconds(root: int) -> float:
    """CPU seconds used so far by ``root`` and its live descendants: a
    runtime's process plus its pool workers.  This process is read through
    ``time.process_time`` (finer than ``/proc``'s clock ticks)."""
    me = os.getpid()
    total = time.process_time() if root == me else 0.0
    for pid in ({root} | descendants(root)) - {me}:
        try:
            total += cpu_seconds(pid)
        except (OSError, ValueError, IndexError):
            pass  # exited in between
    return total


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] not in ("Z", "X")
    except (OSError, ValueError, IndexError):
        return False


def descendants(root: int) -> Set[int]:
    """Live descendants of ``root``, leaving out multiprocessing's resource
    tracker (a helper that lives until its parent exits, not a worker) and
    the idle-poll processes."""
    parent: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (OSError, ValueError):
            continue
        if fields[0] not in ("Z", "X"):
            parent[int(entry)] = int(fields[1])
    out: Set[int] = set()
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child, ppid in parent.items():
            if ppid == pid and child not in out:
                out.add(child)
                frontier.append(child)
    return {pid for pid in out - _idle_pids
            if "resource_tracker" not in _cmdline(pid)}


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, the helper process that
    shared-memory use starts, and wait for it, so a run leaves no process
    behind.  (``_stop`` is private; a Python without it lets the tracker
    exit with this process instead.)"""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def surviving(pids: Set[int], grace_s: float = 5.0) -> int:
    """How many of ``pids`` are still running once ``grace_s`` has passed
    (pool teardown may let workers exit asynchronously)."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = sum(1 for pid in pids if _alive(pid))
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def shm_segments(owners: Iterable[int]) -> List[str]:
    """Linked repro shared-memory segments owned by one of ``owners``.  A
    segment's name carries the pid of the process whose arena made it
    (``reproshm-<pid>p...``), so other processes' segments never count."""
    tags = {str(pid) for pid in owners}
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return []
    return [
        n for n in names
        if n.startswith(SHM_PREFIX) and n[len(SHM_PREFIX):].split("p", 1)[0] in tags
    ]
