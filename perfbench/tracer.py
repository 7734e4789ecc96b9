"""Outside-in span tracing of the repro pipeline layers.

The benchmark wraps the public functions of each layer from here, so no
module under ``src/`` changes to be measured.  :meth:`Tracer.install`
swaps every target for a timing wrapper (in the defining module and in
every loaded ``repro`` module that imported it by name);
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory —
each with its parent, thread and iteration id — until the caller writes
them out.

A target whose module, class or function no longer exists (a later change
deleted a transport or a cache) is recorded as *absent* instead of failing
the run, and the metrics of a layer whose every target is absent are
reported as ``absent``.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Target",
    "TARGETS",
    "Span",
    "Tracer",
    "self_times",
    "layer_metrics",
    "root_seconds",
    "LAYER_METRICS",
]


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``probe`` turns a call into a number stored on its span:
    ``"true"`` / ``"not_none"`` mark hits (1) and misses (0) by the return
    value, ``"bytes"`` records ``len(result)``.  ``counters`` names
    attributes of the call's ``self`` whose numeric fields are snapshotted
    the first time the object is seen while recording and again at
    :meth:`Tracer.stop`, giving exact deltas over the traced window.
    ``observer`` attaches the tracer to the object's public ``observer``
    hook while recording.
    """

    layer: str
    module: str
    qualname: str
    probe: Optional[str] = None
    counters: Tuple[str, ...] = ()
    observer: bool = False


#: Every layer boundary the per-layer split measures.  ``layer`` is the span
#: name; two targets may share one (their spans add up).
TARGETS: Tuple[Target, ...] = (
    Target("runtime.index_launch", "repro.runtime.runtime", "Runtime.index_launch"),
    Target("runtime.execute_task", "repro.runtime.runtime", "Runtime.execute_task"),
    Target("tracing.observe", "repro.runtime.tracing", "TraceRecorder.observe",
           probe="true"),
    Target("safety.analyze", "repro.core.safety", "analyze_launch_safety"),
    Target("replay.verdict", "repro.runtime.replay",
           "LaunchReplayCache.replayed_verdict", probe="not_none"),
    Target("replay.check_memo", "repro.runtime.replay", "DynamicCheckMemo.run",
           counters=("hits", "misses")),
    Target("logical.analyze", "repro.runtime.logical",
           "LogicalAnalyzer.analyze_operation"),
    Target("distribution.shard_map", "repro.runtime.mapper", "ShardingCache.shard_map"),
    Target("physical.record_task", "repro.runtime.physical",
           "PhysicalAnalyzer.record_task"),
    Target("physical.replay_tasks", "repro.runtime.physical",
           "PhysicalAnalyzer.replay_tasks"),
    Target("backend.serial.finish", "repro.exec.backend",
           "SerialBackend.finish_launch"),
    Target("backend.parallel.finish", "repro.exec.parallel",
           "ParallelBackend.finish_launch", counters=("stats",), observer=True),
    Target("plan.dumps", "repro.exec.plan", "dumps", probe="bytes"),
    Target("pool.submit", "repro.exec.pool", "WorkerPool.submit_shard"),
    Target("pool.submit", "repro.exec.pool", "WorkerPool.submit_shards"),
    Target("shm.stage", "repro.exec.shm", "ShmArena.stage_read", counters=("stats",)),
    Target("shm.stage", "repro.exec.shm", "ShmArena.alloc_write_slot",
           counters=("stats",)),
    Target("region.read", "repro.data.collection", "Region.field_nd"),
    Target("region.read", "repro.data.collection", "Region.storage"),
)


@dataclass
class Span:
    sid: int
    parent: int          # -1 for a root span (no traced caller)
    name: str
    t0: float
    t1: float
    thread: int
    iteration: Optional[int]
    value: Optional[float] = None

    def as_list(self) -> list:
        return [self.sid, self.parent, self.name, self.t0, self.t1,
                self.thread, self.iteration, self.value]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


def _numeric_fields(obj) -> Dict[str, float]:
    """The int/float fields of a counters object (dataclass, slots, dict)."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {"": obj}
    if hasattr(obj, "as_dict"):
        items = obj.as_dict().items()
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        items = ((n, getattr(obj, n, None)) for n in getattr(obj, "__slots__", ()))
    return {
        n: v for n, v in items
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def _snapshot(obj, attrs: Tuple[str, ...]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for attr in attrs:
        for field, v in _numeric_fields(getattr(obj, attr, None)).items():
            out[f"{attr}.{field}" if field else attr] = v
    return out


class Tracer:
    """Installs the wrappers and collects spans, events and counters."""

    def __init__(self, targets: Iterable[Target] = TARGETS):
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        #: (event name, perf_counter timestamp) from the observer hook.
        self.events: List[Tuple[str, float]] = []
        self.absent: List[Target] = []
        self.iteration: Optional[int] = None
        self.recording = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        #: (target layer, id(obj)) -> (obj, snapshot at first sight)
        self._seen: Dict[Tuple[str, int], Tuple[Any, Dict[str, float]]] = {}
        self._observed: List[Any] = []
        self.counter_deltas: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------ patching
    def install(self) -> "Tracer":
        for target in self.targets:
            if not self._patch(target):
                self.absent.append(target)
        return self

    def uninstall(self) -> None:
        self.stop()
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _patch(self, target: Target) -> bool:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return False
        owner: Any = module
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapped = self._wrap(original, target)
        # A method inherited from a base class is shadowed on ``owner`` and
        # deleted again on uninstall; everything else is put back.
        own = not isinstance(owner, type) or attr in vars(owner)
        self._set(owner, attr, wrapped, original, had_own=own)
        if not isinstance(owner, type):
            # Module-level function: rebind every ``from x import f`` copy.
            for name, mod in list(sys.modules.items()):
                if not name.startswith("repro") or mod is module:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped, original, had_own=True)
        return True

    def _set(self, owner, attr, value, original, had_own: bool) -> None:
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, value)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        name = target.layer
        probe = target.probe
        watch = bool(target.counters) or target.observer

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if watch and args:
                tracer._first_sight(target, args[0])
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            value = None
            if probe == "true":
                value = 1.0 if result is True else 0.0
            elif probe == "not_none":
                value = 0.0 if result is None else 1.0
            elif probe == "bytes":
                value = float(len(result))
            tracer.spans.append(Span(sid, parent, name, t0, t1,
                                     threading.get_ident(), tracer.iteration,
                                     value))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # --------------------------------------------------- counters/observer
    def _first_sight(self, target: Target, obj) -> None:
        key = (target.layer, id(obj))
        if key in self._seen:
            return
        self._seen[key] = (obj, _snapshot(obj, target.counters))
        if target.observer and hasattr(obj, "observer") and obj.observer is None:
            obj.observer = self._on_event
            self._observed.append(obj)

    def _on_event(self, event: str, info: dict) -> None:
        if self.recording:
            self.events.append((event, time.perf_counter()))

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        """Stop recording; fold first-sight snapshots into deltas."""
        if not self.recording:
            return
        self.recording = False
        by_layer = {t.layer: t for t in self.targets}
        for (layer, _), (obj, before) in list(self._seen.items()):
            after = _snapshot(obj, by_layer[layer].counters)
            acc = self.counter_deltas.setdefault(layer, {})
            for field, v in after.items():
                acc[field] = acc.get(field, 0) + v - before.get(field, 0)
        self._seen.clear()
        for obj in self._observed:
            if obj.observer == self._on_event:
                obj.observer = None
        self._observed.clear()

    # -------------------------------------------------------------- export
    def absent_layers(self) -> List[str]:
        """Layers whose every target is absent."""
        present = {t.layer for t in self.targets if t not in self.absent}
        return sorted({t.layer for t in self.absent} - present)

    def dump(self) -> dict:
        return {
            "spans": [s.as_list() for s in self.spans],
            "events": self.events,
            "counters": self.counter_deltas,
            "absent": self.absent_layers(),
        }


# ------------------------------------------------------------ arithmetic
def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {
        s.sid: (s.t1 - s.t0) - _covered(children.get(s.sid, []))
        for s in spans
    }


#: Per-layer metrics derived from spans: (metric, layer, kind) where kind
#: is "calls", "self_ms", "ratio" (mean of probe values) or "sum" (sum of
#: probe values).
SPAN_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("runtime.index_launch.calls", "runtime.index_launch", "calls"),
    ("runtime.index_launch.self_ms", "runtime.index_launch", "self_ms"),
    ("runtime.execute_task.calls", "runtime.execute_task", "calls"),
    ("runtime.execute_task.self_ms", "runtime.execute_task", "self_ms"),
    ("tracing.observe.self_ms", "tracing.observe", "self_ms"),
    ("tracing.replay_ratio", "tracing.observe", "ratio"),
    ("safety.analyze.calls", "safety.analyze", "calls"),
    ("safety.analyze.self_ms", "safety.analyze", "self_ms"),
    ("replay.verdict_hit_ratio", "replay.verdict", "ratio"),
    ("replay.check_memo.calls", "replay.check_memo", "calls"),
    ("replay.check_memo.self_ms", "replay.check_memo", "self_ms"),
    ("logical.analyze.calls", "logical.analyze", "calls"),
    ("logical.analyze.self_ms", "logical.analyze", "self_ms"),
    ("distribution.shard_map.self_ms", "distribution.shard_map", "self_ms"),
    ("physical.record_task.calls", "physical.record_task", "calls"),
    ("physical.record_task.self_ms", "physical.record_task", "self_ms"),
    ("physical.replay_tasks.self_ms", "physical.replay_tasks", "self_ms"),
    ("backend.serial.finish.self_ms", "backend.serial.finish", "self_ms"),
    ("backend.parallel.finish.self_ms", "backend.parallel.finish", "self_ms"),
    ("plan.dumps.calls", "plan.dumps", "calls"),
    ("plan.dumps.self_ms", "plan.dumps", "self_ms"),
    ("plan.dumps.bytes", "plan.dumps", "sum"),
    ("pool.submit.calls", "pool.submit", "calls"),
    ("pool.submit.self_ms", "pool.submit", "self_ms"),
    ("shm.stage.self_ms", "shm.stage", "self_ms"),
    ("region.read.self_ms", "region.read", "self_ms"),
)

#: Per-layer metrics derived from counter deltas and observer events, with
#: the layer whose presence they need.
COUNTER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("replay.check_memo.hit_ratio", "replay.check_memo"),
    ("exec.submit_ms", "backend.parallel.finish"),
    ("exec.collect_wait_ms", "backend.parallel.finish"),
    ("exec.commit_ms", "backend.parallel.finish"),
    ("parallel.launch_ratio", "backend.parallel.finish"),
    ("parallel.plan_memo.hit_ratio", "backend.parallel.finish"),
    ("parallel.recoveries", "backend.parallel.finish"),
    ("shm.bytes_staged", "shm.stage"),
    ("shm.bytes_slotted", "shm.stage"),
    ("shm.fallback_ratio", "shm.stage"),
)

LAYER_METRICS: Tuple[str, ...] = tuple(m for m, _, _ in SPAN_METRICS) + tuple(
    m for m, _ in COUNTER_METRICS
)


def _ratio(num: float, den: float) -> float:
    """A hit ratio; no lookups at all means nothing missed."""
    return num / den if den else 1.0


def _exec_split(spans: List[Span], events: List[Tuple[str, float]]) -> Tuple[float, float, float]:
    """Parent-side submit / collect-wait / commit seconds of every parallel
    ``finish_launch``, split at its last ``submit`` and last ``collect.ok``
    observer event."""
    finishes = sorted(
        (s.t0, s.t1) for s in spans if s.name == "backend.parallel.finish"
    )
    stamps = sorted((t, e) for e, t in events if e in ("submit", "collect.ok"))
    submit = wait = commit = 0.0
    i = 0
    for t0, t1 in finishes:
        while i < len(stamps) and stamps[i][0] < t0:
            i += 1
        last = {"submit": None, "collect.ok": None}
        while i < len(stamps) and stamps[i][0] <= t1:
            last[stamps[i][1]] = stamps[i][0]
            i += 1
        s, c = last["submit"], last["collect.ok"]
        if s is None or c is None:
            continue  # ran serially inside the parallel backend
        submit += s - t0
        wait += c - s
        commit += t1 - c
    return submit, wait, commit


def layer_metrics(
    spans: List[Span],
    events: List[Tuple[str, float]],
    counters: Dict[str, Dict[str, float]],
    units: int,
    absent: Iterable[str] = (),
) -> Dict[str, Optional[float]]:
    """Every per-layer metric per unit (a steady iteration or a launch);
    ``None`` marks a metric whose layer is absent."""
    units = max(units, 1)
    absent = set(absent)
    selfs = self_times(spans)
    by_layer: Dict[str, List[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.name, []).append(s)
    out: Dict[str, Optional[float]] = {}
    for metric, layer, kind in SPAN_METRICS:
        if layer in absent:
            out[metric] = None
            continue
        group = by_layer.get(layer, [])
        if kind == "calls":
            out[metric] = len(group) / units
        elif kind == "self_ms":
            out[metric] = 1e3 * sum(selfs[s.sid] for s in group) / units
        elif kind == "ratio":
            out[metric] = _ratio(sum(s.value or 0.0 for s in group), len(group))
        else:
            out[metric] = sum(s.value or 0.0 for s in group) / units
    memo = counters.get("replay.check_memo", {})
    par = counters.get("backend.parallel.finish", {})
    shm = counters.get("shm.stage", {})
    submit, wait, commit = _exec_split(spans, events)
    launches = par.get("stats.parallel_launches", 0) + par.get("stats.serial_launches", 0)
    entries = sum(shm.get(f"stats.{k}", 0) for k in (
        "read_entries", "read_fallbacks", "write_slots", "write_fallbacks"))
    derived = {
        "replay.check_memo.hit_ratio": _ratio(
            memo.get("hits", 0), memo.get("hits", 0) + memo.get("misses", 0)),
        "exec.submit_ms": 1e3 * submit / units,
        "exec.collect_wait_ms": 1e3 * wait / units,
        "exec.commit_ms": 1e3 * commit / units,
        "parallel.launch_ratio": (
            par.get("stats.parallel_launches", 0) / launches if launches else 0.0),
        "parallel.plan_memo.hit_ratio": _ratio(
            par.get("stats.plan_memo_hits", 0), par.get("stats.shards_dispatched", 0)),
        "parallel.recoveries": sum(par.get(f"stats.{k}", 0) for k in (
            "shard_retries", "worker_respawns", "fallbacks")) / units,
        "shm.bytes_staged": shm.get("stats.bytes_staged", 0) / units,
        "shm.bytes_slotted": shm.get("stats.bytes_slotted", 0) / units,
        "shm.fallback_ratio": (
            (shm.get("stats.read_fallbacks", 0) + shm.get("stats.write_fallbacks", 0))
            / entries if entries else 0.0),
    }
    for metric, layer in COUNTER_METRICS:
        out[metric] = None if layer in absent else derived[metric]
    return out


def root_seconds(spans: List[Span]) -> float:
    """Traced time not nested in another traced span, i.e. the sum of
    every span's self time."""
    return sum(s.t1 - s.t0 for s in spans if s.parent < 0)
