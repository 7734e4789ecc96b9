"""The repository benchmark: one workload per run, checked and measured.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stencil-heavy --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer split.
Every run checks the workload's outputs against its reference, counts
leftover shared-memory segments and child processes, prints each metric
with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The full record (environment, sample counts, absent layers) and the traced
spans are written under ``.perfbench_out/``.  See ``perfbench/README.md``
for the workloads and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

import measure
from tracer import LAYER_METRICS, Span, Tracer, layer_metrics, root_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("stencil-heavy", "soleil-many", "serve-2c")

#: end-to-end metric -> unit, measured with tracing off.  The timings are
#: CPU time of the processes that do the work (the runtime's process and
#: its pool workers); wall-clock figures are printed too but gate nothing,
#: because on a shared host they swing with other tenants' load.
END_TO_END = {
    "iter_cpu_ms": "ms",
    "serial_iter_cpu_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: The parallel configuration and the serial baseline alternate in blocks
#: of BLOCK_S seconds; the parallel one gets PARALLEL_SHARE of each.
PARALLEL_SHARE = 0.6
BLOCK_S = 3.0
#: Cold set-ups per run: the measured configuration's own plus fresh
#: processes; ``setup_s`` is their median.
SETUP_REPS = 3
#: Traced runs first measure both configurations untraced, as above (the
#: overhead baseline), then trace the parallel one, then the serial one.
UNTRACED_SHARE = 0.4
TRACED_SHARE = 0.35
SERIAL_TRACED_SHARE = 1.0 - UNTRACED_SHARE - TRACED_SHARE


#: per-layer metrics, from the traced run
PER_LAYER = LAYER_METRICS + (
    "iter.p50_ms",
    "iter.p90_ms",
    "serial_iter.p50_ms",
    "setup.wall_s",
    "throughput.launches_per_s",
    "owner.cpu_ms",
    "owner.wait_ms",
    "exec.leaked_children",
    "exec.leaked_shm_segments",
    "client.launch.p50_ms",
    "client.launch.p99_ms",
    "client.launch_static.p50_ms",
    "client.launch_dynamic.p50_ms",
    "client.trace_call.p50_ms",
    "client.session_setup_ms",
    "serve.busy_ratio",
    "serve.check_memo.hit_ratio",
    "serve.plan_memo.hits_per_launch",
    "serve.cpu_ms_per_launch",
    "trace.coverage",
    "trace.overhead_ratio",
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes") or ".bytes_" in metric:
        return "B"
    if "ratio" in metric or metric == "trace.coverage":
        return "ratio"
    return "count"


def pinned_env() -> dict:
    """This process's environment without ``REPRO_*``, with the checkout's
    sources first on the path: what every child process gets."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seed": seed,
    }


@dataclass
class Outcome:
    """What one workload run produces, before hygiene is added."""

    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    not_applicable: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    leaked_children: int = 0
    samples: Dict[str, int] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)
    #: wall-clock figures of an untraced run (printed, not gated)
    wall: Dict[str, float] = field(default_factory=dict)
    #: processes that may own repro shared memory: this one, the servers
    #: and the set-up subprocesses
    pids: Set[int] = field(default_factory=lambda: {os.getpid()})


def _median_ms(samples: List[float]) -> float:
    return 1e3 * statistics.median(samples)


def _setup_subprocess(workload: str, seed: int, smoke: bool, out: "Outcome") -> tuple:
    """One cold set-up in a fresh process: ``(wall_s, cpu_s)``.  Records
    the process's pid in ``out``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out.pids.add(proc.pid)
    try:
        stdout, stderr = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed:\n{stderr}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result["setup_s"], result["setup_cpu_s"]


def _write(name: str, payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(payload))


# ------------------------------------------------------------- app workloads
def run_app(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> Outcome:
    import apps

    app = apps.APPS[workload]
    cfg = app.make_config(seed, smoke)
    out = Outcome()
    runs = [apps.Instance.start(app, cfg, workers=2)]
    try:
        runs.append(apps.Instance.start(app, cfg, workers=1))
        par, ser = runs
        _interleave(par, ser, seconds * (UNTRACED_SHARE if trace else 1.0))
        untraced, n_ser = list(par.samples), len(ser.samples)
        untraced_cpu_s = par.cpu_s
        if trace:
            tracer = _traced_window(par, seconds * TRACED_SHARE)
            ser_tracer = _traced_window(ser, seconds * SERIAL_TRACED_SHARE)
    finally:
        out.correct = all(_finish_all(runs))
    out.attempted = sum(r.total_steps for r in runs)
    out.failed = sum(r.failed for r in runs)
    wall = _wall(untraced, ser.samples[:n_ser], par.setup_s)
    wall["throughput.launches_per_s"] = (
        app.launches_per_iter * len(untraced) / sum(untraced))
    if not trace:
        reps = [_setup_subprocess(workload, seed, smoke, out)
                for _ in range(SETUP_REPS - 1)]
        out.metrics = _end_to_end(par.blocks, ser.blocks,
                                  [par.setup_cpu_s] + [cpu for _, cpu in reps],
                                  measure.peak_rss_mb())
        out.wall = wall
        out.samples = {"parallel_iters": len(par.samples),
                       "serial_iters": len(ser.samples), "setups": SETUP_REPS,
                       "parallel_blocks": par.blocks,
                       "serial_blocks": ser.blocks}
        return out
    traced = par.samples[len(untraced):]
    k = len(untraced)
    out.absent = tracer.absent_layers()
    out.metrics = layer_metrics(tracer.spans, tracer.events,
                                tracer.counter_deltas, len(traced), out.absent)
    out.metrics["backend.serial.finish.self_ms"] = layer_metrics(
        ser_tracer.spans, ser_tracer.events, ser_tracer.counter_deltas,
        len(ser.samples) - n_ser, ser_tracer.absent_layers(),
    )["backend.serial.finish.self_ms"]
    out.metrics.update(wall)
    out.metrics.update({
        "owner.cpu_ms": 1e3 * untraced_cpu_s / k,
        "owner.wait_ms": 1e3 * (sum(untraced) - untraced_cpu_s) / k,
        "trace.coverage": root_seconds(tracer.spans) / sum(traced),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
    })
    out.not_applicable = [m for m in PER_LAYER
                          if m.startswith(("client.", "serve."))]
    out.samples = {"untraced_iters": k, "traced_iters": len(traced),
                   "serial_untraced_iters": n_ser,
                   "serial_traced_iters": len(ser.samples) - n_ser}
    _write(f"{workload}-seed{seed}-spans.json",
           {"parallel": tracer.dump(), "serial": ser_tracer.dump()})
    return out


def _interleave(par, ser, seconds: float) -> None:
    measure.alternate([(par, PARALLEL_SHARE), (ser, 1 - PARALLEL_SHARE)],
                      seconds, BLOCK_S)


def _wall(par: List[float], ser: List[float], setup_s: float) -> dict:
    """Wall-clock figures of the untraced windows: printed with every run,
    gated nowhere (see README.md)."""
    return {
        "iter.p50_ms": _median_ms(par),
        "iter.p90_ms": 1e3 * measure.percentile(par, 0.9),
        "serial_iter.p50_ms": _median_ms(ser),
        "setup.wall_s": setup_s,
    }


def _traced_window(target, seconds: float) -> Tracer:
    """One measured window of ``target`` with the tracer installed."""
    tracer = Tracer().install()
    try:
        tracer.start()
        target.window(seconds, tracer)
    finally:
        tracer.uninstall()
    return tracer


def _finish_all(items) -> list:
    """``finish()`` every item even if one fails; re-raise the first
    failure afterwards, so no runtime or server outlives the run."""
    results, error = [], None
    for item in items:
        try:
            results.append(item.finish())
        except BaseException as exc:
            error = error or exc
    if error is not None:
        raise error
    return results


def _end_to_end(par_blocks, ser_blocks, setup_cpus, rss) -> dict:
    return {
        "iter_cpu_ms": 1e3 * measure.block_cost(par_blocks),
        "serial_iter_cpu_ms": 1e3 * measure.block_cost(ser_blocks),
        "setup_s": statistics.median(setup_cpus),
        "peak_rss_mb": rss,
    }


# --------------------------------------------------------------- serve-2c
def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    import serve_load

    env = pinned_env()
    out = Outcome()
    sessions = []

    def session(workers):
        span_file = _span_file(seed, workers) if trace else None
        s = serve_load.Session(ROOT, env, workers, seed, span_file)
        sessions.append(s)
        out.pids.add(s.server.pid)
        return s

    try:
        par, ser = session(2), session(1)
        keys = ("check_memo_hits", "check_memo_misses", "plan_memo_hits")
        before = [par.stats_sum(k) for k in keys]
        cpu0 = par.cpu_s()
        _interleave(par, ser, seconds * (UNTRACED_SHARE if trace else 1.0))
        cpu_s = par.cpu_s() - cpu0
        hits, misses, plan = (par.stats_sum(k) - b for k, b in zip(keys, before))
        u, ser_u = par.samples, ser.samples
        dumps = []
        if trace:
            for s, share in ((par, TRACED_SHARE), (ser, SERIAL_TRACED_SHARE)):
                s.samples = serve_load.Samples()
                s.server.start_trace()
                s.window(seconds * share)
                dumps.append(s.server.stop_trace())
        _finish_all([par, ser])
        if not trace:
            reps = [session(2) for _ in range(SETUP_REPS - 1)]
            _finish_all(reps)
    finally:
        results = _finish_all(sessions)
    out.attempted = sum(s.calls for s in sessions)
    out.failed = sum(s.busy for s in sessions)
    out.correct = all(ok for ok, _, _ in results)
    out.leaked_children = sum(leaked for _, _, leaked in results)
    wall = _wall(u.iters, ser_u.iters, par.setup_s)
    wall["throughput.launches_per_s"] = u.launches / u.wall_s
    if not trace:
        out.metrics = _end_to_end(u.blocks, ser_u.blocks,
                                  [s.setup_cpu_s for s in [par] + reps],
                                  results[0][1])
        out.wall = wall
        out.samples = {"parallel_iters": len(u.iters), "launches": u.launches,
                       "serial_iters": len(ser_u.iters), "setups": SETUP_REPS,
                       "parallel_blocks": u.blocks, "serial_blocks": ser_u.blocks}
        return out

    def split(dump, fallback_units):
        rows = [Span.from_list(r) for r in dump["spans"]]
        units = sum(1 for s in rows if s.name == "runtime.index_launch")
        return rows, layer_metrics(rows, dump["events"], dump["counters"],
                                   units or fallback_units, dump["absent"])

    traced = par.samples
    rows, out.metrics = split(dumps[0], traced.launches)
    out.absent = dumps[0]["absent"]
    out.metrics["backend.serial.finish.self_ms"] = split(
        dumps[1], ser.samples.launches)[1]["backend.serial.finish.self_ms"]
    launches = u.static + u.dynamic
    out.metrics.update(wall)
    out.metrics.update({
        "client.launch.p50_ms": _median_ms(launches),
        "client.launch.p99_ms": 1e3 * measure.percentile(launches, 0.99),
        "client.launch_static.p50_ms": _median_ms(u.static),
        "client.launch_dynamic.p50_ms": _median_ms(u.dynamic),
        "client.trace_call.p50_ms": _median_ms(u.trace_calls),
        "client.session_setup_ms": 1e3 * statistics.mean(
            c.session_setup_s for c in par.clients),
        "serve.busy_ratio": par.busy / par.calls,
        "serve.check_memo.hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "serve.plan_memo.hits_per_launch": plan / u.launches,
        "serve.cpu_ms_per_launch": 1e3 * cpu_s / u.launches,
        "trace.coverage": root_seconds(rows) / dumps[0]["window_s"],
        "trace.overhead_ratio": (statistics.median(traced.iters)
                                 / statistics.median(u.iters)),
    })
    out.not_applicable = ["owner.cpu_ms", "owner.wait_ms"]
    out.samples = {"untraced_launches": u.launches,
                   "traced_launches": traced.launches}
    return out


def _span_file(seed: int, workers: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"serve-2c-seed{seed}-w{workers}-spans.json"


# ------------------------------------------------------------------- main
def _report(workload: str, args, out: Outcome, env: dict) -> dict:
    names = PER_LAYER if args.trace else list(END_TO_END)
    metrics = {}
    for name in names:
        value = out.metrics.get(name)
        unit = unit_of(name)
        if name in out.not_applicable:
            label, value = "n/a", 0.0
        elif value is None:
            label, value = "absent", 0.0
        else:
            label = f"{value:.6g}"
        print(f"{workload:14s} {name:34s} {label:>12s} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for name, value in out.wall.items():
        print(f"{workload:14s} {name:34s} {value:12.6g} {unit_of(name)} (wall, not gated)")
    print(f"{workload:14s} samples {json.dumps(out.samples)}")
    print(f"{workload:14s} environment {json.dumps(env)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small shapes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_only:
        import apps

        app = apps.APPS[args.workload]
        wall_s, cpu_s = apps.setup_seconds(app, app.make_config(args.seed, args.smoke))
        measure.stop_resource_tracker()
        print(json.dumps({"setup_s": wall_s, "setup_cpu_s": cpu_s}))
        return 0

    with measure.IdlePoll(len(os.sched_getaffinity(0))):
        try:
            if args.workload == "serve-2c":
                # The serve shapes are small already; --smoke changes nothing.
                out = run_serve(args.seed, args.seconds, bool(args.trace))
            else:
                out = run_app(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        finally:
            from repro.exec.pool import shutdown_pools

            shutdown_pools()
    leaked_children = out.leaked_children + measure.surviving(
        measure.descendants(os.getpid()))
    leaked_shm = len(measure.shm_segments(out.pids))
    measure.stop_resource_tracker()
    out.metrics["exec.leaked_children"] = leaked_children
    out.metrics["exec.leaked_shm_segments"] = leaked_shm
    correct = out.correct and out.failed == 0 and not leaked_children and not leaked_shm

    env = environment(args.seed)
    metrics = _report(args.workload, args, out, env)
    result = {
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": metrics,
    }
    _write(f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
           dict(result, environment=env, samples=out.samples,
                absent=out.absent, not_applicable=out.not_applicable,
                wall=out.wall,
                outputs_verified=out.correct, leaked_children=leaked_children,
                leaked_shm_segments=leaked_shm))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
