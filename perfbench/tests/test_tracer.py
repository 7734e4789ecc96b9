"""Self-time arithmetic and the absent-target path of the tracer."""

import pytest

import tracer as tr
from tracer import Span, Target, Tracer, layer_metrics, root_seconds, self_times


def _span(sid, parent, name, t0, t1, value=None):
    return Span(sid, parent, name, t0, t1, thread=1, iteration=0, value=value)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, -1, "runtime.index_launch", 0.0, 10.0),
        _span(1, 0, "backend.parallel.finish", 1.0, 4.0),
        _span(2, 0, "plan.dumps", 3.0, 6.0, value=100.0),  # overlaps span 1
        _span(3, 1, "pool.submit", 2.0, 3.0),
        _span(4, -1, "runtime.index_launch", 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})
    # Self times of a properly nested tree add up to its root durations.
    assert root_seconds(spans) == pytest.approx(11.0)
    m = layer_metrics(spans, [], {}, units=2)
    assert m["runtime.index_launch.calls"] == 1.0
    assert m["runtime.index_launch.self_ms"] == pytest.approx(3000.0)
    assert m["backend.parallel.finish.self_ms"] == pytest.approx(1000.0)
    assert m["plan.dumps.bytes"] == pytest.approx(50.0)
    assert m["pool.submit.calls"] == 0.5


def test_probe_ratios_and_exec_split():
    spans = [
        _span(0, -1, "tracing.observe", 0.0, 1.0, value=1.0),
        _span(1, -1, "tracing.observe", 1.0, 2.0, value=0.0),
        _span(2, -1, "backend.parallel.finish", 10.0, 20.0),
    ]
    events = [("submit", 11.0), ("submit", 12.0), ("collect.ok", 17.0),
              ("commit.ship", 18.0)]
    counters = {"replay.check_memo": {"hits": 3, "misses": 1},
                "backend.parallel.finish": {"stats.parallel_launches": 3,
                                            "stats.serial_launches": 1}}
    m = layer_metrics(spans, events, counters, units=1)
    assert m["tracing.replay_ratio"] == 0.5
    assert m["replay.check_memo.hit_ratio"] == 0.75
    assert m["parallel.launch_ratio"] == 0.75
    assert m["exec.submit_ms"] == pytest.approx(2000.0)
    assert m["exec.collect_wait_ms"] == pytest.approx(5000.0)
    assert m["exec.commit_ms"] == pytest.approx(3000.0)
    # No lookups at all: nothing missed.
    assert m["replay.verdict_hit_ratio"] == 1.0


def test_absent_targets_are_reported_not_fatal():
    import repro.exec.parallel as parallel
    import repro.exec.plan as plan

    original = plan.dumps
    targets = (
        Target("plan.dumps", "repro.exec.plan", "dumps", probe="bytes"),
        Target("gone.module", "repro.no_such_module", "f"),
        Target("gone.class", "repro.exec.plan", "NoSuchClass.method"),
        Target("gone.attr", "repro.exec.plan", "no_such_function"),
    )
    tracer = Tracer(targets).install()
    try:
        assert tracer.absent_layers() == ["gone.attr", "gone.class", "gone.module"]
        assert plan.dumps is not original
        if "dumps" in vars(parallel):
            assert parallel.dumps is plan.dumps  # by-name imports rebound too
        tracer.start()
        blob = plan.dumps({"x": 1})
        plan.dumps([1])
        tracer.stop()
        plan.dumps("not recorded")
    finally:
        tracer.uninstall()
    assert plan.dumps is original
    assert [s.name for s in tracer.spans] == ["plan.dumps", "plan.dumps"]
    assert tracer.spans[0].value == len(blob)

    absent_tr = Tracer(targets)
    absent_tr.absent = list(targets)  # every layer gone
    m = layer_metrics([], [], {}, units=1, absent=absent_tr.absent_layers())
    assert m["plan.dumps.calls"] is None and m["plan.dumps.bytes"] is None
    assert m["runtime.index_launch.calls"] == 0.0


def test_every_default_target_exists_on_this_tree():
    tracer = Tracer().install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert tr.TARGETS
