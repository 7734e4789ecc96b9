"""The idle-poll processes: idle priority, hidden from the workload's
process tree, and gone once the block ends."""

import os
import time

import measure


def _settled_policy(proc, timeout=10.0):
    """The scheduling class ``proc`` has put itself in, or None once it
    has exited (what it does where ``SCHED_IDLE`` is refused)."""
    deadline = time.monotonic() + timeout
    while proc.poll() is None:
        try:
            policy = os.sched_getscheduler(proc.pid)
        except ProcessLookupError:
            break
        if policy == os.SCHED_IDLE or time.monotonic() > deadline:
            return policy
        time.sleep(0.01)
    return None


def test_idle_poll_runs_at_idle_priority_and_stops():
    with measure.IdlePoll(2) as poll:
        pids = [p.pid for p in poll.procs]
        assert len(pids) == 2
        assert not set(pids) & measure.descendants(os.getpid())
        for proc in poll.procs:
            assert _settled_policy(proc) in (os.SCHED_IDLE, None)
    assert poll.procs == []
    for pid in pids:
        assert not measure._alive(pid)
