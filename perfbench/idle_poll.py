"""Keep one CPU busy at the lowest scheduling priority.

Run as ``python3 perfbench/idle_poll.py``; ``measure.IdlePoll`` starts one
per CPU for the length of a measured run.  The process puts itself in the
``SCHED_IDLE`` class, so it runs only when nothing else wants the CPU and
yields at once to any task that wakes.  It spins until it is terminated or
its parent exits.  Where ``SCHED_IDLE`` is not available it exits at once:
spinning at normal priority would take CPU from the measured processes.
"""

import os


def main() -> int:
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        return 0
    parent = os.getppid()
    while os.getppid() == parent:
        for _ in range(100_000):
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
