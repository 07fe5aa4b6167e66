"""One fresh benchmark process: set a workload up, optionally time it.

Usage (run by ``run.py``; the working directory is the checkout root)::

    python3 perfbench/child.py ROLE WORKLOAD WORKDIR SECONDS TRACE FIRST_CPU

ROLE is ``populate`` (untimed store fill), ``setup`` (time set-up
only) or ``timed`` (set up, then run the timed part).  Inputs come from
``WORKDIR/inputs.pkl``, written by the parent.  The last stdout line is
one JSON object.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import threading
from itertools import cycle
from time import perf_counter, sleep

#: seconds the process stays on one CPU before all its threads move on
ROTATE_SECONDS = 0.5


def rotate_cpus(first: int) -> None:
    """Keep the whole process on one CPU at a time, moving it round-robin.

    One CPU at a time: the GIL lets one thread run at a time anyway, and
    hand-offs between threads on two CPUs wait on cross-CPU wake-ups,
    whose delay swings with the host's load far more than single-thread
    speed does.  Round-robin: each CPU's speed drifts with its own
    neighbours' load, for minutes at a time, so a process that stayed on
    one CPU would measure that CPU's current phase; moving every
    ``ROTATE_SECONDS`` makes every run sample all CPUs alike.
    """
    cpus = sorted(os.sched_getaffinity(0))
    order = cpus[first % len(cpus):] + cpus[:first % len(cpus)]

    def move(cpu: int) -> None:
        for tid in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:  # the thread ended after the listing
                pass

    def loop() -> None:
        for cpu in cycle(order[1:] + order[:1]):
            sleep(ROTATE_SECONDS)
            move(cpu)

    move(order[0])
    if len(order) > 1:
        threading.Thread(target=loop, name="perfbench-cpu-rotation",
                         daemon=True).start()


def main(argv: list[str]) -> int:
    role, workload, workdir, seconds, trace_flag, first_cpu = argv[:6]
    rotate_cpus(int(first_cpu))
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import repro  # noqa: F401  (imports finish before set-up is timed)
    import repro.service
    import repro.stream
    import workloads

    with open(os.path.join(workdir, "inputs.pkl"), "rb") as fh:
        inp = pickle.load(fh)
    setup, timed, populate = workloads.WORKLOADS[workload]
    if role == "populate":
        populate(inp, workdir)
        print(json.dumps({"ok": True}))
        return 0

    trace = None
    if role == "timed" and trace_flag == "1":
        from spans import Tracer

        trace = Tracer(workload)
        trace.install()
        with trace.op("setup"):
            t0 = perf_counter()
            ok, state = setup(inp, workdir)
            setup_s = perf_counter() - t0
        trace.uninstall()
        trace.mark_setup()
    else:
        t0 = perf_counter()
        ok, state = setup(inp, workdir)
        setup_s = perf_counter() - t0
    out: dict = {"setup_s": setup_s, "setup_ok": bool(ok)}
    if role == "timed":
        out.update(timed(inp, state, float(seconds), trace))
        if trace is not None:
            out["trace"] = trace.report()
    elif state is not None:
        state.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
