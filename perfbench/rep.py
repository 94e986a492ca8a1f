"""One repetition of one workload, in a fresh interpreter.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/rep.py --workload NAME --seed N --scale full \
        --dir REP_DIR --trace 0|1 [--setup-only]

Prints ``ready`` once set up, so the parent can time set-up from
process start.  Then it times the first and the second submission,
stops what set-up started, and writes ``REP_DIR/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from probes import Tracer, install

        tracer = Tracer(args.dir / "trace")
        install(tracer)
    workload = WORKLOADS[args.workload](
        args.seed, args.scale, args.dir, traced=bool(args.trace)
    )
    workload.setup()
    cpu0 = _cpu_s()
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        t0 = time.perf_counter()
        workload.first()
        t1 = time.perf_counter()
        workload.second()
        t2 = time.perf_counter()
    finally:
        workload.teardown()
    cpu_s = _cpu_s() - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.flush()
    result = {
        "sweep_s": t1 - t0,
        "resubmit_s": t2 - t1,
        "windows": {"first": [t0, t1], "second": [t1, t2]},
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "slots": workload.slots,
        "main_pid": os.getpid(),
        "clock_offset": time.time() - time.perf_counter(),
        "outputs": workload.outputs(),
    }
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
