"""One sample of one workload, in a process of its own.

``run.py`` starts this file once per sample so that ``setup_s`` (process
start to ready-to-search) and ``peak_rss_mb`` belong to that sample alone.
The last line of standard output is one JSON object: the timings, the
observation of every search for the correctness gate, and — with
``--trace`` — the per-layer metrics of the traced region.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from workloads import ALL_WORKLOADS, warm_up

import trace as layer_trace


def cpu_seconds() -> tuple[float, float]:
    """(this process, this process plus its reaped children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    mine = own.ru_utime + own.ru_stime
    return mine, mine + children.ru_utime + children.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=list(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="empty scratch directory of this sample")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.perf_counter() at spawn")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once ready to search (setup_s samples)")
    parser.add_argument("--trace-out", type=Path,
                        help="trace the timed region; write spans here")
    args = parser.parse_args()

    traced = args.trace_out is not None
    workload = ALL_WORKLOADS[args.workload](args.workdir, traced=traced)
    workload.prepare()
    # perf_counter is CLOCK_MONOTONIC on Linux: one clock for parent and
    # child, so the interpreter's own start-up is inside the interval.
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": time.perf_counter() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    warm_up()
    tracer = None
    if traced:
        # After the warm-up, so the traced region is the timed region.
        tracedir = args.workdir / "trace"
        tracedir.mkdir()
        tracer = layer_trace.Tracer(tracedir)
        layer_trace.install(tracer)
    gc.collect()
    cpu_self, cpu_all = cpu_seconds()
    start = time.perf_counter()
    searches = workload.run(args.seed)
    wall_s = time.perf_counter() - start
    cpu_self_after, cpu_all_after = cpu_seconds()

    peak_rss_kb = max(  # ru_maxrss is KiB on Linux; 0 with no children
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_all_after - cpu_all,
        cpu_self_s=cpu_self_after - cpu_self,
        peak_rss_mb=peak_rss_kb / 1024,
        searches=searches,
    )
    if tracer is not None:
        collated = tracer.collate()
        result["layers"] = layer_trace.layer_metrics(
            collated, workload.stats, wall_s, workload.workers,
            cumulative=workload.cumulative_stats)
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps(
            {"workload": args.workload, "wall_s": wall_s, **collated}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
