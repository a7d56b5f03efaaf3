"""One row of the scaling record, measured in a process of its own.

``python benchmarks/scaling_row.py '{"workers": 2, "transport": "socket"}'``
exhausts ``loadbalancer max_pkt_sequence=3`` (the search benchmark's
``lb3``) on the given engine and prints one JSON object: the state-space
counts, wall, CPU (this process plus the workers it reaped), peak RSS and
this process's own collector time.  A fresh interpreter per row is what
makes CPU and peak RSS the row's alone — ``benchmarks/test_scaling.py``
starts it with ``gc_probe.child_env``, so the workers leave their own
records beside it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from gc_probe import GcMeter
from repro import nice, scenarios
from repro.config import NiceConfig


def _cpu_seconds() -> float:
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


def measure(engine: dict) -> dict:
    scenario = scenarios.loadbalancer_scenario(config=NiceConfig(
        max_pkt_sequence=3, stop_at_first_violation=False, **engine))
    meter = GcMeter()
    meter.start()
    cpu, self_cpu = _cpu_seconds(), time.process_time()
    began = time.perf_counter()
    stats = nice.run(scenario)
    wall = time.perf_counter() - began
    return {
        "terminated": stats.terminated,
        "transitions": stats.transitions_executed,
        "unique": stats.unique_states,
        "revisited": stats.revisited_states,
        "quiescent": stats.quiescent_states,
        "wall_s": wall,
        "cpu_s": _cpu_seconds() - cpu,
        "self_cpu_s": time.process_time() - self_cpu,
        "peak_rss_mb": max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF,
                        resource.RUSAGE_CHILDREN)) / 1024,
        "self": meter.stop(),
    }


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
