"""Cheap checkpointing and the parallel engine on Table-1-style workloads.

The seed searcher checkpointed every frontier state with ``copy.deepcopy``
and re-canonicalized the full state on every hash.  This suite measures the
engine (copy-on-write clones + cached digests, DESIGN.md "Per-state hot
path") against the reference engine that still works that way
(``tests/reference_engine.py``) on the layer-2 ping workload
of Table 1, asserting the >= 2x speedup the optimization is meant to
deliver (hard floor on the nightly multi-core runner via
``NICE_FAST_ENGINE_SPEEDUP_FLOOR=2.0``; a jitter-tolerant 1.5x floor
elsewhere — shared containers measure ~1.8-2.3x run to run), and reports
the parallel engine's numbers alongside.  Timing rows are best-of-3
(``REPEATS``); the speedup divides the two serial searches' process CPU
seconds, which a neighbour on the core does not inflate.

On single-core runners (CI containers) ``workers=4`` cannot beat serial —
restoration work is extra CPU with no extra CPU to run it on — so by
default the parallel row asserts state-space equality and reports timing,
and the speedup assertion is gated on available cores.  The nightly
``multicore-parallel`` CI job runs on a multi-core runner with
``NICE_REQUIRE_MULTICORE=1`` (skipping becomes *failing*, so a mis-sized
runner cannot silently pass) and ``NICE_PARALLEL_SPEEDUP_FLOOR=2.0``,
turning the gate into a real >=2x wall-clock assertion.
"""

from __future__ import annotations

import os
import time

import pytest

from reference_engine import reference_run
from repro import nice, scenarios
from repro.scenarios import with_config

from .conftest import available_cores, large_runs_enabled, print_table

#: Ping count for the measured workload: row 1 of Table 1 by default, row 2
#: when NICE_BENCH_LARGE=1.
PINGS = 3 if large_runs_enabled() else 2


#: Timing repetitions per engine.  Wall-clock assertions compare the
#: *best* of these runs — the standard benchmarking defence against
#: scheduler noise (a single sample of the sub-second serial engines
#: jitters across the 2x threshold on a busy runner).  Counters are
#: identical across repetitions, so the equality assertions are
#: unaffected by which run is kept.
REPEATS = 3


def best_of(config_kwargs: dict, scenario_factory, run=nice.run):
    """``(stats, cpu_s)`` over REPEATS runs: the stats of the run with the
    least wall time, and the least process CPU seconds any run took — a
    serial search's whole cost, since it runs in this process; a pool's
    master share only."""
    runs = []
    for _ in range(REPEATS):
        scenario = with_config(scenario_factory(), **config_kwargs)
        start = time.process_time()
        stats = run(scenario)
        runs.append((stats, time.process_time() - start))
    return (min(runs, key=lambda r: r[0].wall_time)[0],
            min(cpu_s for _, cpu_s in runs))


@pytest.fixture(scope="module")
def measured():
    def scenario():
        return scenarios.ping_experiment(pings=PINGS)
    seed = best_of({}, scenario, run=reference_run)
    fast = best_of({}, scenario)
    # The registry spec makes the pool work on every platform: fork where
    # available, spawn otherwise (DESIGN.md, "Scheduler and transports").
    workers = best_of(dict(workers=4), scenario)
    return {"seed": seed, "fast": fast, "workers4": workers}


@pytest.fixture(scope="module")
def engine_results(measured):
    return {label: stats for label, (stats, _) in measured.items()}


def test_checkpointing_report(engine_results):
    rows = []
    baseline = engine_results["seed"].wall_time
    for label, result in engine_results.items():
        rows.append([
            label,
            f"{result.transitions_executed} / {result.unique_states}",
            f"{result.replayed_transitions + result.rebuilt_transitions}",
            f"{result.wall_time:.2f}s",
            f"{baseline / result.wall_time:.2f}x",
        ])
    print_table(
        f"Checkpointing engines on the {PINGS}-ping workload (Table 1 row)",
        ["engine", "transitions / unique", "restore", "time", "vs seed"],
        rows,
    )


def test_fast_engine_at_least_2x_over_seed(measured):
    """The full 2x contract is enforced where timing is trustworthy: the
    nightly ``multicore-parallel`` job pins NICE_FAST_ENGINE_SPEEDUP_FLOOR
    to 2.0 on a real multi-core runner.  The default floor tolerates the
    scheduler jitter of shared/1-core containers, where the sub-second
    serial runs measure ~1.8-2.3x run to run.  Both searches run in this
    process: their CPU seconds are divided, not their wall times."""
    floor = float(os.environ.get("NICE_FAST_ENGINE_SPEEDUP_FLOOR", "1.5"))
    (seed, seed_cpu_s), (fast, fast_cpu_s) = \
        measured["seed"], measured["fast"]
    assert fast.unique_states == seed.unique_states
    assert fast.transitions_executed == seed.transitions_executed
    speedup = seed_cpu_s / fast_cpu_s
    assert speedup >= floor, (
        f"only {speedup:.2f}x over the seed searcher (floor {floor:.1f}x)")


def test_parallel_explores_identical_space(engine_results):
    serial, parallel = engine_results["fast"], engine_results["workers4"]
    assert parallel.unique_states == serial.unique_states
    assert parallel.transitions_executed == serial.transitions_executed
    assert parallel.quiescent_states == serial.quiescent_states


def test_parallel_speedup_with_real_cores(engine_results):
    """Gated off on 1-core runners; the nightly multicore-parallel CI job
    makes it a hard >=2x assertion (see module docstring)."""
    cores = len(available_cores())
    required = os.environ.get("NICE_REQUIRE_MULTICORE", "") == "1"
    if cores < 4:
        if required:
            pytest.fail(
                f"NICE_REQUIRE_MULTICORE=1 but only {cores} core(s) —"
                f" the multi-core job is running on the wrong runner")
        pytest.skip(f"needs >= 4 cores (have {cores})")
    floor = float(os.environ.get("NICE_PARALLEL_SPEEDUP_FLOOR", "1.0"))
    serial, parallel = engine_results["fast"], engine_results["workers4"]
    speedup = serial.wall_time / parallel.wall_time
    assert speedup > floor, (
        f"workers=4 is only {speedup:.2f}x over serial on {cores} cores"
        f" (floor {floor:.1f}x)")
