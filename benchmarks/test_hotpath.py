"""The per-state hot path: copy-on-write checkpointing + digest hashing.

Measures the two per-state costs Section 6 names — state hashing and
checkpointing — across three engine configurations on the pyswitch
(MAC-learning) workloads, and on ``loadbalancer-2`` (13 629 transitions;
the row where component size matters — the other two are tiny-state —
without the ``seed`` engine, which would take most of a minute there):

* **cow+digest** — the new defaults: copy-on-write clones and per-component
  digest hashing (DESIGN.md, "Per-state hot path");
* **pre-cow** — the previous defaults (PR 2): eager component-wise clones
  and full md5-over-repr hashing (``cow_clone=False, hash_mode="full"``);
* **seed** — deepcopy checkpointing with no memoization at all.

Per engine it records end-to-end search wall time, a clone-cost
microbenchmark, bytes actually hashed, and the digest/CoW counters, and
writes everything to ``BENCH_hotpath.json`` at the repository root — the
first entry of the perf trajectory.  The headline assertion: cow+digest
beats the pre-cow baseline by >= 1.5x end-to-end on pyswitch-direct-path
(override the floor with ``NICE_HOTPATH_SPEEDUP_FLOOR``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro import nice, scenarios
from repro.config import NiceConfig
from repro.scenarios import with_config

from .conftest import print_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_hotpath.json"

#: Engine configurations under measurement.
ENGINES = {
    "cow+digest": {},
    "pre-cow": dict(cow_clone=False, hash_mode="full"),
    "seed": dict(cow_clone=False, fast_clone=False, hash_memoization=False,
                 hash_mode="full"),
}

REPEATS = 5


#: Workloads, as ``name -> (builder, engines measured, repeats)``: the
#: BUG-II scenario (symbolic client), the Table 1 MAC-learning ping
#: workload (scripted, symbolic execution off), and the load balancer with
#: two-packet sequences (fewer repeats: one round is ~2.5 s).
def _workloads():
    return {
        "pyswitch-direct-path": (
            lambda: scenarios.pyswitch_direct_path(), tuple(ENGINES), REPEATS),
        "ping-2": (
            lambda: scenarios.ping_experiment(pings=2), tuple(ENGINES),
            REPEATS),
        "loadbalancer-2": (
            lambda: scenarios.loadbalancer_scenario(
                config=NiceConfig(max_pkt_sequence=2)),
            ("cow+digest", "pre-cow"), 3),
    }


def _one_run(scenario, overrides):
    return nice.run(with_config(scenario, stop_at_first_violation=False,
                                **overrides))


def _clone_cost(scenario, overrides, clones: int = 2000) -> float:
    """Seconds per checkpoint clone of the booted initial state."""
    system = with_config(scenario, **overrides).system_factory()
    start = time.perf_counter()
    for _ in range(clones):
        system.clone()
    return (time.perf_counter() - start) / clones


@pytest.fixture(scope="module")
def hotpath_results():
    results: dict[str, dict] = {}
    for workload, (build, engines, repeats) in _workloads().items():
        # Interleave the engines round-robin across the repeats so ambient
        # machine load inflates every engine's samples alike and best-of-N
        # ratios stay honest on noisy (CI) runners.
        best: dict[str, tuple[float, object]] = {
            engine: (float("inf"), None) for engine in engines
        }
        for _ in range(repeats):
            for engine in engines:
                result = _one_run(build(), ENGINES[engine])
                if result.wall_time < best[engine][0]:
                    best[engine] = (result.wall_time, result)
        per_engine = {}
        for engine in engines:
            overrides = ENGINES[engine]
            wall, stats = best[engine]
            per_engine[engine] = {
                "wall_time": wall,
                "clone_seconds": _clone_cost(build(), overrides),
                "transitions": stats.transitions_executed,
                "unique_states": stats.unique_states,
                "bytes_hashed": stats.bytes_hashed,
                "hash_hits": stats.hash_hits,
                "hash_misses": stats.hash_misses,
                "cow_copied": stats.cow_copied,
            }
        results[workload] = per_engine
    payload = {
        "benchmark": "hotpath",
        "repeats": {name: repeats
                    for name, (_, _, repeats) in _workloads().items()},
        "engines": {name: dict(overrides) for name, overrides in
                    ENGINES.items()},
        "workloads": results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return results


def test_hotpath_report(hotpath_results):
    for workload, per_engine in hotpath_results.items():
        baseline = per_engine["pre-cow"]["wall_time"]
        rows = []
        for engine, r in per_engine.items():
            rows.append([
                engine,
                f"{r['transitions']} / {r['unique_states']}",
                f"{r['wall_time']:.3f}s",
                f"{baseline / r['wall_time']:.2f}x",
                f"{r['clone_seconds'] * 1e6:.0f}us",
                f"{r['bytes_hashed'] / 1e6:.2f}MB",
                f"{r['hash_hits']}/{r['hash_misses']}",
            ])
        print_table(
            f"Per-state hot path on {workload}",
            ["engine", "transitions / unique", "time", "vs pre-cow",
             "clone", "hashed", "digest hit/miss"],
            rows,
        )
    print(f"\nwrote {OUTPUT}")


def test_state_space_identical_across_engines(hotpath_results):
    for workload, per_engine in hotpath_results.items():
        reference = per_engine["pre-cow"]
        for engine, r in per_engine.items():
            assert r["transitions"] == reference["transitions"], (
                f"{workload}: {engine} executed a different transition count")
            assert r["unique_states"] == reference["unique_states"], (
                f"{workload}: {engine} explored a different state space")


def test_cow_digest_beats_pre_cow_baseline(hotpath_results):
    """The acceptance gate: >= 1.5x end-to-end on pyswitch-direct-path."""
    floor = float(os.environ.get("NICE_HOTPATH_SPEEDUP_FLOOR", "1.5"))
    per_engine = hotpath_results["pyswitch-direct-path"]
    speedup = (per_engine["pre-cow"]["wall_time"]
               / per_engine["cow+digest"]["wall_time"])
    assert speedup >= floor, (
        f"cow+digest is only {speedup:.2f}x over the pre-CoW baseline"
        f" on pyswitch-direct-path (floor {floor:.1f}x)")


def test_digest_mode_hashes_fewer_bytes(hotpath_results):
    for workload, per_engine in hotpath_results.items():
        new = per_engine["cow+digest"]
        baseline = per_engine["pre-cow"]
        # Digest mode re-renders only dirtied components; how much that
        # saves depends on how much of the state one transition touches
        # (~1.7x on the 1-switch direct-path scenario, ~5x on ping).
        assert new["bytes_hashed"] < 0.7 * baseline["bytes_hashed"], (
            f"{workload}: digest hashing should render fewer bytes")
        assert new["hash_hits"] > new["hash_misses"], (
            f"{workload}: the digest cache should mostly hit")


def test_cow_clone_is_cheaper(hotpath_results):
    for workload, per_engine in hotpath_results.items():
        costs = [per_engine[engine]["clone_seconds"]
                 for engine in ENGINES if engine in per_engine]
        assert all(a < b for a, b in zip(costs, costs[1:])), (
            f"{workload}: expected clone cost cow < eager < deepcopy,"
            f" got {' / '.join(f'{cost:.2e}' for cost in costs)}")


def test_bench_file_written(hotpath_results):
    data = json.loads(OUTPUT.read_text())
    assert data["benchmark"] == "hotpath"
    assert set(data["workloads"]) == set(_workloads())
