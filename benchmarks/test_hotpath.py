"""The per-state hot path: copy-on-write checkpointing + digest hashing.

Measures the two per-state costs Section 6 names — state hashing and
checkpointing — on the pyswitch (MAC-learning) workloads, and on
``loadbalancer-2`` (13 629 transitions; the row where component size
matters — the other two are tiny-state), for two engines:

* **product** — the engine: copy-on-write clones and per-component digest
  hashing (DESIGN.md, "Per-state hot path");
* **reference** — ``tests/reference_engine.py``: every checkpoint a deep
  copy, every hash rendered from scratch, nothing cached or shared — what
  the per-state path costs without its shortcuts (not run on
  ``loadbalancer-2``, where it would take most of a minute).

Per engine it records end-to-end search wall time, a clone-cost
microbenchmark, bytes actually hashed, and the digest/CoW counters, and
writes everything to ``BENCH_hotpath.json`` (at the repository root under
``NICE_BENCH_RECORD=1``, see ``conftest.py``).  The
headline assertion: the product beats the reference by >= 5x end-to-end on
pyswitch-direct-path, in process CPU seconds (measured ~15x; override the
floor with ``NICE_HOTPATH_SPEEDUP_FLOOR``).

It also records **per-call rows** for the methods a transition pays for
what it writes through (DESIGN.md, "Sub-forms and sealed packets": the
ownership rule) — calls and µs per call on one instrumented serial pass
over ``loadbalancer max_pkt_sequence=3`` — next to the same rows read off
the commit before part-level copy-on-write (``PER_CALL_BEFORE``).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from reference_engine import reference_factory, reference_run
from repro import nice, scenarios
from repro.config import NiceConfig
from repro.hosts.base import Host
from repro.mc.system import PacketLedger, System
from repro.openflow.switch import SwitchModel
from repro.scenarios import with_config

from .conftest import print_table

#: Engines under measurement: ``name -> (run a scenario, build its
#: initial system)``.
ENGINES = {
    "product": (nice.run, lambda scenario: scenario.system_factory()),
    "reference": (reference_run,
                  lambda scenario: reference_factory(scenario)()),
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
            ("product",), 3),
    }


def _one_run(scenario, engine):
    run, _ = ENGINES[engine]
    return run(with_config(scenario, stop_at_first_violation=False))


def _clone_cost(scenario, engine, clones: int = 2000) -> float:
    """Seconds per checkpoint clone of the booted initial state."""
    _, boot = ENGINES[engine]
    system = boot(scenario)
    start = time.perf_counter()
    for _ in range(clones):
        system.clone()
    return (time.perf_counter() - start) / clones


#: The methods timed per call: what a checkpoint copies and what a miss
#: assembles, per component, and the ledger's one writer.
PER_CALL_METHODS = [
    (System, "clone"), (SwitchModel, "clone"), (SwitchModel, "canonical"),
    (Host, "clone"), (Host, "canonical"), (PacketLedger, "clone"),
    (PacketLedger, "_record"),
]

#: The same rows at the parent commit (de0a6ba: a materialized switch
#: copied all five channels, a host five containers, the ledger six
#: lists), read with this instrument in the session that recorded the
#: committed ``BENCH_hotpath.json``.  ``PacketLedger._record`` had 69 625
#: calls there because ``log`` and ``history`` were appended to beside it.
PER_CALL_BEFORE = {
    "System.clone": {"calls": 133888, "us_per_call": 1.94},
    "SwitchModel.clone": {"calls": 78990, "us_per_call": 4.79},
    "SwitchModel.canonical": {"calls": 78991, "us_per_call": 8.83},
    "Host.clone": {"calls": 82146, "us_per_call": 1.86},
    "Host.canonical": {"calls": 82149, "us_per_call": 2.56},
    "PacketLedger.clone": {"calls": 69625, "us_per_call": 1.12},
    "PacketLedger._record": {"calls": 69625, "us_per_call": 3.67},
}


def _per_call_rows() -> dict:
    """``{"Class.method": {"calls", "us_per_call"}}`` over one serial
    ``lb3`` pass with a ``perf_counter_ns`` wrapper on each of
    :data:`PER_CALL_METHODS` (each read includes ~0.1 µs of wrapper)."""
    rows = {}
    clock = time.perf_counter_ns

    def timed(inner, row):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                row[1] += clock() - start
                row[0] += 1
        return wrapper

    scenario = with_config(
        scenarios.loadbalancer_scenario(
            config=NiceConfig(max_pkt_sequence=3)),
        stop_at_first_violation=False)
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in PER_CALL_METHODS:
            row = rows[f"{owner.__name__}.{name}"] = [0, 0]
            patch.setattr(owner, name, timed(getattr(owner, name), row))
        stats = nice.run(scenario)
    assert (stats.transitions_executed, stats.unique_states) == (133888, 43186)
    return {name: {"calls": calls,
                   "us_per_call": round(ns / calls / 1e3, 2)}
            for name, (calls, ns) in rows.items()}


@pytest.fixture(scope="module")
def hotpath_results(bench_output):
    results: dict[str, dict] = {}
    for workload, (build, engines, repeats) in _workloads().items():
        # Interleave the engines round-robin across the repeats so ambient
        # machine load inflates every engine's samples alike and best-of-N
        # ratios stay honest on noisy (CI) runners.
        best: dict[str, tuple[float, object]] = {
            engine: (float("inf"), None) for engine in engines
        }
        # The searches run in this process: its CPU seconds are a run's
        # whole cost, and a neighbour on the core does not inflate them.
        cpu_time = dict.fromkeys(engines, float("inf"))
        for _ in range(repeats):
            for engine in engines:
                scenario = build()
                start = time.process_time()
                result = _one_run(scenario, engine)
                cpu_time[engine] = min(cpu_time[engine],
                                       time.process_time() - start)
                if result.wall_time < best[engine][0]:
                    best[engine] = (result.wall_time, result)
        per_engine = {}
        for engine in engines:
            wall, stats = best[engine]
            per_engine[engine] = {
                "wall_time": wall,
                "cpu_time": cpu_time[engine],
                "clone_seconds": _clone_cost(build(), engine),
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
        "engines": {"product": "repro.nice.run",
                    "reference": "tests/reference_engine.py reference_run"},
        "workloads": results,
        "per_call": {
            "workload": "loadbalancer max_pkt_sequence=3, serial, one"
                        " instrumented pass",
            "before": PER_CALL_BEFORE,
            "after": _per_call_rows(),
        },
    }
    bench_output("hotpath").write_text(json.dumps(payload, indent=2) + "\n")
    return results


def test_hotpath_report(hotpath_results, bench_output):
    for workload, per_engine in hotpath_results.items():
        baseline = per_engine.get("reference")
        rows = []
        for engine, r in per_engine.items():
            rows.append([
                engine,
                f"{r['transitions']} / {r['unique_states']}",
                f"{r['wall_time']:.3f}s",
                f"{baseline['wall_time'] / r['wall_time']:.2f}x"
                if baseline else "-",
                f"{r['clone_seconds'] * 1e6:.0f}us",
                f"{r['bytes_hashed'] / 1e6:.2f}MB",
                f"{r['hash_hits']}/{r['hash_misses']}",
            ])
        print_table(
            f"Per-state hot path on {workload}",
            ["engine", "transitions / unique", "time", "vs reference",
             "clone", "hashed", "digest hit/miss"],
            rows,
        )
    print(f"\nwrote {bench_output('hotpath')}")


def _measured_on_both(hotpath_results):
    return {workload: per_engine
            for workload, per_engine in hotpath_results.items()
            if "reference" in per_engine}


def test_state_space_identical_across_engines(hotpath_results):
    for workload, per_engine in _measured_on_both(hotpath_results).items():
        reference, product = per_engine["reference"], per_engine["product"]
        assert product["transitions"] == reference["transitions"], (
            f"{workload}: the engines executed different transition counts")
        assert product["unique_states"] == reference["unique_states"], (
            f"{workload}: the engines explored different state spaces")


def _floor() -> float:
    return float(os.environ.get("NICE_HOTPATH_SPEEDUP_FLOOR", "5.0"))


def test_cow_digest_beats_pre_cow_baseline(hotpath_results):
    """The acceptance gate: >= 5x end-to-end on pyswitch-direct-path over
    the engine without copy-on-write or digests — the reference — in
    the process CPU seconds of the two in-process searches."""
    floor = _floor()
    per_engine = hotpath_results["pyswitch-direct-path"]
    speedup = (per_engine["reference"]["cpu_time"]
               / per_engine["product"]["cpu_time"])
    assert speedup >= floor, (
        f"the product is only {speedup:.2f}x over the from-scratch"
        f" reference on pyswitch-direct-path (floor {floor:.1f}x)")


def test_digest_mode_hashes_fewer_bytes(hotpath_results):
    for workload, per_engine in _measured_on_both(hotpath_results).items():
        product, reference = per_engine["product"], per_engine["reference"]
        # Cached digests re-digest only dirtied components, and the memo
        # renders only those whose form is new (~9x fewer bytes on the
        # 1-switch direct-path scenario, ~11x on ping).
        assert product["bytes_hashed"] < 0.7 * reference["bytes_hashed"], (
            f"{workload}: digest hashing should render fewer bytes")
    for workload, per_engine in hotpath_results.items():
        product = per_engine["product"]
        assert product["hash_hits"] > product["hash_misses"], (
            f"{workload}: the digest cache should mostly hit")
    # The digest memo renders a recomputed component only when its form
    # is not one of the last ~1 000 distinct ones: 2.4 MB on this row,
    # 13.5 MB when every recomputed component was rendered.
    rendered = hotpath_results["loadbalancer-2"]["product"]["bytes_hashed"]
    assert rendered < 4.0e6, (
        f"loadbalancer-2 rendered {rendered} B: is the digest memo off?")


def test_cow_clone_is_cheaper(hotpath_results):
    for workload, per_engine in _measured_on_both(hotpath_results).items():
        cow = per_engine["product"]["clone_seconds"]
        deep = per_engine["reference"]["clone_seconds"]
        assert deep / cow >= _floor(), (
            f"{workload}: a copy-on-write clone ({cow:.2e}s) should be at"
            f" least {_floor():.1f}x cheaper than a deep copy ({deep:.2e}s)")


def test_bench_file_written(hotpath_results, bench_output):
    data = json.loads(bench_output("hotpath").read_text())
    assert data["benchmark"] == "hotpath"
    assert set(data["workloads"]) == set(_workloads())


def test_a_checkpoint_copy_owns_no_part(hotpath_results, bench_output):
    """The per-call rows: the same components are copied and assembled as
    often as before (``cow_copied`` counts components, not parts), and a
    switch copy — five channel copies before, none now — costs under
    half of what it did (measured: a fifth)."""
    rows = json.loads(bench_output("hotpath").read_text())["per_call"]
    before, after = rows["before"], rows["after"]
    print_table(
        "Per call on lb3 (calls, us per call)",
        ["method", "before", "after"],
        [[name, f"{before[name]['calls']} x {before[name]['us_per_call']}",
          f"{after[name]['calls']} x {after[name]['us_per_call']}"]
         for name in before])
    for name in before:
        if name != "PacketLedger._record":
            assert after[name]["calls"] == before[name]["calls"], name
    assert (after["SwitchModel.clone"]["us_per_call"]
            < 0.5 * before["SwitchModel.clone"]["us_per_call"])
