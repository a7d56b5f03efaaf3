"""Section 7, "Comparison to other model checkers".

Paper's findings, reproduced in shape with the offline stand-ins from
``tests/baselines`` (see DESIGN.md substitutions):

* SPIN explores an abstract model efficiently, but stores full states and
  runs out of memory (at 7 pings on their testbed).  Our SPIN-like checker
  stores the complete canonical state vector per state; the measured axis is
  the stored-bytes blow-up versus NICE's hashes.
* JPF models concurrency at thread/statement granularity and explores far
  more interleavings ("slower by a factor of 290 with 3 pings" as-is).  Our
  JPF-like checker makes every controller API call a scheduling point.
"""

from __future__ import annotations

import pytest

from repro import nice, scenarios
from baselines import JpfLikeSearcher, JpfSystem, SpinLikeSearcher

from .conftest import print_table


def nice_mc(pings: int):
    return nice.run(scenarios.ping_experiment(pings=pings))


def spin_like(pings: int, memory_limit=None):
    scenario = scenarios.ping_experiment(pings=pings)
    return SpinLikeSearcher(scenario.system_factory, scenario.config,
                            memory_limit=memory_limit).run()


def jpf_like(pings: int):
    scenario = scenarios.ping_experiment(pings=pings)

    def factory():
        system = JpfSystem(scenario.topo, scenario.app_factory(),
                           scenario.hosts_factory(), scenario.config)
        system.boot()
        return system

    return JpfLikeSearcher(factory, scenario.config).run()


@pytest.fixture(scope="module")
def comparison(ping_sizes):
    sizes = [p for p in ping_sizes if p <= 3]
    return {
        pings: (nice_mc(pings), spin_like(pings), jpf_like(pings))
        for pings in sizes
    }


def test_comparison_report(comparison):
    rows = []
    for pings, (mc, spin, jpf) in sorted(comparison.items()):
        rows.append([
            pings,
            f"{mc.transitions_executed} tr / {mc.wall_time:.1f}s",
            (f"{spin.transitions_executed} tr / {spin.wall_time:.1f}s / "
             f"{spin.stored_bytes // 1024} KiB stored"),
            f"{jpf.transitions_executed} tr / {jpf.wall_time:.1f}s",
        ])
    print_table(
        "Section 7: NICE-MC vs SPIN-like vs JPF-like",
        ["pings", "NICE-MC", "SPIN-like (full states)",
         "JPF-like (stmt interleaving)"],
        rows,
    )


def test_spin_like_memory_blowup(comparison):
    """Full-state storage costs orders of magnitude more than hashes."""
    for pings, (_mc, spin, _jpf) in comparison.items():
        assert spin.stored_bytes > 10 * spin.hash_bytes, (
            pings, spin.stored_bytes, spin.hash_bytes)


def test_spin_like_oom_mode():
    """With a bounded state store, SPIN-like aborts out-of-memory —
    the paper's 7-ping failure mode."""
    result = spin_like(2, memory_limit=50_000)
    assert result.out_of_memory


def test_jpf_like_explores_more_interleavings(comparison):
    """Statement-granularity scheduling explodes the transition count, and
    the gap widens with problem size (the paper's 290x at 3 pings)."""
    gaps = {}
    for pings, (mc, _spin, jpf) in comparison.items():
        assert jpf.transitions_executed > mc.transitions_executed
        gaps[pings] = jpf.transitions_executed / mc.transitions_executed
    if len(gaps) >= 2:
        sizes = sorted(gaps)
        assert gaps[sizes[-1]] > gaps[sizes[0]], gaps


def test_jpf_like_is_slower(comparison):
    largest = max(comparison)
    mc, _spin, jpf = comparison[largest]
    assert jpf.wall_time > mc.wall_time


@pytest.mark.benchmark(group="other-checkers")
def test_bench_nice_two_pings(benchmark):
    result = benchmark.pedantic(lambda: nice_mc(2), rounds=1, iterations=1)
    assert result.terminated == "exhausted"


@pytest.mark.benchmark(group="other-checkers")
def test_bench_spin_like_two_pings(benchmark):
    result = benchmark.pedantic(lambda: spin_like(2), rounds=1, iterations=1)
    assert result.unique_states > 0


@pytest.mark.benchmark(group="other-checkers")
def test_bench_jpf_like_two_pings(benchmark):
    result = benchmark.pedantic(lambda: jpf_like(2), rounds=1, iterations=1)
    assert result.unique_states > 0
