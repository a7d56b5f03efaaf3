"""Ablations of NICE's own design choices (DESIGN.md section 5).

Not a paper table — these benches quantify the individual mechanisms the
paper claims matter:

* state matching on/off (hash-dedup vs naive re-exploration);
* the PKT-SEQ bounds (sequence length and outstanding-burst sweep);
* the symbolic-execution path budget vs discovered equivalence classes;
* concolic-engine overhead accounting (handler runs, solver calls).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import nice, scenarios
from repro.config import NiceConfig
from repro.sym.engine import ConcolicEngine

from .conftest import print_table


# ----------------------------------------------------------------------
# State matching
# ----------------------------------------------------------------------

def run_ping(pings: int, state_matching: bool, max_transitions=None):
    config = NiceConfig(state_matching=state_matching,
                        max_transitions=max_transitions)
    return nice.run(scenarios.ping_experiment(pings=pings, config=config))


def test_state_matching_prunes_revisits():
    with_matching = run_ping(2, True)
    without = run_ping(2, False, max_transitions=20000)
    print_table(
        "Ablation: state matching",
        ["mode", "transitions", "terminated"],
        [["hash dedup", with_matching.transitions_executed,
          with_matching.terminated],
         ["no dedup", without.transitions_executed, without.terminated]],
    )
    assert with_matching.terminated == "exhausted"
    # Without state matching the search re-explores joins and blows past
    # the budget that the deduplicated search finishes well within.
    assert (without.terminated == "max_transitions"
            or without.transitions_executed
            > with_matching.transitions_executed)


# ----------------------------------------------------------------------
# PKT-SEQ bounds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("max_seq", [1, 2, 3])
def test_pkt_seq_sequence_bound_scales_space(max_seq):
    config = NiceConfig(max_pkt_sequence=max_seq, max_outstanding=2)
    scenario = scenarios.pyswitch_direct_path(config=config)
    result = nice.run(scenario)
    print(f"max_pkt_sequence={max_seq}: {result.transitions_executed} "
          f"transitions, violation={result.found_violation}")
    if max_seq >= 2:
        # BUG-II's exchange: A sends, B echoes, A's *second* packet goes to
        # the controller although the direct path exists.
        assert result.found_violation
    else:
        # With a single send per host the exchange cannot complete.
        assert not result.found_violation


def test_outstanding_bound_limits_concurrency():
    rows = []
    transitions = []
    for burst in (1, 2, 3):
        scenario = scenarios.ping_experiment(pings=3, max_outstanding=burst)
        result = nice.run(scenario)
        rows.append([burst, result.transitions_executed,
                     result.unique_states])
        transitions.append(result.transitions_executed)
    print_table("Ablation: PKT-SEQ outstanding-burst bound",
                ["burst", "transitions", "unique states"], rows)
    assert transitions == sorted(transitions)


# ----------------------------------------------------------------------
# Symbolic-execution budget (Section 9's coverage/overhead trade-off)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("max_paths", [8, 64])
def test_symbolic_path_budget_finds_bug(max_paths):
    searcher = scenarios.pyswitch_direct_path().make_searcher()
    searcher.discoverer = ConcolicEngine(max_paths=max_paths)
    result = searcher.run()
    print(f"max_paths={max_paths}: violation={result.found_violation}, "
          f"transitions={result.transitions_executed}")
    assert result.found_violation


def test_symbolic_path_budget_controls_coverage():
    """Fewer concolic runs discover fewer equivalence classes — Section 9's
    coverage-versus-overhead dial, measured at the engine level."""
    scenario = scenarios.pyswitch_direct_path()
    system = scenario.system_factory()
    host = system.hosts["A"]
    classes = {}
    for budget in (1, 2, 8, 64):
        engine = ConcolicEngine(max_paths=budget)
        packets = engine.discover_packets(system.app, "s1", 1,
                                          system.topo, host)
        classes[budget] = len(packets)
        print(f"max_paths={budget}: {len(packets)} classes, "
              f"{engine.handler_runs} handler runs")
    budgets = sorted(classes)
    assert classes[1] == 1
    assert all(classes[a] <= classes[b]
               for a, b in zip(budgets, budgets[1:]))
    assert classes[64] > classes[1]


def test_concolic_overhead_accounting():
    engine = ConcolicEngine(max_paths=64)
    scenario = scenarios.pyswitch_direct_path()
    system = scenario.system_factory()
    host = system.hosts["A"]
    packets = engine.discover_packets(system.app, "s1", 1, system.topo, host)
    print(f"discovered {len(packets)} equivalence classes with "
          f"{engine.handler_runs} handler runs and "
          f"{engine.solver_calls} solver calls")
    assert engine.handler_runs >= len(packets)
    assert engine.solver_calls > 0


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------

@pytest.mark.benchmark(group="ablations")
def test_bench_state_hashing(benchmark):
    scenario = scenarios.ping_experiment(pings=2)
    system = scenario.system_factory()
    benchmark(system.state_hash)


@pytest.mark.benchmark(group="ablations")
def test_bench_system_clone(benchmark):
    scenario = scenarios.ping_experiment(pings=2)
    system = scenario.system_factory()
    benchmark(system.clone)


@pytest.mark.benchmark(group="ablations")
def test_bench_discover_packets(benchmark):
    scenario = scenarios.pyswitch_direct_path()
    system = scenario.system_factory()
    host = system.hosts["A"]

    def discover():
        return ConcolicEngine(max_paths=64).discover_packets(
            system.app, "s1", 1, system.topo, host)

    packets = benchmark(discover)
    assert packets
