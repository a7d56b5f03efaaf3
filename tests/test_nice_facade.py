"""Tests for the NICE facade and the predefined scenarios."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import nice, scenarios
from repro.config import NiceConfig
from repro.mc import transitions as tk


class TestScenarioObject:
    def test_factories_produce_fresh_state(self):
        scenario = scenarios.pyswitch_loop()
        a = scenario.system_factory()
        b = scenario.system_factory()
        assert a is not b
        assert a.state_hash() == b.state_hash()
        send = [t for t in a.enabled_transitions()
                if t.kind == tk.HOST_SEND][0]
        a.execute(send)
        assert a.state_hash() != b.state_hash()

    def test_searcher_has_symbolic_engine_when_configured(self):
        with_se = scenarios.pyswitch_direct_path().make_searcher()
        assert with_se.discoverer is not None
        without = scenarios.ping_experiment(pings=1).make_searcher()
        assert without.discoverer is None

    def test_all_builders_construct(self):
        builders = [
            scenarios.ping_experiment,
            scenarios.pyswitch_mobile,
            scenarios.pyswitch_direct_path,
            scenarios.pyswitch_loop,
            scenarios.loadbalancer_scenario,
            scenarios.energy_te_scenario,
        ]
        for builder in builders:
            scenario = builder()
            system = scenario.system_factory()
            # Purely-symbolic scenarios get their sends from the searcher's
            # discover_packets, so the base enabled set may be empty.
            assert (system.enabled_transitions()
                    or scenario.config.use_symbolic_execution)


class TestRunAndReplay:
    def test_run_returns_statistics(self):
        result = nice.run(scenarios.ping_experiment(pings=1))
        assert result.terminated == "exhausted"
        assert result.transitions_executed > 0
        assert result.unique_states > 0
        assert "transitions executed" in result.summary()

    def test_every_violation_trace_replays(self):
        scenario = scenarios.pyswitch_loop()
        result = nice.run(scenario)
        for violation in result.violations:
            replayed = nice.replay(scenario, violation.trace,
                                   expected_hash=violation.state_hash)
            assert replayed.state_hash() == violation.state_hash

    def test_violation_detection_is_deterministic(self):
        first = nice.run(scenarios.pyswitch_loop())
        second = nice.run(scenarios.pyswitch_loop())
        assert first.transitions_executed == second.transitions_executed
        assert (first.violations[0].trace == second.violations[0].trace)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 1000))
    def test_random_walks_never_crash(self, seed):
        result = nice.random_walk(scenarios.ping_experiment(pings=2),
                                  steps=60, seed=seed)
        assert result.transitions_executed <= 60

    def test_search_determinism_across_orders(self):
        # DFS and BFS must agree on the reachable state count (same graph).
        dfs = nice.run(scenarios.ping_experiment(pings=2))
        bfs = nice.run(scenarios.ping_experiment(
            pings=2, config=NiceConfig(search_order="bfs")))
        assert dfs.unique_states == bfs.unique_states


class TestConfigValidation:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            NiceConfig(strategy="TELEPORT")

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            NiceConfig(search_order="spiral")

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            NiceConfig(max_pkt_sequence=-1)
        with pytest.raises(ValueError):
            NiceConfig(max_outstanding=0)
