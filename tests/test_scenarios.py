"""Tests for the predefined scenario builders."""

import pytest

from repro import scenarios
from repro.config import NiceConfig


class TestPingExperiment:
    def test_symbolic_execution_forced_off(self):
        scenario = scenarios.ping_experiment(
            pings=2, config=NiceConfig(use_symbolic_execution=True))
        assert not scenario.config.use_symbolic_execution

    def test_bounds_sized_to_workload(self):
        scenario = scenarios.ping_experiment(pings=3)
        assert scenario.config.max_pkt_sequence >= 6
        assert scenario.config.max_outstanding >= 3

    def test_explicit_bounds_respected(self):
        scenario = scenarios.ping_experiment(pings=3, max_outstanding=1,
                                             max_pkt_sequence=4)
        assert scenario.config.max_outstanding == 1
        assert scenario.config.max_pkt_sequence == 4

    def test_concurrent_unordered_script(self):
        hosts = scenarios.ping_experiment(pings=3).hosts_factory()
        client = hosts[0]
        assert not client.ordered_script
        assert len(client.script) == 3

    def test_payload_tags_by_default(self):
        hosts = scenarios.ping_experiment(pings=2).hosts_factory()
        payloads = {p.payload for p in hosts[0].script}
        assert payloads == {"ping0", "ping1"}

    def test_identical_pings_mode(self):
        hosts = scenarios.ping_experiment(
            pings=2, identical_pings=True).hosts_factory()
        payloads = {p.payload for p in hosts[0].script}
        assert payloads == {"ping"}

    def test_distinct_flows_use_distinct_macs(self):
        hosts = scenarios.ping_experiment(
            pings=2, distinct_flows=True).hosts_factory()
        sources = {p.eth_src.canonical() for p in hosts[0].script}
        assert len(sources) == 2

    @pytest.mark.parametrize("strategy", ["PKT-SEQ", "FLOW-IR"])
    def test_ping_grouping_whatever_the_strategy(self, strategy):
        """The grouping is the scenario's, not the config's: a scenario
        built under any strategy and switched to FLOW-IR later keeps it,
        and so does the copy a worker rebuilds from the spec."""
        from repro.mc.wire import searcher_from_spec
        from repro.scenarios import _ping_is_same_flow

        scenario = scenarios.ping_experiment(
            pings=2, config=NiceConfig(strategy=strategy))
        assert scenario.is_same_flow is _ping_is_same_flow
        flow_ir = scenario.with_config(strategy="FLOW-IR")
        assert flow_ir.make_searcher()._strategy.is_same_flow \
            is _ping_is_same_flow
        assert searcher_from_spec(flow_ir.spec)._strategy.is_same_flow \
            is _ping_is_same_flow

    def test_ping_grouping_tags(self):
        from repro.scenarios import _ping_is_same_flow
        from repro.openflow.packet import l2_ping, l2_pong
        from repro.scenarios import MAC_A, MAC_B

        ping0 = l2_ping(MAC_A, MAC_B, payload="ping0")
        ping1 = l2_ping(MAC_A, MAC_B, payload="ping1")
        pong0 = l2_pong(ping0)
        assert _ping_is_same_flow(ping0, pong0)
        assert not _ping_is_same_flow(ping0, ping1)


class TestBugScenarios:
    def test_mobile_scenario_has_move(self):
        hosts = scenarios.pyswitch_mobile().hosts_factory()
        mobile = [h for h in hosts if h.move_targets()]
        assert len(mobile) == 1
        assert mobile[0].move_targets() == [("s1", 3)]

    def test_loop_scenario_topology_is_cyclic(self):
        scenario = scenarios.pyswitch_loop()
        graph = scenario.topo.switch_graph()
        assert all(len(neighbors) == 2 for neighbors in graph.values())


    def test_te_paths_share_egress(self):
        from repro.scenarios import _te_tables

        always_on, on_demand = _te_tables()
        for ip in always_on:
            assert always_on[ip][0][0] == "s1"
            assert on_demand[ip][0][0] == "s1"
            assert always_on[ip][-1][0] == on_demand[ip][-1][0] == "s2"
            assert any(sw == "s3" for sw, _ in on_demand[ip])

    def test_lb_concrete_mode_scripts_handshake(self):
        scenario = scenarios.loadbalancer_scenario(symbolic=False)
        client = scenario.hosts_factory()[0]
        assert len(client.script) == 2
        assert not client.symbolic_client

    def test_arp_script_option(self):
        scenario = scenarios.loadbalancer_scenario(use_arp_script=True)
        hosts = scenario.hosts_factory()
        r1 = [h for h in hosts if h.name == "R1"][0]
        assert len(r1.script) == 1
        assert r1.script[0].arp_op == 1


def _hashes_counters(scenario) -> set:
    """Whether each switch of ``scenario``'s initial state hashes its
    counters."""
    return {switch.hash_counters
            for switch in scenario.system_factory().switches.values()}


class TestCounterHashingIsDerived:
    """A switch hashes its counters exactly when the app overrides
    ``App.port_stats_in``, the one handler counters reach."""

    def test_te_scenario_hashes_counters(self):
        # The stats handler branches on counters: merging across their
        # values would be unsound.
        assert _hashes_counters(scenarios.energy_te_scenario()) == {True}

    @pytest.mark.parametrize("builder", [
        scenarios.ping_experiment, scenarios.loadbalancer_scenario,
        scenarios.pyswitch_direct_path])
    def test_apps_without_a_stats_handler_do_not(self, builder):
        assert _hashes_counters(builder()) == {False}

    def test_an_app_overriding_port_stats_in_does(self):
        from repro.apps.pyswitch import PySwitch
        from repro.controller.app import App, observes_counters

        class StatsReader(PySwitch):
            def port_stats_in(self, api, sw_id, stats, xid=0):
                pass

        assert observes_counters(StatsReader())
        assert not observes_counters(PySwitch()) \
            and not observes_counters(App())
        scenario = scenarios.ping_experiment(pings=1,
                                             app_factory=StatsReader)
        assert _hashes_counters(scenario) == {True}
