"""Unit tests for the search strategies (Section 4)."""

import pytest

from contract import requires_fork
from repro import nice, scenarios
from repro.config import NiceConfig
from repro.mc import transitions as tk
from repro.mc.strategies import (
    FlowIRStrategy,
    NoDelayStrategy,
    Strategy,
    UnusualStrategy,
    default_is_same_flow,
    make_strategy,
)
from repro.mc.transitions import Transition
from repro.openflow.packet import MacAddress, l2_ping

MAC_A = MacAddress.from_string("00:00:00:00:00:01")
MAC_B = MacAddress.from_string("00:00:00:00:00:02")


def ping_system(pings=1):
    return scenarios.ping_experiment(pings=pings).system_factory()


class TestFactory:
    def test_make_strategy_by_name(self):
        assert isinstance(make_strategy(NiceConfig()), Strategy)
        assert isinstance(make_strategy(NiceConfig(strategy="NO-DELAY")),
                          NoDelayStrategy)
        assert isinstance(make_strategy(NiceConfig(strategy="UNUSUAL")),
                          UnusualStrategy)
        assert isinstance(make_strategy(NiceConfig(strategy="FLOW-IR")),
                          FlowIRStrategy)

    def test_flow_ir_picks_app_hook(self):
        class AppWithHook:
            @staticmethod
            def is_same_flow(a, b):
                return True

        strategy = make_strategy(NiceConfig(strategy="FLOW-IR"),
                                 AppWithHook())
        assert strategy.is_same_flow is AppWithHook.is_same_flow
        # The app's own hook wins over the scenario's.
        strategy = make_strategy(NiceConfig(strategy="FLOW-IR"),
                                 AppWithHook(), default_is_same_flow)
        assert strategy.is_same_flow is AppWithHook.is_same_flow

    def test_flow_ir_takes_the_scenarios_hook_for_a_hookless_app(self):
        def grouping(a, b):
            return True

        strategy = make_strategy(NiceConfig(strategy="FLOW-IR"), object(),
                                 grouping)
        assert strategy.is_same_flow is grouping

    def test_flow_ir_falls_back_to_default(self):
        strategy = make_strategy(NiceConfig(strategy="FLOW-IR"))
        assert strategy.is_same_flow is default_is_same_flow


class TestPingGroupingUnderFlowIr:
    """FLOW-IR on ``ping`` groups each ping with its pong however the
    strategy was chosen — at build time, or on the built scenario —
    serially and on workers, which rebuild the grouping from the spec."""

    ROUTES = {
        "at-build": lambda: scenarios.ping_experiment(
            pings=2, config=NiceConfig(strategy="FLOW-IR")),
        "with-config": lambda: scenarios.ping_experiment(
            pings=2).with_config(strategy="FLOW-IR"),
    }

    @pytest.mark.parametrize("engine", [
        pytest.param({}, id="serial"),
        pytest.param(dict(workers=2, start_method="fork"),
                     marks=requires_fork, id="fork2"),
        pytest.param(dict(workers=2, start_method="spawn"), id="spawn2"),
    ])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_both_routes_explore_the_grouped_space(self, route, engine):
        stats = nice.run(self.ROUTES[route]().with_config(**engine))
        assert (stats.transitions_executed, stats.unique_states) \
            == (570, 394)


class TestDefaultGrouping:
    def test_microflow_identity(self):
        a = l2_ping(MAC_A, MAC_B)
        b = l2_ping(MAC_A, MAC_B, payload="other")
        c = l2_ping(MAC_B, MAC_A)
        assert default_is_same_flow(a, b)       # payload not in flow key
        assert not default_is_same_flow(a, c)


class TestNoDelay:
    def test_filter_removes_controller_transitions(self):
        system = ping_system()
        strategy = NoDelayStrategy()
        enabled = [
            Transition(tk.HOST_SEND, "A", ("script", 0)),
            Transition(tk.CTRL_HANDLE, "s1"),
            Transition(tk.CTRL_STATS, "s1", ("stats", 0)),
        ]
        kept = strategy.filter(system, enabled)
        assert [t.kind for t in kept] == [tk.HOST_SEND]

    def test_packet_in_handled_within_generating_transition(self):
        system = ping_system()
        strategy = NoDelayStrategy()
        send = [t for t in system.enabled_transitions()
                if t.kind == tk.HOST_SEND][0]
        system.execute(send)
        strategy.post_execute(system, send)
        pkt_transition = Transition(tk.PROCESS_PKT, "s1")
        system.execute(pkt_transition)
        strategy.post_execute(system, pkt_transition)
        # The packet_in was handled immediately: the controller learned A
        # and issued the flood without a separate ctrl_handle transition.
        assert len(system.switches["s1"].ofp_out) == 0
        assert MAC_A in system.app.ctrl_state["s1"]

    def test_process_of_drains_whole_channel(self):
        system = ping_system()
        strategy = NoDelayStrategy()
        api = system.api()
        api.install_rule("s1", {"in_port": 1}, ["flood"])
        api.install_rule("s1", {"in_port": 2}, ["flood"])
        transition = Transition(tk.PROCESS_OF, "s1")
        system.execute(transition)          # applies one message...
        strategy.post_execute(system, transition)  # ...then the rest
        assert len(system.switches["s1"].ofp_in) == 0
        assert len(system.switches["s1"].table) == 2


class TestUnusual:
    def test_keeps_extreme_orders_only(self):
        system = ping_system()
        api = system.api()
        # Stamp three switch channels in issue order s1, s2, then s1 again.
        api.install_rule("s1", {"in_port": 1}, ["flood"])
        api.install_rule("s2", {"in_port": 1}, ["flood"])
        strategy = UnusualStrategy()
        enabled = [
            Transition(tk.PROCESS_OF, "s1"),
            Transition(tk.PROCESS_OF, "s2"),
            Transition(tk.HOST_SEND, "A", ("script", 0)),
        ]
        kept = strategy.filter(system, enabled)
        process_of = [t for t in kept if t.kind == tk.PROCESS_OF]
        # Two channels -> both extremes survive (natural + reversed).
        assert len(process_of) == 2

    def test_data_plane_ordered_last_for_dfs(self):
        system = ping_system()
        strategy = UnusualStrategy()
        enabled = [
            Transition(tk.PROCESS_OF, "s1"),
            Transition(tk.HOST_SEND, "A", ("script", 0)),
        ]
        system.api().install_rule("s1", {"in_port": 1}, ["flood"])
        kept = strategy.filter(system, enabled)
        # DFS pops from the tail: data transitions must come last.
        assert kept[-1].kind == tk.HOST_SEND


class TestFlowIR:
    def test_send_serialization_blocks_new_flows_in_busy_fabric(self):
        system = ping_system(pings=2)
        strategy = FlowIRStrategy(
            is_same_flow=lambda a, b: a.payload == b.payload)
        sends = [t for t in system.enabled_transitions()
                 if t.kind == tk.HOST_SEND]
        assert len(sends) == 2
        # Nothing injected yet: both pings may start.
        assert len(strategy.filter(system, sends)) == 2
        system.execute(sends[0])
        # ping0 is now in the fabric: ping1 (a different group) must wait.
        remaining = [t for t in system.enabled_transitions()
                     if t.kind == tk.HOST_SEND]
        kept = strategy.filter(system, remaining)
        assert [t for t in kept if t.kind == tk.HOST_SEND] == []

    def test_processing_reduction_keeps_minimal_group(self):
        system = ping_system(pings=2)
        strategy = FlowIRStrategy(
            is_same_flow=lambda a, b: a.payload == b.payload)
        # Inject both pings into different port channels by hand so two
        # groups are processable at once.
        p0 = system.hosts["A"].script[0].copy()
        p0.uid = ("A", "x", 0)
        p1 = system.hosts["A"].script[1].copy()
        p1.uid = ("A", "y", 0)
        system.switches["s1"].port_in[1].enqueue(p0)
        system.switches["s2"].port_in[1].enqueue(p1)
        enabled = [Transition(tk.PROCESS_PKT, "s1"),
                   Transition(tk.PROCESS_PKT, "s2")]
        kept = strategy.filter(system, enabled)
        assert len(kept) == 1

    def test_ungrouped_transitions_always_kept(self):
        system = scenarios.loadbalancer_scenario().system_factory()
        strategy = FlowIRStrategy()
        event = [t for t in system.enabled_transitions()
                 if t.kind == tk.CTRL_EVENT]
        assert event
        kept = strategy.filter(system, event)
        assert kept == event
