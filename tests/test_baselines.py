"""Tests for the SPIN-like and JPF-like comparison baselines."""

import pytest

from repro import scenarios
from baselines import JpfLikeSearcher, JpfSystem, SpinLikeSearcher
from repro.config import NiceConfig
from repro.mc import transitions as tk


def ping_scenario(pings=1):
    return scenarios.ping_experiment(pings=pings)


def jpf_factory(scenario):
    def factory():
        system = JpfSystem(scenario.topo, scenario.app_factory(),
                           scenario.hosts_factory(), scenario.config)
        system.boot()
        return system

    return factory


class TestSpinLike:
    def test_explores_same_space_as_nice(self):
        from repro import nice

        scenario = ping_scenario()
        spin = SpinLikeSearcher(scenario.system_factory, scenario.config).run()
        mc = nice.run(scenario)
        assert spin.transitions_executed == mc.transitions_executed
        assert spin.unique_states == mc.unique_states

    def test_stored_bytes_dwarf_hash_bytes(self):
        scenario = ping_scenario()
        result = SpinLikeSearcher(scenario.system_factory,
                                  scenario.config).run()
        assert result.stored_bytes > result.hash_bytes
        assert result.hash_bytes == result.unique_states * 32

    def test_memory_limit_aborts(self):
        scenario = ping_scenario()
        result = SpinLikeSearcher(scenario.system_factory, scenario.config,
                                  memory_limit=2_000).run()
        assert result.out_of_memory
        assert result.stored_bytes > 2_000

    def test_transition_budget(self):
        scenario = ping_scenario()
        config = NiceConfig(max_transitions=5)
        result = SpinLikeSearcher(scenario.system_factory, config).run()
        assert result.transitions_executed == 5


class TestJpfLike:
    def test_handler_becomes_multiple_scheduling_points(self):
        scenario = ping_scenario()
        system = jpf_factory(scenario)()
        send = [t for t in system.enabled_transitions()
                if t.kind == tk.HOST_SEND][0]
        system.execute(send)
        system.execute([t for t in system.enabled_transitions()
                        if t.kind == tk.PROCESS_PKT][0])
        # The packet_in handler runs buffered: its API effects are now
        # individual apply_op transitions.
        handle = [t for t in system.enabled_transitions()
                  if t.kind == tk.CTRL_HANDLE][0]
        system.execute(handle)
        assert system.pending_ops
        ops_before = len(system.pending_ops)
        apply_op = [t for t in system.enabled_transitions()
                    if t.kind == "apply_op"][0]
        system.execute(apply_op)
        assert len(system.pending_ops) == ops_before - 1

    def test_pending_ops_in_state_identity(self):
        scenario = ping_scenario()
        a = jpf_factory(scenario)()
        b = jpf_factory(scenario)()
        assert a.state_hash() == b.state_hash()
        a.pending_ops.append(("install_rule", ("s1",), {}))
        assert a.state_hash() != b.state_hash()

    def test_clone_preserves_pending_ops(self):
        scenario = ping_scenario()
        system = jpf_factory(scenario)()
        system.pending_ops.append(("flood_packet", ("s1", None, 1), {}))
        clone = system.clone()
        assert isinstance(clone, JpfSystem)
        assert clone.pending_ops == system.pending_ops
        clone.pending_ops.pop()
        assert system.pending_ops  # no sharing

    def test_explores_more_than_nice(self):
        from repro import nice

        scenario = ping_scenario()
        jpf = JpfLikeSearcher(jpf_factory(scenario), scenario.config).run()
        mc = nice.run(scenario)
        assert jpf.transitions_executed > mc.transitions_executed

    def test_budget_marks_incomplete(self):
        scenario = ping_scenario()
        config = NiceConfig(max_transitions=10)
        result = JpfLikeSearcher(jpf_factory(scenario), config).run()
        assert not result.completed
