"""Property-based tests on the model checker's core invariants."""

from hypothesis import given, settings, strategies as st

import reference_forms
from repro import scenarios
from repro.mc import transitions as tk


def drive(system, choices, limit=40):
    """Execute up to ``limit`` transitions, picking by index sequence."""
    trace = []
    for choice in choices[:limit]:
        enabled = system.enabled_transitions()
        if not enabled:
            break
        transition = enabled[choice % len(enabled)]
        system.execute(transition)
        trace.append(transition)
    return trace


class TestExecutionDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=25))
    def test_same_choices_same_state(self, choices):
        """Executing the same transition sequence from equal initial states
        always reaches the same state hash — the foundation of replay-based
        checkpointing (Section 6)."""
        scenario = scenarios.ping_experiment(pings=2)
        a = scenario.system_factory()
        b = scenario.system_factory()
        trace_a = drive(a, choices)
        for transition in trace_a:
            b.execute(transition)
        assert a.state_hash() == b.state_hash()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=20))
    def test_clone_then_execute_equals_execute(self, choices):
        """clone() must be a faithful checkpoint: executing on the clone
        gives the same states as executing on the original."""
        scenario = scenarios.ping_experiment(pings=2)
        original = scenario.system_factory()
        drive(original, choices[: len(choices) // 2])
        checkpoint = original.clone()
        rest = choices[len(choices) // 2:]
        trace = drive(original, rest)
        for transition in trace:
            checkpoint.execute(transition)
        assert checkpoint.state_hash() == original.state_hash()

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=20))
    def test_enabled_set_is_deterministic(self, choices):
        scenario = scenarios.ping_experiment(pings=2)
        system = scenario.system_factory()
        drive(system, choices)
        first = [t.key() for t in system.enabled_transitions()]
        second = [t.key() for t in system.enabled_transitions()]
        assert first == second

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=25))
    def test_packet_conservation(self, choices):
        """Every injected packet is somewhere: in flight, buffered,
        delivered, consumed, or lost — nothing silently disappears."""
        scenario = scenarios.ping_experiment(pings=2)
        system = scenario.system_factory()
        drive(system, choices)
        injected = {entry[0] for entry in system.ledger.injected}
        accounted = set()
        for uid, _copy, _host in system.ledger.delivered:
            accounted.add(uid)
        for uid, _copy, _sw, _port in system.ledger.lost:
            accounted.add(uid)
        for switch in system.switches.values():
            for _kind, uid, _copy in switch.dropped:
                if uid is not None:
                    accounted.add(uid)
            for packet, _port in switch.buffers.values():
                accounted.add(packet.uid)
            for port in switch.ports:
                for packet in switch.port_in[port].items():
                    accounted.add(packet.uid)
        for host in system.hosts.values():
            for packet in host.inbox:
                accounted.add(packet.uid)
        assert injected <= accounted | {None}

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=5, max_size=25),
           st.lists(st.integers(0, 100), min_size=5, max_size=25))
    def test_hash_collision_implies_equal_canonical(self, one, two):
        """If two executions reach the same hash, their canonical states
        are identical (the hash is honest, not lossy in practice)."""
        scenario = scenarios.ping_experiment(pings=2)
        a = scenario.system_factory()
        b = scenario.system_factory()
        drive(a, one)
        drive(b, two)
        if a.state_hash() == b.state_hash():
            assert a.canonical_state() == b.canonical_state()


class TestHashMemoization:
    """The cached per-component digests and sub-forms must never go stale:
    after every step the hash equals the one :mod:`reference_forms` builds
    from scratch, consulting no cache."""

    @staticmethod
    def walk(system, choices):
        for choice in choices:
            enabled = system.enabled_transitions()
            if not enabled:
                break
            system = system.clone()
            system.execute(enabled[choice % len(enabled)])
            assert system.state_hash() == reference_forms.state_hash(system)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=25))
    def test_memoized_hash_equals_fresh_hash(self, choices):
        self.walk(scenarios.ping_experiment(pings=2).system_factory(),
                  choices)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=25))
    def test_memoized_hash_equals_fresh_hash_under_faults(self, choices):
        """Regression: a ``duplicate`` channel fault used to insert the same
        Packet object twice; once one alias migrated to another component,
        in-place hop recording left the other component's cached canonical
        form stale."""
        from repro.config import NiceConfig

        scenario = scenarios.ping_experiment(
            pings=1, config=NiceConfig(channel_faults=True))
        self.walk(scenario.system_factory(), choices)
