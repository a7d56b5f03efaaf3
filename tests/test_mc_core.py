"""Tests for canonical serialization, the system model, and replay."""

import pytest
from hypothesis import given, strategies as st

import reference_forms
from repro import scenarios
from repro.config import NiceConfig
from repro.errors import ControllerError, ReplayError, TransitionError
from repro.mc import transitions as tk
from repro.mc.canonical import canonicalize, state_string
from repro.mc.replay import format_trace, replay_steps, replay_trace
from repro.mc.transitions import Transition


class TestCanonicalize:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x", b"y"):
            assert canonicalize(value) == value

    def test_dict_key_order_irrelevant(self):
        assert canonicalize({"a": 1, "b": 2}) == canonicalize({"b": 2, "a": 1})

    def test_set_order_irrelevant(self):
        assert canonicalize({3, 1, 2}) == canonicalize({2, 3, 1})

    def test_list_order_matters(self):
        assert canonicalize([1, 2]) != canonicalize([2, 1])

    def test_objects_with_canonical_method(self):
        from repro.openflow.packet import MacAddress

        mac = MacAddress.from_int(5)
        assert canonicalize(mac) == mac.canonical()

    def test_plain_objects_use_vars(self):
        class Thing:
            def __init__(self):
                self.x = 1

        assert canonicalize(Thing()) == ("obj", "Thing", ("dict", ("x", 1)))

    def test_uncanonicalizable_raises(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    @given(st.dictionaries(st.text(max_size=5), st.integers(), max_size=6))
    def test_hash_stable_across_insertion_orders(self, data):
        reordered = dict(sorted(data.items(), reverse=True))
        assert state_string(data) == state_string(reordered)

    def test_state_string_is_deterministic(self):
        payload = {"z": [1, 2], "a": {"nested": True}}
        assert state_string(payload) == state_string(payload)


class TestTransitionDescriptors:
    def test_equality_and_hash(self):
        a = Transition(tk.PROCESS_PKT, "s1")
        b = Transition(tk.PROCESS_PKT, "s1")
        c = Transition(tk.PROCESS_PKT, "s2")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_payload_not_part_of_identity(self):
        a = Transition(tk.HOST_SEND, "A", ("sym", (1, 2)), payload="X")
        b = Transition(tk.HOST_SEND, "A", ("sym", (1, 2)), payload="Y")
        assert a == b

    def test_key_and_hash_are_memoised_off_the_wire(self):
        """The memo is per-process scratch: a pickled descriptor carries
        the four fields and nothing else — warm or cold, the very bytes
        pickled before the memo existed, so result payloads and
        checkpoints did not grow."""
        import copy
        import pickle

        cold = Transition(tk.HOST_SEND, "h1", ("send", 1, {"a": 2}))
        warm = Transition(tk.HOST_SEND, "h1", ("send", 1, {"a": 2}))
        assert warm.key() is warm.key() and hash(warm) == hash(cold)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(warm, protocol) == pickle.dumps(cold, protocol)
        assert pickle.dumps(warm, 5) == self.PARENT_PICKLE
        for copied in (pickle.loads(pickle.dumps(warm)),
                       copy.deepcopy(warm)):
            assert copied == warm and hash(copied) == hash(warm)
            assert copied.payload is None and copied.arg == warm.arg

    #: ``pickle.dumps(Transition("host_send", "h1", ("send", 1, {"a": 2})),
    #: protocol=5)`` at the commit before the memo slots existed — the
    #: slots-state form every checkpoint written until then contains.
    PARENT_PICKLE = (
        b"\x80\x05\x95w\x00\x00\x00\x00\x00\x00\x00\x8c\x14"
        b"repro.mc.transitions\x94\x8c\nTransition\x94\x93\x94)\x81"
        b"\x94N}\x94(\x8c\x04kind\x94\x8c\thost_send\x94\x8c\x05"
        b"actor\x94\x8c\x02h1\x94\x8c\x03arg\x94\x8c\x04send\x94K"
        b"\x01}\x94\x8c\x01a\x94K\x02s\x87\x94\x8c\x07payload\x94Nu"
        b"\x86\x94b.")

    def test_descriptor_pickled_before_the_memo_still_loads(self):
        import pickle

        old = pickle.loads(self.PARENT_PICKLE)
        new = Transition(tk.HOST_SEND, "h1", ("send", 1, {"a": 2}))
        assert (old.kind, old.actor, old.arg, old.payload) == \
            ("host_send", "h1", ("send", 1, {"a": 2}), None)
        assert old == new and new == old and hash(old) == hash(new)
        assert {old: "found"}[new] == "found"
        assert (old, new) == (new, old)  # as trace tuples compare
        assert repr(old) == repr(new)

    @staticmethod
    def _sym_payload():
        """A packet as a symbolic ``HOST_SEND`` carries one: header tuple
        cached (``("sym", packet.header_tuple())`` is the descriptor)."""
        from repro.openflow.packet import MacAddress, TCP_SYN, tcp_packet

        packet = tcp_packet(MacAddress.from_string("00:00:00:00:00:01"),
                            MacAddress.from_string("00:00:00:00:00:02"),
                            1, 2, 1000, 80, flags=TCP_SYN, payload="x")
        packet.uid = ("h1", "abcd1234", 0)
        packet.copy_id = (("s1", 2),)
        packet.hops = [("s1", 1)]
        packet.header_tuple()
        return packet

    #: ``pickle.dumps(_sym_payload(), protocol=5)`` at the commit before
    #: packets had a sealed-form slot — what symbolic sends put on the
    #: worker wire and into every checkpoint written until then.
    PARENT_PACKET_PICKLE = (
        b"\x80\x05\x95\xa6\x01\x00\x00\x00\x00\x00\x00\x8c\x15repro."
        b"openflow.packet\x94\x8c\x06Packet\x94\x93\x94)\x81\x94N}"
        b"\x94(\x8c\x07eth_src\x94h\x00\x8c\nMacAddress\x94\x93\x94)"
        b"\x81\x94N}\x94(\x8c\x06_bytes\x94(K\x00K\x00K\x00K\x00K"
        b"\x00K\x01t\x94\x8c\x06_canon\x94\x8c\x1100:00:00:00:00:01"
        b"\x94u\x86\x94b\x8c\x07eth_dst\x94h\x07)\x81\x94N}\x94(h\n("
        b"K\x00K\x00K\x00K\x00K\x00K\x02t\x94h\x0c\x8c\x1100:00:00:0"
        b"0:00:02\x94u\x86\x94b\x8c\x08eth_type\x94M\x00\x08\x8c\x06"
        b"ip_src\x94K\x01\x8c\x06ip_dst\x94K\x02\x8c\x08nw_proto\x94"
        b"K\x06\x8c\x06tp_src\x94M\xe8\x03\x8c\x06tp_dst\x94KP\x8c\t"
        b"tcp_flags\x94K\x02\x8c\x06arp_op\x94K\x00\x8c\x07payload"
        b"\x94\x8c\x01x\x94\x8c\x04size\x94K@\x8c\x03uid\x94\x8c\x02"
        b"h1\x94\x8c\x08abcd1234\x94K\x00\x87\x94\x8c\x07copy_id\x94"
        b"\x8c\x02s1\x94K\x02\x86\x94\x85\x94\x8c\x04hops\x94]\x94h%"
        b"K\x01\x86\x94a\x8c\x07_header\x94(h\rh\x13M\x00\x08K\x01K"
        b"\x02K\x06M\xe8\x03KPK\x02K\x00h\x1eK@t\x94u\x86\x94b.")

    def test_packet_pickles_without_its_sealed_form(self):
        import copy
        import pickle

        packet = self._sym_payload()
        assert pickle.dumps(packet, 5) == self.PARENT_PACKET_PICKLE
        sealed = self._sym_payload().seal()
        assert sealed.canonical() is sealed.canonical()
        assert pickle.dumps(sealed, 5) == self.PARENT_PACKET_PICKLE
        for copied in (pickle.loads(pickle.dumps(sealed)),
                       copy.deepcopy(sealed)):
            # Copies start unsealed, like ``Packet.copy()``.
            assert copied == sealed and copied._canon is None
            assert copied.canonical() is not copied.canonical()

    def test_packet_pickled_before_the_seal_still_loads_and_hashes(self):
        import pickle

        old = pickle.loads(self.PARENT_PACKET_PICKLE)
        new = self._sym_payload()
        assert old == new and hash(old) == hash(new)
        assert old.canonical() == new.canonical()
        assert old.seal().canonical() == new.canonical()
        assert state_string(old) == state_string(new)
        assert old.copy().hops == [("s1", 1)]

    def test_repr(self):
        assert repr(Transition(tk.HOST_RECV, "A")) == "host_recv(A)"
        assert "script" in repr(Transition(tk.HOST_SEND, "A", ("script", 0)))


class TestSystemModel:
    def make_system(self):
        return scenarios.ping_experiment(pings=1).system_factory()

    def test_boot_delivers_switch_joins(self):
        system = self.make_system()
        assert set(system.app.ctrl_state) == {"s1", "s2"}

    def test_initial_enabled_transitions(self):
        system = self.make_system()
        kinds = {(t.kind, t.actor) for t in system.enabled_transitions()}
        assert (tk.HOST_SEND, "A") in {(k, a) for k, a in kinds}

    def test_execute_unknown_switch_raises(self):
        system = self.make_system()
        with pytest.raises(TransitionError):
            system.execute(Transition(tk.PROCESS_PKT, "ghost"))

    def test_clone_isolates_mutation(self):
        system = self.make_system()
        clone = system.clone()
        send = [t for t in system.enabled_transitions()
                if t.kind == tk.HOST_SEND][0]
        system.execute(send)
        assert system.state_hash() != clone.state_hash()
        assert clone.hosts["A"].sent_count == 0

    def test_clone_shares_topology(self):
        system = self.make_system()
        assert system.clone().topo is system.topo

    def test_route_to_missing_attachment_records_loss(self):
        system = self.make_system()
        packet = system.hosts["A"].script[0].copy()
        packet.uid = ("test", 1)
        system.route("s1", [(2, packet)])   # port 2 leads to s2: delivered
        assert not system.ledger.lost
        # detach B and route to its port on s2
        system.attachments.pop(("s2", 2))
        packet2 = packet.copy()
        system.route("s2", [(2, packet2)])
        assert system.ledger.lost

    def test_uid_assignment_is_content_based(self):
        a = self.make_system()
        b = self.make_system()
        send = [t for t in a.enabled_transitions()
                if t.kind == tk.HOST_SEND][0]
        a.execute(send)
        b.execute(send)
        assert a.ledger.injected == b.ledger.injected

    def test_state_hash_equal_for_equal_histories(self):
        a, b = self.make_system(), self.make_system()
        assert a.state_hash() == b.state_hash()

    def test_quiescent_after_full_run(self):
        system = self.make_system()
        for _ in range(100):
            enabled = system.enabled_transitions()
            if not enabled:
                break
            system.execute(enabled[0])
        assert system.quiescent()
        assert len(system.hosts["A"].received) >= 1  # pong came back

    def test_ctrl_event_fires_once(self):
        scenario = scenarios.loadbalancer_scenario()
        system = scenario.system_factory()
        event = [t for t in system.enabled_transitions()
                 if t.kind == tk.CTRL_EVENT][0]
        system.execute(event)
        assert system.app.mode == "transition"
        with pytest.raises(TransitionError):
            system.execute(event)

    def test_host_move_updates_attachments(self):
        scenario = scenarios.pyswitch_mobile()
        system = scenario.system_factory()
        move = [t for t in system.enabled_transitions()
                if t.kind == tk.HOST_MOVE][0]
        system.execute(move)
        assert system.host_locations["B"] == ("s1", 3)
        assert system.attachments[("s1", 3)] == "B"
        assert ("s1", 2) not in system.attachments


def _execute(kind, actor, arg=None):
    return lambda system: system.execute(Transition(kind, actor, arg))


#: What a system refuses, on ``pyswitch-mobile`` (two switches, a mobile
#: host B on ``("s2", 2)``, host A on ``("s1", 1)``): every transition kind
#: on an actor that does not exist, a controller call to a switch that does
#: not, and the two transitions that can fail on an actor that does.
REFUSALS = [
    pytest.param(_execute(kind, "nope", arg), TransitionError,
                 id=f"unknown-actor-{kind}")
    for kind, arg in [
        (tk.PROCESS_PKT, None), (tk.PROCESS_OF, None),
        (tk.CTRL_HANDLE, None), (tk.CTRL_STATS, None),
        (tk.CTRL_EVENT, None), (tk.HOST_SEND, ("script", 0)),
        (tk.HOST_RECV, None), (tk.HOST_MOVE, ("s1", 3)),
        (tk.EXPIRE_RULE, 0), (tk.CHANNEL_FAULT, (1, ("fail",))),
    ]
] + [
    pytest.param(
        lambda system: system.api().install_rule("nope", {}, ["flood"]),
        ControllerError, id="api-call-unknown-switch"),
    pytest.param(_execute(tk.HOST_MOVE, "B", ("s9", 1)), TransitionError,
                 id="move-to-no-port"),
    pytest.param(_execute(tk.HOST_MOVE, "B", ("s1", 1)), TransitionError,
                 id="move-to-occupied-port"),
    pytest.param(_execute(tk.CTRL_STATS, "s1"), TransitionError,
                 id="stats-without-a-reply"),
]


@pytest.mark.parametrize("refused,error", REFUSALS)
def test_a_refusal_is_typed_and_leaves_digests_and_ownership_consistent(
        refused, error):
    """The error is the model's own (never a ``KeyError`` out of a slot
    table), and afterwards parent and child still hash to what the
    from-scratch oracle builds — right away, and after each has gone on
    to execute a real transition (whoever writes still copies first)."""
    parent = scenarios.pyswitch_mobile().system_factory()
    parent.state_hash()
    child = parent.clone()
    with pytest.raises(error):
        refused(child)
    for system in (child, parent, child):
        assert system.state_hash() == reference_forms.state_hash(system)
        system.execute(system.enabled_transitions()[0])
        assert system.state_hash() == reference_forms.state_hash(system)


class TestReplay:
    def test_replay_reaches_same_state(self):
        scenario = scenarios.ping_experiment(pings=1)
        system = scenario.system_factory()
        trace = []
        for _ in range(12):
            enabled = system.enabled_transitions()
            if not enabled:
                break
            system.execute(enabled[-1])
            trace.append(enabled[-1])
        replayed = replay_trace(scenario.system_factory, trace,
                                expected_hash=system.state_hash())
        assert replayed.state_hash() == system.state_hash()

    def test_replay_detects_mismatch(self):
        scenario = scenarios.ping_experiment(pings=1)
        with pytest.raises(ReplayError):
            replay_trace(scenario.system_factory, [],
                         expected_hash="definitely-not-the-hash")

    def test_replay_invalid_transition_raises(self):
        scenario = scenarios.ping_experiment(pings=1)
        bogus = [Transition(tk.PROCESS_PKT, "s1")]  # nothing queued yet
        with pytest.raises(ReplayError):
            replay_trace(scenario.system_factory, bogus)

    def test_replay_steps_yields_intermediates(self):
        scenario = scenarios.ping_experiment(pings=1)
        system = scenario.system_factory()
        enabled = system.enabled_transitions()
        system.execute(enabled[0])
        steps = list(replay_steps(scenario.system_factory, [enabled[0]]))
        assert len(steps) == 2
        assert steps[0][0] == -1
        assert steps[1][1] == enabled[0]

    def test_format_trace(self):
        text = format_trace([Transition(tk.HOST_RECV, "A")])
        assert "host_recv(A)" in text
        assert format_trace([]) == "(empty trace)"


class TestSearchModes:
    def test_bfs_explores_same_reachable_space(self):
        import dataclasses

        base = scenarios.ping_experiment(pings=1)
        dfs = base
        bfs = scenarios.ping_experiment(
            pings=1, config=NiceConfig(search_order="bfs"))
        from repro import nice

        r_dfs, r_bfs = nice.run(dfs), nice.run(bfs)
        assert r_dfs.unique_states == r_bfs.unique_states

    def test_random_walk_is_seeded(self):
        from repro import nice

        scenario = scenarios.ping_experiment(pings=2)
        a = nice.random_walk(scenario, steps=50, seed=3)
        b = nice.random_walk(scenario, steps=50, seed=3)
        assert a.transitions_executed == b.transitions_executed
        assert a.unique_states == b.unique_states

    def test_max_depth_bounds_search(self):
        from repro import nice

        scenario = scenarios.ping_experiment(
            pings=2, config=NiceConfig(max_depth=3))
        bounded = nice.run(scenario)
        full = nice.run(scenarios.ping_experiment(pings=2))
        assert bounded.transitions_executed < full.transitions_executed

    def test_disabling_state_matching_counts_revisits(self):
        from repro import nice

        config = NiceConfig(state_matching=False, max_transitions=2000)
        result = nice.run(scenarios.ping_experiment(pings=1, config=config))
        exhaustive = nice.run(scenarios.ping_experiment(pings=1))
        assert result.transitions_executed >= exhaustive.transitions_executed
