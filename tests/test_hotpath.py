"""The per-state hot path: copy-on-write cloning and digest hashing.

Contracts under test (DESIGN.md, "Per-state hot path"):

* a copy-on-write clone hashed from cached digests is bit-identical to
  the reference engine's deep-copied clone hashed from scratch
  (:mod:`reference_engine`) — same digest before and after executing any
  enabled transition — on **every** registered scenario, and mutations
  are isolated in both directions (child-to-parent and parent-to-child);
* the explored state space is the reference engine's: serial counters
  and violations equal ``reference_run``, and a 2-worker parallel run
  equals serial;
* after a transition that touches a single component, ``state_hash()``
  recomputes exactly one component digest (counter-asserted);
* the all-string-key fast path of ``canonicalize`` orders identically to
  the repr-keyed slow path (hash-pinned), and unsafe keys fall back;
* the digest memo renders a form it remembers zero times, holds two
  generations at most, digests an unhashable form all the same — and
  compares forms by value, the one clause it adds to the ``canonical()``
  contract (``tests/test_touched_forms.py`` holds it to the oracle on
  whole walks and searches).
"""

from __future__ import annotations

import pytest

from contract import counters, exhaustive, requires_fork, violation_messages
from reference_engine import reference_factory, reference_run
from repro import scenarios
from repro.mc import transitions as tk
from repro.mc import canonical
from repro.mc.canonical import (
    DigestMemo,
    _safe_string_key,
    canonicalize,
    digest_bytes,
    render_canonical,
    state_string,
)
from repro.scenarios import REGISTRY, with_config


def all_scenarios():
    return [pytest.param(builder, id=name)
            for name, builder in sorted(REGISTRY.items())]


class TestCowCloneBitIdentity:
    """CoW clones + cached digests == deep copies hashed from scratch, on
    every registered scenario."""

    @pytest.mark.parametrize("builder", all_scenarios())
    def test_clone_and_children_hash_identically(self, builder):
        scenario = builder()
        cow = scenario.system_factory()
        ref = reference_factory(scenario)()
        assert cow.state_hash() == ref.state_hash()
        assert cow.clone().state_hash() == ref.clone().state_hash()
        for transition in cow.enabled_transitions():
            cow_child = cow.clone()
            cow_child.execute(transition)
            ref_child = ref.clone()
            ref_child.execute(transition)
            assert cow_child.state_hash() == ref_child.state_hash(), (
                f"{scenario.name}: product and reference children diverge"
                f" after {transition!r}")

    @pytest.mark.parametrize("builder", all_scenarios())
    def test_mutation_isolated_in_both_directions(self, builder):
        scenario = builder()
        parent = with_config(scenario).system_factory()
        enabled = parent.enabled_transitions()
        if not enabled:
            pytest.skip("scenario boots quiescent")
        transition = enabled[0]

        # Child mutation must not leak into the parent...
        before = parent.state_hash()
        child = parent.clone()
        child.execute(transition)
        assert parent.state_hash() == before
        assert child.state_hash() != before

        # ...and parent mutation must not leak into the child.
        parent2 = with_config(scenario).system_factory()
        child2 = parent2.clone()
        child_before = child2.state_hash()
        parent2.execute(transition)
        assert child2.state_hash() == child_before
        assert parent2.state_hash() != child_before

    def test_second_generation_sharing(self):
        """Grandchildren share through a materialized middle generation."""
        # pyswitch-loop boots with a scripted send enabled (direct-path's
        # sends only appear through symbolic discovery).
        scenario = scenarios.pyswitch_loop()
        root = with_config(scenario).system_factory()
        transition = root.enabled_transitions()[0]
        child = root.clone()
        child.execute(transition)
        frozen = child.state_hash()
        for grand_t in child.enabled_transitions():
            grandchild = child.clone()
            grandchild.execute(grand_t)
        assert child.state_hash() == frozen
        assert root.state_hash() != frozen


class TestExploredSpaceUnchanged:
    """The product explores exactly the reference engine's space."""

    #: pyswitch-mobile and -loop have state spaces far too large to
    #: exhaust in a unit test; a transition cap keeps the comparison exact
    #: (both engines expand the identical DFS prefix), direct-path runs to
    #: exhaustion.
    @pytest.mark.parametrize("builder,cap", [
        (scenarios.pyswitch_direct_path, None),
        (scenarios.pyswitch_mobile, 3000),
        # Looping flood copies make every pyswitch-loop state enormous;
        # the reference engine needs ~18ms per transition there, so the
        # cap stays small.
        (scenarios.pyswitch_loop, 600),
    ])
    def test_serial_equals_md5_deepcopy_baseline(self, builder, cap):
        """The baseline is the reference engine: deep-copied checkpoints,
        from-scratch hashes (blake2b like the product's, hence comparable
        digest by digest — the md5 of the name went with the knobs)."""
        scenario = with_config(builder(), stop_at_first_violation=False,
                               max_transitions=cap)
        new = exhaustive(scenario)
        reference = reference_run(scenario)
        assert counters(new) == counters(reference)
        assert violation_messages(new) == violation_messages(reference)
        # Byte-identical digests, not just equal counts.
        assert ([v.state_hash for v in new.violations]
                == [v.state_hash for v in reference.violations])

    @requires_fork
    def test_parallel_two_workers_equals_serial(self):
        scenario = scenarios.pyswitch_direct_path()
        serial = exhaustive(scenario)
        parallel = exhaustive(scenario, workers=2)
        assert counters(serial) == counters(parallel)
        assert (sorted({v.property_name for v in serial.violations})
                == sorted({v.property_name for v in parallel.violations}))
        # The workers' hot-path counters ride back to the master.
        assert parallel.hash_misses > 0
        assert parallel.cow_copied > 0


class TestDigestRecomputation:
    """One-component transitions re-hash one component."""

    def test_host_move_recomputes_exactly_one_digest(self):
        scenario = scenarios.pyswitch_mobile()
        system = with_config(scenario).system_factory()
        system.state_hash()  # warm every component digest
        child = system.clone()
        moves = [t for t in child.enabled_transitions()
                 if t.kind == tk.HOST_MOVE]
        assert moves, "pyswitch-mobile must offer a host_move transition"
        child.execute(moves[0])
        stats = child._hash_stats
        hits, misses = stats.hits, stats.misses
        child.state_hash()
        # host_move touches one host (plus the unmemoized attachment tail):
        # exactly one component digest recomputed, all others cache hits.
        assert stats.misses - misses == 1
        components = len(child.switches) + len(child.hosts) + 2  # app+ledger
        assert stats.hits - hits == components - 1

    @staticmethod
    def _state_with_a_buffered_packet():
        """ping-2 after A's first ping missed at s1: a buffered packet and
        its pending PacketIn (so buffer ids are being renumbered), and A's
        second scripted send enabled."""
        system = with_config(
            scenarios.ping_experiment(pings=2)).system_factory()
        for kind, actor in ((tk.HOST_SEND, "A"), (tk.PROCESS_PKT, "s1")):
            system.execute(next(t for t in system.enabled_transitions()
                                if (t.kind, t.actor) == (kind, actor)))
        assert system.switches["s1"].buffers and system.switches["s1"].ofp_out
        system.state_hash()
        send = next(t for t in system.enabled_transitions()
                    if t.kind == tk.HOST_SEND)
        return system, send

    def test_host_send_child_shares_every_switch_sub_form_but_one(self):
        parent, send = self._state_with_a_buffered_packet()
        sw_id, port = parent.host_locations[send.actor]
        before = parent.switches[sw_id].canonical()
        child = parent.clone()
        child.execute(send)
        child.state_hash()
        switch = child.switches[sw_id]
        assert switch is not parent.switches[sw_id]
        (_, table, channels, ofp_in, ofp_out, buffers, _stats, _up,
         dropped) = after = switch.canonical()
        # Only the channel of the port the packet was enqueued on is
        # re-rendered; every other cached part is the parent's object.
        assert table is before[1] and dropped is before[8]
        assert ofp_in is before[3] and ofp_out is before[4]
        assert buffers is before[5] and buffers
        for position, channel_port in enumerate(switch.ports):
            if channel_port == port:
                assert len(channels[position][2]) \
                    == len(before[2][position][2]) + 1
            else:
                assert channels[position] is before[2][position]
        assert after != before

    def test_parent_cached_forms_survive_its_child(self):
        parent, send = self._state_with_a_buffered_packet()
        switches = {s: sw.canonical() for s, sw in parent.switches.items()}
        hosts = {h: host.canonical() for h, host in parent.hosts.items()}
        ledger = parent.ledger.canonical()
        digest = parent.state_hash()
        child = parent.clone()
        child.execute(send)
        assert child.state_hash() != digest
        # Equal — and the cached parts are the very same objects: the
        # child re-rendered its own copies, not the ones it shares.
        for sw_id, form in switches.items():
            now = parent.switches[sw_id].canonical()
            assert now == form
            assert all(now[i] is form[i] for i in (1, 3, 4, 5, 8))
            assert all(a is b for a, b in zip(now[2], form[2]))
        for name, form in hosts.items():
            now = parent.hosts[name].canonical()
            assert now == form and now[4] is form[4]
        assert parent.ledger.canonical() is ledger
        assert parent.state_hash() == digest

    def test_unchanged_state_rehash_is_all_hits(self):
        system = with_config(scenarios.pyswitch_direct_path()).system_factory()
        first = system.state_hash()
        stats = system._hash_stats
        misses = stats.misses
        assert system.state_hash() == first
        assert stats.misses == misses


class TestDigestMemo:
    """``canonical form -> digest``, rendered once per remembered form."""

    @staticmethod
    def rendered(form) -> bytes:
        return digest_bytes(render_canonical(form))

    def test_a_remembered_form_is_not_rendered_again(self):
        memo = DigestMemo()
        form = ("s1", (("a", 1), ("b", (2, 3))), None, 1.5, b"x")
        assert memo.digest(form) == self.rendered(form)
        assert memo.bytes_hashed == len(render_canonical(form))
        # An equal form built apart from the first, as the search's are.
        again = ("s1", (("a", 1), ("b", (2, 3))), None, 1.5, b"x")
        assert memo.digest(again) == self.rendered(form)
        assert memo.bytes_hashed == len(render_canonical(form))

    def test_two_generations_at_most_and_what_is_asked_for_survives(
            self, monkeypatch):
        monkeypatch.setattr(canonical, "MEMO_GENERATION", 4)
        memo = DigestMemo()
        hot = ("hot",)
        memo.digest(hot)
        for index in range(40):
            assert memo.digest((index,)) == self.rendered((index,))
            assert len(memo._young) <= 4 and len(memo._old) <= 4
            if index % 3 == 0:
                memo.digest(hot)
        # Asked for once per three forms, ``hot`` moved from the old
        # generation to the young one each time: rendered only once.
        rendered = sum(len(render_canonical((index,))) for index in range(40))
        assert memo.bytes_hashed == rendered + len(render_canonical(hot))
        # What was not asked for again is gone, and renders again.
        memo.digest((0,))
        assert memo.bytes_hashed > rendered + len(render_canonical(hot))

    def test_an_unhashable_form_still_hashes(self):
        memo = DigestMemo()
        form = ("host", ["a", "list"], {"a": "dict"})
        for _ in range(2):
            assert memo.digest(form) == self.rendered(form)
        # Nothing to look it up by: rendered on both calls, never held.
        assert memo.bytes_hashed == 2 * len(render_canonical(form))
        assert not memo._young and not memo._old

    def test_forms_are_compared_by_value(self):
        """The contract case: ``1``, ``True`` and ``1.0`` are one key but
        three renderings, so a position that alternated between them would
        be answered with whichever was rendered first."""
        assert (1,) == (True,) == (1.0,)
        assert len({render_canonical(form)
                    for form in ((1,), (True,), (1.0,))}) == 3
        memo = DigestMemo()
        first = memo.digest((1,))
        assert first == self.rendered((1,))
        assert memo.digest((True,)) == first != self.rendered((True,))
        assert memo.digest((1.0,)) == first
        # None of the other types a form holds collides with another.
        assert len({memo.digest(form) for form in (
            ("1",), (b"1",), (None,), ((),), ("",), (0,), (2,))}) == 7


class TestCanonicalizeFastPath:
    """Plain sort on string keys must equal the repr-keyed slow path."""

    @staticmethod
    def slow_canonicalize_dict(d):
        items = [(canonicalize(k), canonicalize(v)) for k, v in d.items()]
        items.sort(key=lambda kv: repr(kv[0]))
        return ("dict",) + tuple(items)

    @pytest.mark.parametrize("data", [
        {"rx_packets": 1, "tx_packets": 2, "rx_bytes": 3, "tx_bytes": 4},
        {"s1": {"00:01": 1}, "s2": {}, "s10": {"00:02": 2}},
        {"a": 1, "ab": 2, "a(": 3, "a~": 4, "A": 5, "z": 6, "_": 7},
        {"": 0, "x": 1},
    ])
    def test_string_key_dicts_pin_against_slow_path(self, data):
        assert canonicalize(data) == self.slow_canonicalize_dict(data)
        assert (state_string(data)
                == repr(self.slow_canonicalize_dict(data)))

    def test_unsafe_keys_take_the_slow_path_and_still_pin(self):
        # '!' and ' ' sort below repr's closing quote; quotes and escapes
        # render escaped — all must reproduce the repr-keyed order.
        data = {"a": 1, "a!": 2, "a b": 3, "a'": 4, 'a"': 5, "a\\": 6}
        assert any(not _safe_string_key(k) for k in data)
        assert canonicalize(data) == self.slow_canonicalize_dict(data)

    def test_non_string_keys_unchanged(self):
        data = {(0, 1): "x", (0, 0, 2): "y", 3: "z"}
        assert canonicalize(data) == self.slow_canonicalize_dict(data)

    def test_safe_key_predicate(self):
        assert _safe_string_key("rx_packets")
        assert _safe_string_key("00:00:00:00:00:01")
        assert not _safe_string_key("a b")      # space < "'"
        assert not _safe_string_key("a!")       # '!' < "'"
        assert not _safe_string_key("don't")    # quote renders escaped
        assert not _safe_string_key("a\\b")     # backslash escapes
        assert not _safe_string_key(b"bytes")   # not a str


class TestSearchOrderFrontiers:
    """The deque frontier preserves exploration semantics."""

    def test_bfs_explores_the_same_space_as_dfs(self):
        scenario = scenarios.pyswitch_direct_path()
        dfs = exhaustive(scenario)
        bfs = exhaustive(scenario, search_order="bfs")
        # Exhaustive searches visit the same states whatever the order.
        assert bfs.unique_states == dfs.unique_states
        assert bfs.transitions_executed == dfs.transitions_executed
        assert bfs.quiescent_states == dfs.quiescent_states

    def test_random_order_still_works(self):
        scenario = scenarios.pyswitch_direct_path()
        random_run = exhaustive(scenario, search_order="random", seed=3)
        dfs = exhaustive(scenario)
        assert random_run.unique_states == dfs.unique_states


class TestConfigKnobs:
    def test_stats_surface_hot_path_counters(self):
        result = exhaustive(scenarios.pyswitch_direct_path())
        assert result.hash_misses > 0
        assert result.hash_hits > result.hash_misses
        assert result.bytes_hashed > 0
        assert result.cow_copied > 0
        assert "hot path" in result.summary()


class TestComponentCloneContracts:
    """The pieces the CoW discipline leans on."""

    def test_arp_client_clone_does_not_share_script(self):
        from repro.hosts.arp import ArpClient
        from repro.openflow.packet import MacAddress, arp_reply, l2_ping

        mac = MacAddress.from_string("00:00:00:00:00:01")
        peer = MacAddress.from_string("00:00:00:00:00:02")
        client = ArpClient("A", mac, 1, target_ip=2,
                           script=[l2_ping(mac, peer)])
        clone = client.clone()
        clone.deliver(arp_reply(peer, mac, 2, 1))
        clone.receive()
        assert len(clone.script) == 2      # data packet released
        assert len(client.script) == 1     # original untouched

    def test_message_canonical_is_cached_and_seq_free(self):
        from repro.openflow.messages import BarrierRequest

        message = BarrierRequest(xid=7)
        first = message.canonical()
        assert message.canonical() is first
        message.seq = 99
        assert message.canonical() is first

    def test_packet_header_cache_survives_identity_mutation(self):
        from repro.openflow.packet import MacAddress, l2_ping

        packet = l2_ping(MacAddress.from_string("00:00:00:00:00:01"),
                         MacAddress.from_string("00:00:00:00:00:02"))
        header = packet.header_tuple()
        packet.hops.append(("s1", 1))
        packet.uid = ("A", "sig", 0)
        assert packet.header_tuple() is header
        assert packet.canonical()[-1] == (("s1", 1),)
        copy = packet.copy()
        assert copy.header_tuple() == header
