"""Unit tests for the simplified switch model."""

import pytest

from repro.errors import SwitchError
from repro.openflow.actions import (
    ActionController,
    ActionDrop,
    ActionFlood,
    ActionOutput,
    ActionSetDlDst,
)
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowRemoved,
    OFPFC_ADD,
    OFPFC_DELETE,
    OFPR_ACTION,
    OFPR_NO_MATCH,
    PacketIn,
    PacketOut,
    StatsReply,
    StatsRequest,
)
from repro.openflow.packet import MacAddress, Packet
from repro.openflow.switch import SwitchModel


def mac(n):
    return MacAddress.from_int(n)


def pkt(src=1, dst=2, uid=0):
    p = Packet(eth_src=mac(src), eth_dst=mac(dst), uid=uid)
    return p


def make_switch(ports=(1, 2, 3)):
    return SwitchModel("s1", list(ports))


class TestTableMiss:
    def test_miss_buffers_and_sends_packet_in(self):
        sw = make_switch()
        sw.port_in[1].enqueue(pkt())
        emissions = sw.process_pkt()
        assert emissions == []
        assert len(sw.buffers) == 1
        assert len(sw.ofp_out) == 1
        msg = sw.ofp_out.peek()
        assert isinstance(msg, PacketIn)
        assert msg.reason == OFPR_NO_MATCH
        assert msg.in_port == 1
        assert msg.buffer_id in sw.buffers

    def test_buffer_ids_are_sequential(self):
        sw = make_switch()
        sw.port_in[1].enqueue(pkt(uid=1))
        sw.process_pkt()
        sw.port_in[2].enqueue(pkt(uid=2))
        sw.process_pkt()
        assert sorted(sw.buffers) == [1, 2]


class TestRuleProcessing:
    def test_output_action_emits(self):
        sw = make_switch()
        sw.table.install(
            __import__("repro.openflow.rules", fromlist=["Rule"]).Rule(
                Match(dl_src=mac(1)), [ActionOutput(3)])
        )
        sw.port_in[1].enqueue(pkt())
        emissions = sw.process_pkt()
        assert len(emissions) == 1
        port, out = emissions[0]
        assert port == 3
        assert out.eth_src == mac(1)

    def test_rule_counters_update(self):
        from repro.openflow.rules import Rule

        sw = make_switch()
        rule = Rule(Match(), [ActionOutput(2)])
        sw.table.install(rule)
        sw.port_in[1].enqueue(pkt())
        sw.process_pkt()
        # Counted on the table's own copy: the installed object is shared
        # with every checkpoint clone of the table and stays as it was.
        (counted,) = sw.table.rules
        assert (counted.packet_count, counted.byte_count) == (1, 64)
        assert (rule.packet_count, rule.byte_count) == (0, 0)

    def test_flood_copies_to_all_other_ports(self):
        from repro.openflow.rules import Rule

        sw = make_switch()
        sw.table.install(Rule(Match(), [ActionFlood()]))
        sw.port_in[1].enqueue(pkt(uid=9))
        emissions = sw.process_pkt()
        assert sorted(port for port, _ in emissions) == [2, 3]
        copy_ids = {p.copy_id for _, p in emissions}
        assert len(copy_ids) == 2  # each flood copy distinct
        assert all(p.uid == 9 for _, p in emissions)

    def test_flood_skips_down_ports(self):
        from repro.openflow.rules import Rule

        sw = make_switch()
        sw.table.install(Rule(Match(), [ActionFlood()]))
        sw.port_up[3] = False
        sw.port_in[1].enqueue(pkt())
        emissions = sw.process_pkt()
        assert [port for port, _ in emissions] == [2]

    def test_drop_action_records(self):
        from repro.openflow.rules import Rule

        sw = make_switch()
        sw.table.install(Rule(Match(), [ActionDrop()]))
        sw.port_in[1].enqueue(pkt(uid=4))
        assert sw.process_pkt() == []
        assert sw.dropped == [("rule_drop", 4, ())]

    def test_controller_action_buffers_with_action_reason(self):
        from repro.openflow.rules import Rule

        sw = make_switch()
        sw.table.install(Rule(Match(), [ActionController()]))
        sw.port_in[1].enqueue(pkt())
        sw.process_pkt()
        assert sw.ofp_out.peek().reason == OFPR_ACTION

    def test_set_dl_dst_rewrites_header(self):
        from repro.openflow.rules import Rule

        sw = make_switch()
        sw.table.install(Rule(Match(), [ActionSetDlDst(mac(9)), ActionOutput(2)]))
        sw.port_in[1].enqueue(pkt())
        emissions = sw.process_pkt()
        assert emissions[0][1].eth_dst == mac(9)

    def test_hops_recorded(self):
        from repro.openflow.rules import Rule

        sw = make_switch()
        sw.table.install(Rule(Match(), [ActionOutput(2)]))
        p = pkt()
        sw.port_in[1].enqueue(p)
        ((_, emitted),) = sw.process_pkt()
        # The hop is on the emitted packet — a copy taken out of the
        # channel; the enqueued original is stored, hence never mutated.
        assert emitted.hops == [("s1", 1)]
        assert emitted is not p and p.hops == []

    def test_process_pkt_handles_all_channels_in_one_transition(self):
        # Section 2.2.2: the head of *each* channel is processed as a single
        # transition.
        sw = make_switch()
        sw.port_in[1].enqueue(pkt(uid=1))
        sw.port_in[2].enqueue(pkt(uid=2))
        sw.port_in[2].enqueue(pkt(uid=3))
        sw.process_pkt()
        assert len(sw.buffers) == 2          # uid=1 and uid=2 processed
        assert len(sw.port_in[2]) == 1       # uid=3 still queued

    def test_process_pkt_on_empty_raises(self):
        with pytest.raises(SwitchError):
            make_switch().process_pkt()


class TestOpenFlowMessages:
    def test_flow_mod_add_and_delete(self):
        sw = make_switch()
        sw.ofp_in.enqueue(FlowMod(OFPFC_ADD, Match(dl_src=mac(1)),
                                  [ActionOutput(2)]))
        sw.process_of()
        assert len(sw.table) == 1
        sw.ofp_in.enqueue(FlowMod(OFPFC_DELETE, Match()))
        sw.process_of()
        assert len(sw.table) == 0

    def test_packet_out_releases_buffer(self):
        sw = make_switch()
        sw.port_in[1].enqueue(pkt())
        sw.process_pkt()
        buffer_id = sw.ofp_out.dequeue().buffer_id
        sw.ofp_in.enqueue(PacketOut(buffer_id, None, [ActionOutput(2)]))
        emissions = sw.process_of()
        assert [port for port, _ in emissions] == [2]
        assert sw.buffers == {}

    def test_packet_out_empty_actions_discards(self):
        sw = make_switch()
        sw.port_in[1].enqueue(pkt(uid=5))
        sw.process_pkt()
        buffer_id = sw.ofp_out.dequeue().buffer_id
        sw.ofp_in.enqueue(PacketOut(buffer_id, None, []))
        assert sw.process_of() == []
        assert sw.buffers == {}
        assert ("ctrl_discard", 5, ()) in sw.dropped

    def test_packet_out_unknown_buffer_recorded(self):
        sw = make_switch()
        sw.ofp_in.enqueue(PacketOut(99, None, [ActionOutput(1)]))
        assert sw.process_of() == []
        assert ("bad_buffer", 99, None) in sw.dropped

    def test_packet_out_raw_packet(self):
        sw = make_switch()
        sw.ofp_in.enqueue(PacketOut(None, pkt(), [ActionOutput(1)]))
        emissions = sw.process_of()
        assert [port for port, _ in emissions] == [1]

    def test_stats_request_reply(self):
        sw = make_switch()
        sw.port_in[1].enqueue(pkt())
        sw.process_pkt()
        sw.ofp_in.enqueue(StatsRequest(xid=7))
        sw.process_of()
        # skip the PacketIn, find the stats reply
        messages = sw.ofp_out.items()
        reply = next(m for m in messages if isinstance(m, StatsReply))
        assert reply.xid == 7
        assert reply.stats[1]["rx_packets"] == 1

    def test_barrier(self):
        sw = make_switch()
        sw.ofp_in.enqueue(BarrierRequest(xid=3))
        sw.process_of()
        reply = sw.ofp_out.dequeue()
        assert isinstance(reply, BarrierReply)
        assert reply.xid == 3

    def test_process_of_on_empty_raises(self):
        with pytest.raises(SwitchError):
            make_switch().process_of()


class TestExpiryAndPorts:
    def test_expire_rule_sends_flow_removed(self):
        from repro.openflow.rules import Rule

        sw = make_switch()
        sw.table.install(Rule(Match(), [ActionOutput(1)], hard_timeout=5))
        sw.expire_rule(0)
        assert len(sw.table) == 0
        assert isinstance(sw.ofp_out.dequeue(), FlowRemoved)

    def test_expire_bad_index(self):
        with pytest.raises(SwitchError):
            make_switch().expire_rule(0)

    def test_port_status_message(self):
        sw = make_switch()
        sw.set_port_state(2, False)
        msg = sw.ofp_out.dequeue()
        assert msg.canonical() == ("port_status", "s1", 2, False)
        sw.set_port_state(2, False)  # no duplicate event
        assert len(sw.ofp_out) == 0


class TestCanonicalState:
    def test_same_history_same_canonical(self):
        a, b = make_switch(), make_switch()
        for sw in (a, b):
            sw.port_in[1].enqueue(pkt())
            sw.process_pkt()
        assert a.canonical() == b.canonical()

    def test_different_buffer_contents_differ(self):
        a, b = make_switch(), make_switch()
        a.port_in[1].enqueue(pkt(uid=1))
        a.process_pkt()
        assert a.canonical() != b.canonical()

    def test_tx_stats_update_on_emission(self):
        from repro.openflow.rules import Rule

        sw = make_switch()
        sw.table.install(Rule(Match(), [ActionOutput(2)]))
        sw.port_in[1].enqueue(pkt())
        sw.process_pkt()
        assert sw.port_stats[2]["tx_packets"] == 1
        assert sw.port_stats[2]["tx_bytes"] == 64
