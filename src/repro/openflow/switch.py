"""The simplified OpenFlow switch model (Section 2.2.2).

The switch is a set of communication channels, a flow table, and two
transitions:

* ``process_pkt`` — dequeues the first packet from *each* non-empty packet
  channel and processes all of them against the flow table as a single
  transition.  (Safe because the model checker already explores all packet
  arrival orderings; the paper makes the same optimization.)
* ``process_of`` — dequeues and applies one OpenFlow message from the
  controller channel.

A packet with no matching rule is buffered and announced to the controller
with a ``packet_in`` carrying reason ``NO_MATCH``; a rule whose action list
contains :class:`~repro.openflow.actions.ActionController` buffers the packet
with reason ``ACTION``.  The distinction matters: BUG-V in the paper's load
balancer stems from a handler that ignores ``NO_MATCH`` arrivals.

The switch never routes packets itself — transitions return *emissions*
(``(out_port, packet)`` pairs) that the surrounding
:class:`~repro.mc.system.System` delivers along links, so the switch stays
independently testable.
"""

from __future__ import annotations

from repro.errors import SwitchError
from repro.openflow.actions import (
    ActionController,
    ActionDrop,
    ActionFlood,
    ActionOutput,
    ActionSetDlDst,
    ActionSetDlSrc,
    ActionTable,
)
from repro.openflow.channels import Channel
from repro.openflow.flowtable import FlowTable
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowRemoved,
    OFPFC_ADD,
    OFPFC_DELETE,
    OFPFC_DELETE_STRICT,
    OFPR_ACTION,
    OFPR_NO_MATCH,
    OFPST_FLOW,
    PacketIn,
    PacketOut,
    PortStatus,
    StatsReply,
    StatsRequest,
)
from repro.openflow.packet import Packet
from repro.openflow.rules import Rule


def _new_port_stats() -> dict:
    return {"rx_packets": 0, "tx_packets": 0, "rx_bytes": 0, "tx_bytes": 0}


#: The buffer-id renumbering of a switch with nothing to renumber.
_NO_REMAP: dict = {}

#: Ownership bits of a switch's parts (``SwitchModel._owned``): the flow
#: table, the two OpenFlow channels, three dicts, the ``port_in`` dict
#: itself and, from ``_PORT_CHANNEL`` up, one bit per port channel.
_TABLE, _OFP_IN, _OFP_OUT, _BUFFERS, _PORT_STATS, _PORT_UP, _PORT_IN = (
    1, 2, 4, 8, 16, 32, 64)
_PORT_CHANNEL = 128


class SwitchModel:
    """One OpenFlow switch in the model.

    Ownership (DESIGN.md, "Sub-forms and sealed packets"): the flow
    table, each port channel, ``ofp_in``, ``ofp_out``, ``buffers``,
    ``port_stats`` and ``port_up`` are *parts*.  A checkpoint copy
    (:meth:`clone`) shares every part with the original and owns none; a
    part is copied on its first write, by its ``_write_*`` accessor —
    the only way a part is reached to be changed, here or from outside
    (:meth:`enqueue_packet`, :meth:`enqueue_of`, :meth:`dequeue_ctrl`,
    :meth:`apply_fault`) — which also resets the form the part renders
    to, so :meth:`canonical` re-assembles only what was written.
    """

    def __init__(self, switch_id: str, ports: list[int],
                 canonical_flow_tables: bool = True,
                 reliable_packet_channels: bool = True):
        self.switch_id = switch_id
        self.ports = tuple(sorted(ports))
        if len(set(self.ports)) != len(self.ports):
            raise SwitchError(f"duplicate ports on switch {switch_id}")
        self.table = FlowTable(canonical=canonical_flow_tables)
        #: Per-port incoming packet channels.  ``reliable_packet_channels``
        #: False enables the optional fault model on them.
        self.port_in: dict[int, Channel] = {
            port: Channel(f"{switch_id}:port{port}", reliable=reliable_packet_channels)
            for port in self.ports
        }
        #: Control channels; reliable and in-order per the paper.
        self.ofp_in = Channel(f"ctrl->{switch_id}")
        self.ofp_out = Channel(f"{switch_id}->ctrl")
        #: Packets awaiting a controller decision: buffer_id -> (packet, in_port).
        self.buffers: dict[int, tuple[Packet, int]] = {}
        self._next_buffer_id = 1
        #: Per-port counters.  The inner dicts are replace-on-write values
        #: (:meth:`_count`): a copied ``port_stats`` shares them.
        self.port_stats: dict[int, dict] = {
            port: _new_port_stats() for port in self.ports
        }
        self.port_up: dict[int, bool] = {port: True for port in self.ports}
        #: uids of packets discarded by an explicit drop rule or by a
        #: buffer-discarding packet-out; the packet ledger reads these.
        #: Replace-on-write (:meth:`_drop`), shared by checkpoint clones.
        self.dropped: list[tuple] = []
        #: Whether rule/port counters participate in the state hash (see
        #: NiceConfig.hash_counters).  Counters always *function*; this only
        #: controls state-matching granularity.
        self.hash_counters = False
        #: History of every packet handed to the controller: (packet copy,
        #: reason) in occurrence order.  Properties read it (a pending
        #: PacketIn may be consumed within the same atomic step under
        #: NO-DELAY, so queue contents alone are not observable enough).
        #: History, not state: excluded from canonical().  Replace-on-write
        #: like ``dropped``.
        self.packet_in_log: list[tuple[Packet, str]] = []
        #: Which parts this object may write in place (bits above).
        self._port_bits = {port: _PORT_CHANNEL << index
                           for index, port in enumerate(self.ports)}
        self._owned = (_PORT_CHANNEL << len(self.ports)) - 1
        #: The pieces of :meth:`canonical` as last assembled, each reset
        #: by the write accessor of the part it renders (``_drop`` for
        #: the replace-on-write ``dropped``): the port channels' forms;
        #: the OpenFlow channels' forms with buffer ids rewritten (so the
        #: buffers' accessor resets them too); ``(remap, buffers part)``;
        #: the port-stats, port-up and dropped parts.
        self._ports_canon: tuple | None = None
        self._ofp_in_canon: tuple | None = None
        self._ofp_out_canon: tuple | None = None
        self._buffers_canon: tuple | None = None
        self._stats_canon: tuple | None = None
        self._port_up_canon: tuple | None = None
        self._dropped_canon: tuple | None = None

    def clone(self) -> "SwitchModel":
        """Checkpoint copy (``System.clone``): the fields, and no part.

        The copy shares the flow table, every channel and every dict with
        the original and owns none of them: each is copied when this copy
        first writes it (the ``_write_*`` accessors below).  The original
        is never written again — the whole switch stays shared between
        parent and child until ``System._write_switch`` hands whichever
        side writes first a copy of its own, so all mutation must go
        through the owning System (DESIGN.md, "Per-state hot path").
        What the parts hold is shared for good and never changed in
        place: queued messages, sealed packets (the seal rule in
        :mod:`repro.openflow.packet`), flow-table rules, the per-port
        counter dicts, the ``dropped`` / ``packet_in_log`` lists
        (replace-on-write) — as are the cached pieces of
        :meth:`canonical`.
        """
        new = SwitchModel.__new__(SwitchModel)
        new.__dict__ = self.__dict__.copy()
        new._owned = 0
        return new

    # ------------------------------------------------------------------
    # Write accessors: the part, owned by this object, its form reset
    # ------------------------------------------------------------------

    def _write_table(self) -> FlowTable:
        """The flow table keeps its own forms, reset by its mutators."""
        if not self._owned & _TABLE:
            self.table = self.table.clone()
            self._owned |= _TABLE
        return self.table

    def _write_port(self, port: int) -> Channel:
        owned = self._owned
        bit = self._port_bits[port]
        if not owned & bit:
            if not owned & _PORT_IN:
                self.port_in = dict(self.port_in)
            self.port_in[port] = self.port_in[port].clone()
            self._owned = owned | bit | _PORT_IN
        self._ports_canon = None
        return self.port_in[port]

    def _write_ofp_in(self) -> Channel:
        if not self._owned & _OFP_IN:
            self.ofp_in = self.ofp_in.clone()
            self._owned |= _OFP_IN
        self._ofp_in_canon = None
        return self.ofp_in

    def _write_ofp_out(self) -> Channel:
        if not self._owned & _OFP_OUT:
            self.ofp_out = self.ofp_out.clone()
            self._owned |= _OFP_OUT
        self._ofp_out_canon = None
        return self.ofp_out

    def _write_buffers(self) -> dict:
        """Also resets the OpenFlow channels' forms: pending messages
        name buffers by their renumbered ids."""
        if not self._owned & _BUFFERS:
            self.buffers = dict(self.buffers)
            self._owned |= _BUFFERS
        self._buffers_canon = self._ofp_in_canon = self._ofp_out_canon = None
        return self.buffers

    def _write_port_stats(self) -> dict:
        if not self._owned & _PORT_STATS:
            self.port_stats = dict(self.port_stats)
            self._owned |= _PORT_STATS
        self._stats_canon = None
        return self.port_stats

    def _write_port_up(self) -> dict:
        if not self._owned & _PORT_UP:
            self.port_up = dict(self.port_up)
            self._owned |= _PORT_UP
        self._port_up_canon = None
        return self.port_up

    # ------------------------------------------------------------------
    # Channel ends the rest of the model writes
    # ------------------------------------------------------------------

    def enqueue_packet(self, port: int, packet: Packet) -> None:
        """A packet arrives on ``port`` (from a link or a host)."""
        self._write_port(port).enqueue(packet)

    def apply_fault(self, port: int, op: tuple):
        """Apply a fault descriptor to ``port``'s packet channel."""
        return self._write_port(port).apply_fault(op)

    def enqueue_of(self, message) -> None:
        """The controller sends ``message`` to this switch."""
        self._write_ofp_in().enqueue(message)

    def dequeue_ctrl(self):
        """The controller takes this switch's next pending message."""
        return self._write_ofp_out().dequeue()

    # ------------------------------------------------------------------
    # Transition guards
    # ------------------------------------------------------------------

    def can_process_pkt(self) -> bool:
        return any(len(ch) > 0 for ch in self.port_in.values())

    def can_process_of(self) -> bool:
        return len(self.ofp_in) > 0

    # ------------------------------------------------------------------
    # process_pkt
    # ------------------------------------------------------------------

    def process_pkt(self) -> list[tuple[int, Packet]]:
        """Dequeue the head packet of every non-empty channel and process it.

        Returns the emissions ``(out_port, packet)`` for the system to route.
        """
        if not self.can_process_pkt():
            raise SwitchError(f"process_pkt on {self.switch_id} with empty channels")
        emissions: list[tuple[int, Packet]] = []
        for port in self.ports:
            if len(self.port_in[port]) == 0:
                continue
            # The queued packet is sealed — clones of this switch share
            # it — so the hop is recorded on a copy taken out here.
            packet = self._write_port(port).dequeue().copy()
            emissions.extend(self._handle_packet(packet, port))
        return emissions

    def _handle_packet(self, packet: Packet, in_port: int) -> list[tuple[int, Packet]]:
        self._count(in_port, "rx_packets", "rx_bytes", packet.size)
        packet.hops.append((self.switch_id, in_port))
        return self._run_table(packet, in_port)

    def _run_table(self, packet: Packet, in_port: int) -> list[tuple[int, Packet]]:
        rule = self.table.lookup(packet, in_port)
        if rule is None:
            self._buffer_and_notify(packet, in_port, OFPR_NO_MATCH)
            return []
        self._write_table().record_hit(rule, packet.size)
        return self._apply_actions(rule.actions, packet, in_port)

    def _count(self, port: int, packets_key: str, bytes_key: str,
               size: int) -> None:
        """Bump one direction of a port's counters, replacing the port's
        dict (clones of this switch share the old one)."""
        port_stats = self._write_port_stats()
        stats = port_stats[port]
        port_stats[port] = {**stats,
                            packets_key: stats[packets_key] + 1,
                            bytes_key: stats[bytes_key] + size}

    def _drop(self, entry: tuple) -> None:
        self.dropped = self.dropped + [entry]
        self._dropped_canon = None

    def _buffer_and_notify(self, packet: Packet, in_port: int, reason: str) -> None:
        buffer_id = self._next_buffer_id
        self._next_buffer_id += 1
        self._write_buffers()[buffer_id] = (packet.seal(), in_port)
        self.packet_in_log = self.packet_in_log + [(packet.copy(), reason)]
        self._write_ofp_out().enqueue(
            PacketIn(self.switch_id, in_port, packet.copy(), buffer_id, reason)
        )

    def _apply_actions(self, actions, packet: Packet,
                       in_port: int) -> list[tuple[int, Packet]]:
        """Interpret an action list; returns emissions."""
        emissions: list[tuple[int, Packet]] = []
        working = packet
        explicit_drop = False
        for action in actions:
            if isinstance(action, ActionOutput):
                emissions.append((action.port, working))
            elif isinstance(action, ActionFlood):
                for port in self.ports:
                    if port != in_port and self.port_up[port]:
                        emissions.append((port, working))
            elif isinstance(action, ActionController):
                # Buffer a copy: with an output action in the same list the
                # packet object is also emitted, and the buffered and the
                # forwarded packet are two packets, told apart by identity
                # (see Channel.apply_fault).
                self._buffer_and_notify(working.copy(), in_port, OFPR_ACTION)
            elif isinstance(action, ActionDrop):
                explicit_drop = True
            elif isinstance(action, ActionSetDlSrc):
                working = working.copy()
                working.eth_src = action.mac
            elif isinstance(action, ActionSetDlDst):
                working = working.copy()
                working.eth_dst = action.mac
            else:
                raise SwitchError(f"unknown action {action!r}")
        if explicit_drop and not emissions:
            self._drop(("rule_drop", packet.uid, packet.copy_id))
        return self._materialize(emissions)

    def _materialize(self, emissions: list[tuple[int, Packet]]):
        """Give each emitted packet a distinct identity when copies fan out.

        A single emission keeps the original packet object (preserving uid
        and hop history); multiple emissions (flood) become copies whose
        ``copy_id`` extends with ``(switch, out_port)`` — deterministic and
        independent of the global event interleaving, so equivalent states
        still hash together.
        """
        if len(emissions) <= 1:
            out = emissions
        else:
            out = []
            for port, packet in emissions:
                dup = packet.copy(
                    new_copy_id=packet.copy_id + ((self.switch_id, port),)
                )
                out.append((port, dup))
        for port, packet in out:
            if port in self.port_stats:
                self._count(port, "tx_packets", "tx_bytes", packet.size)
        return out

    # ------------------------------------------------------------------
    # process_of
    # ------------------------------------------------------------------

    def process_of(self) -> list[tuple[int, Packet]]:
        """Apply the next OpenFlow message from the controller.

        Returns emissions (non-empty only for packet-out messages).
        """
        if not self.can_process_of():
            raise SwitchError(f"process_of on {self.switch_id} with empty channel")
        return self.apply_of_message(self._write_ofp_in().dequeue())

    def apply_of_message(self, message) -> list[tuple[int, Packet]]:
        if isinstance(message, FlowMod):
            self._apply_flow_mod(message)
            return []
        if isinstance(message, PacketOut):
            return self._apply_packet_out(message)
        if isinstance(message, StatsRequest):
            if message.kind == OFPST_FLOW:
                payload = self.flow_stats_snapshot()
            else:
                payload = self.stats_snapshot()
            self._write_ofp_out().enqueue(
                StatsReply(self.switch_id, message.kind, payload,
                           xid=message.xid)
            )
            return []
        if isinstance(message, BarrierRequest):
            self._write_ofp_out().enqueue(
                BarrierReply(self.switch_id, xid=message.xid))
            return []
        raise SwitchError(f"switch {self.switch_id} cannot handle {message!r}")

    def _apply_flow_mod(self, mod: FlowMod) -> None:
        if mod.command == OFPFC_ADD:
            self._write_table().install(
                Rule(
                    match=mod.match,
                    actions=mod.actions,
                    priority=mod.priority,
                    idle_timeout=mod.idle_timeout,
                    hard_timeout=mod.hard_timeout,
                    cookie=mod.cookie,
                )
            )
        elif mod.command == OFPFC_DELETE:
            self._write_table().remove(mod.match, strict=False)
        elif mod.command == OFPFC_DELETE_STRICT:
            self._write_table().remove(mod.match, priority=mod.priority,
                                       strict=True)

    def _apply_packet_out(self, out: PacketOut) -> list[tuple[int, Packet]]:
        if out.buffer_id is not None:
            if out.buffer_id not in self.buffers:
                # Unknown / already-released buffer: real switches return an
                # error message; the model records it and moves on.
                self._drop(("bad_buffer", out.buffer_id, None))
                return []
            packet, in_port = self._write_buffers().pop(out.buffer_id)
        else:
            packet, in_port = out.packet.copy(), -1
        if not out.actions:
            # Empty action list discards the buffered packet: this is how a
            # controller intentionally consumes a packet.
            self._drop(("ctrl_discard", packet.uid, packet.copy_id))
            return []
        if any(isinstance(a, ActionTable) for a in out.actions):
            # OFPP_TABLE: run the packet through the flow table as if it had
            # just arrived on its original port (without re-counting rx).
            return self._run_table(packet, in_port)
        return self._apply_actions(out.actions, packet, in_port)

    # ------------------------------------------------------------------
    # Expiry, ports, stats
    # ------------------------------------------------------------------

    def expire_rule(self, rule_index: int) -> None:
        """Explicit expiry transition for rule ``rule_index`` (canonical order)."""
        expirable = self.table.expirable_rules()
        if not 0 <= rule_index < len(expirable):
            raise SwitchError(f"no expirable rule {rule_index} on {self.switch_id}")
        rule = expirable[rule_index]
        self._write_table().remove_rule(rule)
        self._write_ofp_out().enqueue(
            FlowRemoved(self.switch_id, rule.match, rule.priority,
                        rule.packet_count, rule.byte_count)
        )

    def set_port_state(self, port: int, is_up: bool) -> None:
        if port not in self.port_up:
            raise SwitchError(f"unknown port {port} on {self.switch_id}")
        if self.port_up[port] != is_up:
            self._write_port_up()[port] = is_up
            self._write_ofp_out().enqueue(
                PortStatus(self.switch_id, port, is_up))

    def stats_snapshot(self) -> dict:
        """Deep copy of the per-port counters (for stats replies)."""
        return {port: dict(stats) for port, stats in self.port_stats.items()}

    def flow_stats_snapshot(self) -> dict:
        """Per-rule traffic counters, keyed by canonical rule position
        (OFPST_FLOW replies)."""
        return {
            index: {
                "match": rule.match.canonical(),
                "priority": rule.priority,
                "packet_count": rule.packet_count,
                "byte_count": rule.byte_count,
            }
            for index, rule in enumerate(self.table)
        }

    # ------------------------------------------------------------------
    # State serialization
    # ------------------------------------------------------------------

    def canonical(self) -> tuple:
        """Stable serialization of the entire switch state for hashing.

        In canonical mode (Section 2.2.2's merging of equivalent switch
        states) buffer ids are *renumbered* in a content-derived order —
        two interleavings that buffered the same packets in a different
        order still hash together.  References to buffer ids inside pending
        packet-in / packet-out messages are rewritten consistently.  The
        NO-SWITCH-REDUCTION baseline keeps raw ids (and unsorted tables).

        This method only *assembles*: the flow table and each channel
        keep their own form, the pieces built here are kept until the
        write accessor of the part they render resets them — so a re-hash
        after a transition re-renders what the transition wrote.
        """
        remap, buffers_part = (self._buffers_canon
                               or self._buffers_canonical())
        ports_part = self._ports_canon
        if ports_part is None:
            # port_in and port_up were filled in the order of self.ports,
            # which is sorted, and a copy keeps that order.
            ports_part = self._ports_canon = tuple(
                [channel.canonical() for channel in self.port_in.values()])
        ofp_in_part = self._ofp_in_canon
        if ofp_in_part is None:
            ofp_in_part = self._ofp_in_canon = self._of_canonical(
                self.ofp_in, remap)
        ofp_out_part = self._ofp_out_canon
        if ofp_out_part is None:
            ofp_out_part = self._ofp_out_canon = self._of_canonical(
                self.ofp_out, remap)
        stats_part = ()
        if self.hash_counters:
            stats_part = self._stats_canon
            if stats_part is None:
                stats_part = self._stats_canon = tuple(sorted(
                    (port, tuple(sorted(stats.items())))
                    for port, stats in self.port_stats.items()
                ))
        port_up_part = self._port_up_canon
        if port_up_part is None:
            port_up_part = self._port_up_canon = tuple(self.port_up.items())
        dropped_part = self._dropped_canon
        if dropped_part is None:
            dropped_part = self._dropped_canon = tuple(
                sorted(self.dropped, key=repr))
        return (
            self.switch_id,
            self.table.canonical(include_counters=self.hash_counters),
            ports_part,
            ofp_in_part,
            ofp_out_part,
            buffers_part,
            stats_part,
            port_up_part,
            dropped_part,
        )

    def _buffers_canonical(self) -> tuple[dict, tuple]:
        """Build and keep ``(remap, buffers part)``: the content-derived
        renumbering of the buffer ids and the buffers rendered under it."""
        buffers = self.buffers
        if self.table.canonical_mode and buffers:
            order = sorted(
                buffers,
                key=lambda bid: (buffers[bid][0].canonical_key(),
                                 buffers[bid][1]),
            )
            remap = {bid: index for index, bid in enumerate(order)}
        else:
            order, remap = sorted(buffers), _NO_REMAP
        part = tuple(
            (remap.get(bid, bid), buffers[bid][0].canonical(),
             buffers[bid][1])
            for bid in order
        )
        cached = self._buffers_canon = (remap, part)
        return cached

    @staticmethod
    def _of_canonical(channel: Channel, remap: dict) -> tuple:
        """One OpenFlow channel's form with buffer ids rewritten through
        ``remap`` — the channel's own form when there is nothing to
        renumber or nothing queued."""
        form = channel.canonical()
        if not remap or not form[2]:
            return form
        messages = []
        for message, base in zip(channel.items(), form[2]):
            if isinstance(message, PacketIn) \
                    and message.buffer_id in remap:
                base = base[:4] + (remap[message.buffer_id],) + base[5:]
            elif isinstance(message, PacketOut) \
                    and message.buffer_id in remap:
                base = base[:1] + (remap[message.buffer_id],) + base[2:]
            messages.append(base)
        return (form[0], form[1], tuple(messages))

    def __repr__(self) -> str:
        return (f"SwitchModel({self.switch_id}, rules={len(self.table)},"
                f" buffered={len(self.buffers)})")
