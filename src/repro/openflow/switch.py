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


#: The buffer-id renumbering of a switch with nothing to renumber.  One
#: shared object, because cached forms are reused while the remap they were
#: built under is the *same object* (``SwitchModel._of_canonical``).
_NO_REMAP: dict = {}


class SwitchModel:
    """One OpenFlow switch in the model."""

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
        #: Changed only by :meth:`_buffer_and_notify` and
        #: :meth:`_apply_packet_out`, which reset ``_buffers_canon``.
        self.buffers: dict[int, tuple[Packet, int]] = {}
        self._next_buffer_id = 1
        #: Per-port counters.  The inner dicts are replace-on-write values
        #: (:meth:`_count`), so checkpoint clones share them.
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
        #: Cached pieces of :meth:`canonical`, each reset by the mutators
        #: of what it renders (DESIGN.md, "Sub-forms and sealed packets"):
        #: ``(remap, buffers part)``; per OpenFlow channel ``(channel form,
        #: remap, rewritten form)``; the port-stats and dropped parts.
        self._buffers_canon: tuple | None = None
        self._ofp_in_canon: tuple | None = None
        self._ofp_out_canon: tuple | None = None
        self._stats_canon: tuple | None = None
        self._dropped_canon: tuple | None = None

    def clone(self) -> "SwitchModel":
        """Checkpoint copy (``System.clone``): field-wise and shallow.

        The channels and the flow table are cloned (new queues and a new
        table over the same items, entries and cached forms) and the
        dicts this switch writes into are copied one level deep.
        Everything they hold is shared with the original and never changed
        in place: queued messages, sealed packets (the seal rule in
        :mod:`repro.openflow.packet`), flow-table rules, the per-port
        counter dicts, and the ``dropped`` / ``packet_in_log`` lists
        (replace-on-write) — as are the cached pieces of
        :meth:`canonical`.

        This runs *lazily* (copy-on-write checkpointing): the whole
        switch stays shared between parent and child until
        ``System._dirty`` materializes the mutating side's own copy, so
        all mutation must go through the owning System (DESIGN.md,
        "Per-state hot path").
        """
        new = SwitchModel.__new__(SwitchModel)
        new.__dict__.update(self.__dict__)
        new.table = self.table.clone()
        new.port_in = {port: channel.clone()
                       for port, channel in self.port_in.items()}
        new.ofp_in = self.ofp_in.clone()
        new.ofp_out = self.ofp_out.clone()
        new.buffers = dict(self.buffers)
        new.port_stats = dict(self.port_stats)
        new.port_up = dict(self.port_up)
        return new

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
            channel = self.port_in[port]
            if len(channel) == 0:
                continue
            # The queued packet is sealed — clones of this switch share
            # it — so the hop is recorded on a copy taken out here.
            packet = channel.dequeue().copy()
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
        self.table.record_hit(rule, packet.size)
        return self._apply_actions(rule.actions, packet, in_port)

    def _count(self, port: int, packets_key: str, bytes_key: str,
               size: int) -> None:
        """Bump one direction of a port's counters, replacing the port's
        dict (clones of this switch share the old one)."""
        stats = self.port_stats[port]
        self.port_stats[port] = {**stats,
                                 packets_key: stats[packets_key] + 1,
                                 bytes_key: stats[bytes_key] + size}
        self._stats_canon = None

    def _drop(self, entry: tuple) -> None:
        self.dropped = self.dropped + [entry]
        self._dropped_canon = None

    def _buffer_and_notify(self, packet: Packet, in_port: int, reason: str) -> None:
        buffer_id = self._next_buffer_id
        self._next_buffer_id += 1
        self.buffers[buffer_id] = (packet.seal(), in_port)
        self._buffers_canon = None
        self.packet_in_log = self.packet_in_log + [(packet.copy(), reason)]
        self.ofp_out.enqueue(
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
        message = self.ofp_in.dequeue()
        return self.apply_of_message(message)

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
            self.ofp_out.enqueue(
                StatsReply(self.switch_id, message.kind, payload,
                           xid=message.xid)
            )
            return []
        if isinstance(message, BarrierRequest):
            self.ofp_out.enqueue(BarrierReply(self.switch_id, xid=message.xid))
            return []
        raise SwitchError(f"switch {self.switch_id} cannot handle {message!r}")

    def _apply_flow_mod(self, mod: FlowMod) -> None:
        if mod.command == OFPFC_ADD:
            self.table.install(
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
            self.table.remove(mod.match, strict=False)
        elif mod.command == OFPFC_DELETE_STRICT:
            self.table.remove(mod.match, priority=mod.priority, strict=True)

    def _apply_packet_out(self, out: PacketOut) -> list[tuple[int, Packet]]:
        if out.buffer_id is not None:
            entry = self.buffers.pop(out.buffer_id, None)
            if entry is None:
                # Unknown / already-released buffer: real switches return an
                # error message; the model records it and moves on.
                self._drop(("bad_buffer", out.buffer_id, None))
                return []
            self._buffers_canon = None
            packet, in_port = entry
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
        self.table.remove_rule(rule)
        self.ofp_out.enqueue(
            FlowRemoved(self.switch_id, rule.match, rule.priority,
                        rule.packet_count, rule.byte_count)
        )

    def set_port_state(self, port: int, is_up: bool) -> None:
        if port not in self.port_up:
            raise SwitchError(f"unknown port {port} on {self.switch_id}")
        if self.port_up[port] != is_up:
            self.port_up[port] = is_up
            self.ofp_out.enqueue(PortStatus(self.switch_id, port, is_up))

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

        This method only *assembles*: every part is cached where its data
        lives — the flow table and each channel keep their own form, the
        parts built here (``_buffers_canon`` and friends) are reset by the
        few methods that change what they render — so a re-hash after a
        transition re-renders what the transition touched.
        """
        remap, buffers_part = self._buffers_canonical()
        stats_part = ()
        if self.hash_counters:
            stats_part = self._stats_canon
            if stats_part is None:
                stats_part = self._stats_canon = tuple(sorted(
                    (port, tuple(sorted(stats.items())))
                    for port, stats in self.port_stats.items()
                ))
        dropped_part = self._dropped_canon
        if dropped_part is None:
            dropped_part = self._dropped_canon = tuple(
                sorted(self.dropped, key=repr))
        return (
            self.switch_id,
            self.table.canonical(include_counters=self.hash_counters),
            # port_in and port_up were filled in the order of self.ports,
            # which is sorted, and a clone copies them in that order.
            tuple([channel.canonical() for channel in self.port_in.values()]),
            self._of_canonical(self.ofp_in, remap, "_ofp_in_canon"),
            self._of_canonical(self.ofp_out, remap, "_ofp_out_canon"),
            buffers_part,
            stats_part,
            tuple(self.port_up.items()),
            dropped_part,
        )

    def _buffers_canonical(self) -> tuple[dict, tuple]:
        """``(remap, buffers part)``: the content-derived renumbering of
        the buffer ids and the buffers rendered under it."""
        cached = self._buffers_canon
        if cached is None:
            buffers = self.buffers
            if self.table.canonical_mode and buffers:
                order = sorted(
                    buffers,
                    key=lambda bid: (repr(buffers[bid][0].canonical()),
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

    def _of_canonical(self, channel: Channel, remap: dict, slot: str) -> tuple:
        """One OpenFlow channel's form with buffer ids rewritten through
        ``remap``.  The rewritten form is kept in the attribute ``slot``
        and reused while the channel's own form and the remap are the
        same objects it was built from."""
        form = channel.canonical()
        if not remap or not form[2]:
            return form
        cached = getattr(self, slot)
        if cached is None or cached[0] is not form or cached[1] is not remap:
            messages = []
            for message, base in zip(channel.items(), form[2]):
                if isinstance(message, PacketIn) \
                        and message.buffer_id in remap:
                    base = base[:4] + (remap[message.buffer_id],) + base[5:]
                elif isinstance(message, PacketOut) \
                        and message.buffer_id in remap:
                    base = base[:1] + (remap[message.buffer_id],) + base[2:]
                messages.append(base)
            cached = (form, remap, (form[0], form[1], tuple(messages)))
            setattr(self, slot, cached)
        return cached[2]

    def __repr__(self) -> str:
        return (f"SwitchModel({self.switch_id}, rules={len(self.table)},"
                f" buffered={len(self.buffers)})")
