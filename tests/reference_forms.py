"""The canonical forms, computed from scratch — the oracle for the cached
ones (DESIGN.md, "Sub-forms and sealed packets").

These are the ``canonical()`` bodies as they stood before any sub-form was
cached: every call re-reads the live fields, re-sorts every multiset and
re-renders every packet, trusting no ``_canon``/``_header`` slot below the
objects this repo treats as immutable values (MAC addresses, match
patterns, actions, non-packet messages).  ``src/`` keeps only the cached,
incrementally maintained versions; ``tests/test_touched_forms.py`` holds
them to these after every transition of a random walk, so a mutator that
forgets to reset its cache — or a clone that leaks a write into its
parent — shows up as a difference here.
"""

from __future__ import annotations

import hashlib

from repro.apps.energy_te import RoutingTables
from repro.apps.loadbalancer import ReplicaSpec
from repro.hosts.base import Host
from repro.mc.canonical import (
    DIGEST_SIZE,
    _SAFE_KEY_RE,
    digest_bytes,
    render_canonical,
)
from repro.mc.system import PacketLedger
from repro.openflow.actions import canonical_actions
from repro.openflow.channels import Channel
from repro.openflow.messages import PacketIn, PacketOut
from repro.openflow.packet import Packet
from repro.openflow.switch import SwitchModel

#: Length of :meth:`Host.canonical`'s own tuple; subclasses append to it.
HOST_BASE_FIELDS = 11


def packet_form(packet: Packet) -> tuple:
    return (
        packet.eth_src.canonical(),
        packet.eth_dst.canonical(),
        packet.eth_type,
        packet.ip_src,
        packet.ip_dst,
        packet.nw_proto,
        packet.tp_src,
        packet.tp_dst,
        packet.tcp_flags,
        packet.arp_op,
        packet.payload,
        packet.size,
        packet.uid,
        packet.copy_id,
        tuple(packet.hops),
    )


def message_form(message) -> tuple:
    if isinstance(message, PacketIn):
        return ("packet_in", message.switch, message.in_port,
                packet_form(message.packet), message.buffer_id,
                message.reason)
    if isinstance(message, PacketOut):
        return (
            "packet_out",
            message.buffer_id if message.buffer_id is not None else "*",
            packet_form(message.packet) if message.packet is not None
            else "*",
            canonical_actions(message.actions),
        )
    return message._render()


def _item_form(item):
    if isinstance(item, Packet):
        return packet_form(item)
    if hasattr(item, "_render"):
        return message_form(item)
    return item


def channel_form(channel: Channel) -> tuple:
    return (channel.name, channel.failed,
            tuple(_item_form(item) for item in channel.items()))


def rule_form(rule, include_counters: bool = True) -> tuple:
    base = (
        rule.priority,
        rule.match.canonical(),
        canonical_actions(rule.actions),
        rule.idle_timeout,
        rule.hard_timeout,
        rule.cookie,
    )
    if include_counters:
        return base + (rule.packet_count, rule.byte_count)
    return base


def flowtable_form(table, include_counters: bool = True) -> tuple:
    serialized = [rule_form(rule, include_counters) for rule in table]
    if table.canonical_mode:
        serialized.sort()
    return tuple(serialized)


def switch_form(switch: SwitchModel) -> tuple:
    canonical_mode = switch.table.canonical_mode
    if canonical_mode and switch.buffers:
        order = sorted(
            switch.buffers,
            key=lambda bid: (repr(packet_form(switch.buffers[bid][0])),
                             switch.buffers[bid][1]),
        )
        remap = {bid: index for index, bid in enumerate(order)}
    else:
        remap = {}

    def msg_canonical(message):
        base = message_form(message)
        if not canonical_mode:
            return base
        if isinstance(message, PacketIn) and message.buffer_id in remap:
            return base[:4] + (remap[message.buffer_id],) + base[5:]
        if isinstance(message, PacketOut) and message.buffer_id in remap:
            return base[:1] + (remap[message.buffer_id],) + base[2:]
        return base

    def buffer_key(bid):
        return remap.get(bid, bid) if canonical_mode else bid

    if switch.hash_counters:
        stats_part = tuple(sorted(
            (port, tuple(sorted(stats.items())))
            for port, stats in switch.port_stats.items()
        ))
    else:
        stats_part = ()
    return (
        switch.switch_id,
        flowtable_form(switch.table, include_counters=switch.hash_counters),
        tuple(channel_form(switch.port_in[p]) for p in switch.ports),
        (switch.ofp_in.name, switch.ofp_in.failed,
         tuple(msg_canonical(m) for m in switch.ofp_in.items())),
        (switch.ofp_out.name, switch.ofp_out.failed,
         tuple(msg_canonical(m) for m in switch.ofp_out.items())),
        tuple(sorted(
            (buffer_key(bid), packet_form(pkt), port)
            for bid, (pkt, port) in switch.buffers.items()
        )),
        stats_part,
        tuple((p, switch.port_up[p]) for p in switch.ports),
        tuple(sorted(switch.dropped, key=repr)),
    )


def host_form(host: Host) -> tuple:
    """The base host's form from scratch, plus whatever the subclass
    appends (plain scalars and script renderings, cached nowhere)."""
    base = (
        host.name,
        host.mac.canonical(),
        host.ip,
        tuple(packet_form(p) for p in host.inbox),
        tuple(sorted((packet_form(p) for p in host.received), key=repr)),
        tuple(packet_form(p) for p in host.pending),
        tuple(sorted(host.script_done)),
        host.reply_sent,
        host.sym_sent,
        host.counter_c,
        tuple(sorted(host.send_sig_counts.items())),
    )
    assert len(base) == HOST_BASE_FIELDS
    return base + host.canonical()[HOST_BASE_FIELDS:]


def ledger_form(ledger: PacketLedger) -> tuple:
    return (
        tuple(sorted(ledger.injected, key=repr)),
        tuple(sorted(ledger.delivered, key=repr)),
        tuple(sorted(ledger.lost, key=repr)),
        tuple(sorted(ledger.faults, key=repr)),
    )


#: Static configuration objects whose ``canonical()`` only caches what the
#: generic walk below builds for them; the oracle walks them again.
_CACHED_GENERIC_WALK = (ReplicaSpec, RoutingTables)


def canonicalize(obj):
    """``repro.mc.canonical.canonicalize`` as it was — no memoized key
    verdicts — and with :data:`_CACHED_GENERIC_WALK` objects walked
    generically instead of asked for their cached form.  For controller
    state, which holds none of the model classes above."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    canonical = getattr(obj, "canonical", None)
    if callable(canonical) and not isinstance(obj, _CACHED_GENERIC_WALK):
        return canonical()
    if isinstance(obj, dict):
        items = [(canonicalize(k), canonicalize(v)) for k, v in obj.items()]
        if all(type(k) is str and _SAFE_KEY_RE.match(k) is not None
               for k, _ in items):
            items.sort()
        else:
            items.sort(key=lambda kv: repr(kv[0]))
        return ("dict",) + tuple(items)
    if isinstance(obj, (list, tuple)):
        return tuple(canonicalize(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        items = sorted((canonicalize(item) for item in obj), key=repr)
        return ("set",) + tuple(items)
    if hasattr(obj, "__dict__"):
        fields = {name: value for name, value in vars(obj).items()
                  if name != "_canon"}
        return ("obj", type(obj).__name__, canonicalize(fields))
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def component_forms(system) -> dict:
    """Every hashed component of ``system``, from scratch, keyed
    ``("sw", id)`` / ``("host", name)`` / ``"app"`` / ``"ledger"``."""
    forms = {("sw", sw_id): switch_form(switch)
             for sw_id, switch in system.switches.items()}
    forms.update({("host", name): host_form(host)
                  for name, host in system.hosts.items()})
    forms["app"] = canonicalize(system.app.state_vars())
    forms["ledger"] = ledger_form(system.ledger)
    return forms


def state_hash(system, stats=None) -> str:
    """``System.state_hash`` over the from-scratch forms, consulting none
    of the system's caches.  ``stats`` (a ``HashStats``) is charged for the
    rendering: every component is a miss."""
    forms = component_forms(system)
    combined = hashlib.blake2b(digest_size=DIGEST_SIZE)
    rendered = 0
    for key in ([("sw", s) for s in sorted(system.switches)]
                + [("host", h) for h in sorted(system.hosts)]
                + ["app", "ledger"]):
        data = render_canonical(forms[key])
        rendered += len(data)
        combined.update(digest_bytes(data))
    tail = render_canonical((
        tuple(sorted(system.attachments.items())),
        tuple((e, system.events_fired[e])
              for e in sorted(system.events_fired)),
    ))
    combined.update(tail)
    rendered += len(tail)
    extra = system.canonical_extra()
    if extra:
        data = render_canonical(extra)
        rendered += len(data)
        combined.update(data)
    if stats is not None:
        stats.misses += len(forms)
        stats.bytes_hashed += rendered
    return combined.hexdigest()


def controller_state_hash(system) -> str:
    """``System.controller_state_hash``, from scratch."""
    return digest_bytes(render_canonical(
        canonicalize(system.app.state_vars()))).hex()


def reachable_packets(system):
    """Every stored packet of ``system`` — what the seal rule covers."""
    for switch in system.switches.values():
        for channel in switch.port_in.values():
            yield from channel.items()
        for packet, _port in switch.buffers.values():
            yield packet
        for channel in (switch.ofp_in, switch.ofp_out):
            for message in channel.items():
                packet = getattr(message, "packet", None)
                if packet is not None:
                    yield packet
        for packet, _reason in switch.packet_in_log:
            yield packet
    for host in system.hosts.values():
        yield from host.inbox
        yield from host.pending
        yield from host.received
        yield from host.script
        yield from getattr(host, "data_script", ())
    yield from system.ledger.history
