"""The composed system model: controller + switches + hosts + channels.

A :class:`System` is the model-checker's notion of "state": a plain-Python
object tree that can be cloned copy-on-write (checkpointing), canonically
serialized and digested per component (state matching), and advanced by
executing :class:`~repro.mc.transitions.Transition` descriptors (always
deterministically — the foundation of trace replay, Section 6).

The system also keeps the :class:`PacketLedger`: a record of every packet
injected, delivered, lost (forwarded out a port with nothing attached — the
black holes of BUG-I), or dropped, which the correctness properties read.
"""

from __future__ import annotations

import hashlib

from repro.config import NiceConfig
from repro.controller.api import LiveControllerAPI
from repro.controller.app import observes_counters
from repro.controller.runtime import ControllerRuntime
from repro.errors import ControllerError, TransitionError
from repro.mc import transitions as tk
from repro.mc.canonical import (
    DIGEST_SIZE,
    DigestMemo,
    canonicalize,
    insort_canonical,
    render_canonical,
)
from repro.mc.transitions import Transition
from repro.openflow.messages import PacketIn, StatsReply
from repro.openflow.packet import Packet
from repro.openflow.switch import SwitchModel
from repro.topo.topology import Endpoint, Topology


class HashStats(DigestMemo):
    """Per-state hot-path counters, and the memo that renders each distinct
    form once (DESIGN.md, "Per-state hot path").

    One object is shared by reference between a System and every clone
    descended from it, so a search run (or one worker process) accumulates
    into a single place — and remembers forms in a single place, never
    module-global:

    * ``hits`` / ``misses`` — component-digest cache hits vs. recomputes;
    * ``bytes_hashed`` — bytes of canonical *rendering* performed for
      hashing: the forms :meth:`~repro.mc.canonical.DigestMemo.digest` had
      not seen lately (components and per-send header signatures) and the
      meta tail.  About a tenth of the bytes the recomputed components
      hold, because nine in ten of them return to a remembered form;
      deterministic for a serial search.  Re-feeding already-cached
      digests/tails to the 16-byte combiner is not counted — it is not
      rendering work;
    * ``cow_copied`` — components lazily copied by copy-on-write clones.
    """

    __slots__ = ("hits", "misses", "cow_copied")

    def __init__(self):
        super().__init__()
        self.hits = 0
        self.misses = 0
        self.cow_copied = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.hits, self.misses, self.bytes_hashed, self.cow_copied)

    def __repr__(self):
        return (f"HashStats(hits={self.hits}, misses={self.misses},"
                f" bytes={self.bytes_hashed}, cow={self.cow_copied})")


class PacketLedger:
    """System-wide accounting of packet fates.

    Ownership: every list below is a *part*.  A checkpoint copy
    (:meth:`clone`) shares all of them with the original and owns none;
    :meth:`_record` — their only writer — copies a list the first time
    this ledger appends to it.
    """

    #: The four hashed records, in the order of the canonical form, then
    #: the two unhashed histories: a part's ownership bit is ``1 << i``.
    _PARTS = ("injected", "delivered", "lost", "faults", "log", "history")

    def __init__(self):
        #: (uid, host) per injection.
        self.injected: list[tuple] = []
        #: (uid, copy_id, host) per packet consumed by a host.
        self.delivered: list[tuple] = []
        #: (uid, copy_id, switch, port) per packet sent into the void.
        self.lost: list[tuple] = []
        #: fault-model events (op, switch, port).
        self.faults: list[tuple] = []
        #: The canonical form: the four records above, in that order, each
        #: as a sorted multiset (which events happened matters, not in what
        #: order), and beside it the sort keys ``insort_canonical`` keeps.
        self._canon: tuple = ((), (), (), ())
        self._keys: tuple = ((), (), (), ())
        #: Ordered history of all of the above, for properties that need
        #: happened-before information ("wait until a safe time", §5.2).
        #: Deliberately *excluded* from canonical() — two interleavings that
        #: reach the same network state should still hash together; the
        #: paper's callback-local-state design has the same blind spot.
        self.log: list[tuple] = []
        #: Header copies of every injected packet (for FLOW-IR's
        #: established-flow test).  Derivable from ``injected``; not hashed.
        self.history: list[Packet] = []
        #: Which parts this object may append to in place.
        self._owned = (1 << len(self._PARTS)) - 1

    def _record(self, index: int, entry) -> None:
        """Append ``entry`` to part ``index`` — copied first unless this
        ledger already owns it — and, for a hashed record, insert it into
        the canonical form."""
        name = self._PARTS[index]
        if self._owned >> index & 1:
            getattr(self, name).append(entry)
        else:
            setattr(self, name, getattr(self, name) + [entry])
            self._owned |= 1 << index
        if index < 4:
            keys, forms = self._keys, self._canon
            key_row, form_row = insort_canonical(keys[index], forms[index],
                                                 entry, repr(entry))
            self._keys = keys[:index] + (key_row,) + keys[index + 1:]
            self._canon = forms[:index] + (form_row,) + forms[index + 1:]

    def record_injected(self, packet: Packet, host: str) -> None:
        self._record(0, (packet.uid, host))
        self._record(4, ("inj", packet.uid, host, packet.flow_key()))
        header_copy = packet.copy()
        header_copy.hops = []
        self._record(5, header_copy)

    def record_delivered(self, packet: Packet, host: str) -> None:
        self._record(1, (packet.uid, packet.copy_id, host))
        self._record(4, ("del", packet.uid, host, packet.flow_key()))

    def record_lost(self, packet: Packet, switch: str, port: int) -> None:
        self._record(2, (packet.uid, packet.copy_id, switch, port))
        self._record(4, ("lost", packet.uid, switch, port))

    def record_fault(self, op: tuple, switch: str, port: int) -> None:
        self._record(3, (op, switch, port))
        self._record(4, ("fault", op, switch, port))

    def clone(self) -> "PacketLedger":
        """Checkpoint copy: the fields, and no part.  Every record is an
        immutable tuple (and the ``history`` packets are private header
        copies, never mutated), so a list, once copied, is enough."""
        new = PacketLedger.__new__(PacketLedger)
        new.__dict__ = self.__dict__.copy()
        new._owned = 0
        return new

    def canonical(self) -> tuple:
        return self._canon


class System:
    """One state of the whole network under test."""

    def __init__(self, topo: Topology, app, hosts: list, config: NiceConfig):
        topo.validate()
        self.topo = topo
        self.config = config
        self.switches: dict[str, SwitchModel] = {}
        hash_counters = observes_counters(app)
        for name, ports in topo.switches.items():
            switch = SwitchModel(
                name,
                ports,
                canonical_flow_tables=config.canonical_flow_tables,
                reliable_packet_channels=not config.channel_faults,
            )
            switch.hash_counters = hash_counters
            self.switches[name] = switch
        self.hosts: dict[str, object] = {}
        for host in hosts:
            if host.name not in topo.hosts:
                raise TransitionError(f"host {host.name!r} not in topology")
            host.counter_c = config.max_outstanding
            self.hosts[host.name] = host
        #: Dynamic attachment map; mobile hosts mutate it.
        self.attachments: dict[tuple[str, int], str] = {
            topo.hosts[name].location: name for name in self.hosts
        }
        self.host_locations: dict[str, tuple[str, int]] = {
            name: topo.hosts[name].location for name in self.hosts
        }
        self.runtime = ControllerRuntime(app)
        self.ledger = PacketLedger()
        self.events_fired: dict[str, bool] = {
            name: False for name in app.external_events()
        }
        #: Issue-order stamp for controller->switch messages (UNUSUAL).
        self.of_seq = 0
        #: Record of the most recent controller-handler invocation:
        #: ``{"kind", "switch", "packet", "calls"}`` where calls is the list
        #: of API invocations the handler made.  Properties such as
        #: UseCorrectRoutingTable inspect it right after a transition.
        #: Ephemeral (derived from the last transition) — not hashed.
        self.last_handler: dict | None = None
        self._api_calls: list[tuple] = []
        #: Hot-path counters, shared by reference with every clone.
        self._hash_stats = HashStats()
        #: Component and event orderings are fixed for the lifetime of the
        #: system (and every clone); precomputing them keeps sorts out of
        #: the per-state hot path.
        self._sw_order = tuple(sorted(self.switches))
        self._host_order = tuple(sorted(self.hosts))
        self._event_order = tuple(sorted(self.events_fired))
        #: Every component has a fixed *slot* — switches in name order,
        #: then hosts in name order, then the app, then the ledger — which
        #: is its position in ``_digests``, its bit in ``_shared``, and the
        #: order ``state_hash`` combines the digests in.
        self._sw_slot = {sw_id: slot
                         for slot, sw_id in enumerate(self._sw_order)}
        self._host_slot = {name: len(self._sw_order) + index
                           for index, name in enumerate(self._host_order)}
        self._app_slot = len(self._sw_order) + len(self._host_order)
        self._ledger_slot = self._app_slot + 1
        #: Per-slot blake2b digests (DESIGN.md, "Per-state hot path"), then
        #: the rendered meta tail (attachments, fired events) as the last
        #: element; ``None`` where a write dropped one.  A state hash joins
        #: what is there instead of re-rendering the whole tree.
        self._digests: list = [None] * (self._ledger_slot + 2)
        #: Copy-on-write bookkeeping: bit ``slot`` is set while that
        #: component may also be referenced by another System (a parent or
        #: a child) and must therefore be copied before this one writes
        #: it.  Every write goes through the ``_write_*`` accessors below,
        #: which do that copy and drop the digest.
        self._shared = 0
        self._every_slot = (1 << (self._ledger_slot + 1)) - 1

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    @property
    def app(self):
        return self.runtime.app

    def api(self) -> LiveControllerAPI:
        api = LiveControllerAPI(self)
        return _StampingAPI(api, self)

    def boot(self) -> None:
        """Deliver boot + switch-join events, then settle the control plane.

        Booting synchronously applies any initial rule installations so the
        search starts from the configured network, not from an exploration
        of setup orderings.
        """
        self._write_app()
        self.runtime.boot(self.api(), self.topo, sorted(self.switches))
        self.drain_control_plane()

    # ------------------------------------------------------------------
    # Enabled transitions
    # ------------------------------------------------------------------

    def enabled_transitions(self) -> list[Transition]:
        """Base enabled set (the search layer adds symbolic sends/stats)."""
        enabled: list[Transition] = []
        for sw_id in self._sw_order:
            switch = self.switches[sw_id]
            if switch.can_process_pkt():
                enabled.append(Transition(tk.PROCESS_PKT, sw_id))
            if switch.can_process_of():
                enabled.append(Transition(tk.PROCESS_OF, sw_id))
            if self.runtime.can_handle(switch):
                enabled.append(Transition(tk.CTRL_HANDLE, sw_id))
            if self.config.enable_rule_timeouts:
                for index in range(len(switch.table.expirable_rules())):
                    enabled.append(Transition(tk.EXPIRE_RULE, sw_id, index))
            if self.config.channel_faults:
                for port in switch.ports:
                    for op in switch.port_in[port].fault_operations():
                        enabled.append(
                            Transition(tk.CHANNEL_FAULT, sw_id, (port, op))
                        )
        for name in self._host_order:
            host = self.hosts[name]
            for descriptor in host.send_candidates(self.config.max_pkt_sequence):
                enabled.append(Transition(tk.HOST_SEND, name, descriptor))
            if host.can_receive():
                enabled.append(Transition(tk.HOST_RECV, name))
            for target in host.move_targets():
                enabled.append(Transition(tk.HOST_MOVE, name, target))
        for event in self._event_order:
            if not self.events_fired[event]:
                enabled.append(Transition(tk.CTRL_EVENT, event))
        return enabled

    def quiescent(self) -> bool:
        return not self.enabled_transitions()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, transition: Transition) -> None:
        """Apply one transition; raises TransitionError if not executable.

        Mutate-through-owner discipline: a component is written through
        the reference its ``_write_*`` accessor returns, never one fetched
        before — under copy-on-write cloning the accessor may replace the
        shared component with this system's own copy, and a stale
        reference would mutate the parent's state.
        """
        kind = transition.kind
        actor = transition.actor
        if kind == tk.PROCESS_PKT:
            self.route(actor, self._write_switch(actor).process_pkt())
        elif kind == tk.PROCESS_OF:
            self.route(actor, self._write_switch(actor).process_of())
        elif kind == tk.CTRL_HANDLE:
            switch = self._switch(actor)
            pending = switch.ofp_out.peek() if switch.ofp_out else None
            self._begin_handler("ctrl_handle", actor, pending)
            self.handle_ctrl_message(switch)
            self._end_handler()
        elif kind == tk.CTRL_STATS:
            self._execute_ctrl_stats(transition)
        elif kind == tk.CTRL_EVENT:
            if self.events_fired.get(actor, True):
                raise TransitionError(f"event {actor!r} already fired")
            self._write_meta()
            self.events_fired[actor] = True
            self._begin_handler("ctrl_event", actor, None)
            self._write_app().handle_event(self.api(), actor)
            self._end_handler()
        elif kind == tk.HOST_SEND:
            self._execute_host_send(transition)
        elif kind == tk.HOST_RECV:
            packet = self._write_host(actor).receive()
            self._write_ledger().record_delivered(packet, actor)
        elif kind == tk.HOST_MOVE:
            self._execute_host_move(transition)
        elif kind == tk.EXPIRE_RULE:
            self._write_switch(actor).expire_rule(transition.arg)
        elif kind == tk.CHANNEL_FAULT:
            port, op = transition.arg
            self._write_switch(actor).apply_fault(port, tuple(op))
            self._write_ledger().record_fault(tuple(op), actor, port)
        else:
            raise TransitionError(f"unknown transition kind {kind!r}")

    def _execute_ctrl_stats(self, transition: Transition) -> None:
        """Consume a pending stats reply, substituting discovered values.

        The symbolic-execution layer finds representative statistics that
        exercise each path of the stats handler (Figure 5, discover_stats);
        this transition delivers one such representative in place of the
        model's real counters.
        """
        switch = self._switch(transition.actor)
        if not switch.ofp_out or not isinstance(switch.ofp_out.peek(), StatsReply):
            raise TransitionError(
                f"no pending stats reply from {transition.actor}"
            )
        self._begin_handler("ctrl_stats", transition.actor, None)
        reply = self._write_switch(transition.actor).dequeue_ctrl()
        stats = transition.payload if transition.payload is not None else reply.stats
        self._write_app().port_stats_in(self.api(), transition.actor, stats,
                                        xid=reply.xid)
        self._end_handler()

    def _execute_host_send(self, transition: Transition) -> None:
        host = self._write_host(transition.actor)
        descriptor = transition.arg
        # Either way the host hands out a private, unsealed copy (the seal
        # rule, ``repro.openflow.packet``), so the identity reset below
        # changes no packet another state can see.
        if descriptor[0] == "sym":
            if transition.payload is None:
                raise TransitionError("symbolic send without packet payload")
            packet = host.take_send_sym(transition.payload)
        else:
            packet = host.take_send(tuple(descriptor))
        # Identity independent of global interleaving: the n-th send of a
        # given header signature by this host always gets the same uid, so
        # equivalent event orders still reach identical states.  (The
        # header tuple is already canonical.)
        signature = self._hash_stats.digest(packet.header_tuple()).hex()[:8]
        packet.uid = (host.name, signature, host.count_send(signature))
        packet.copy_id = ()
        packet.hops = []
        switch_id, port = self.host_locations[host.name]
        self._write_switch(switch_id).enqueue_packet(port, packet.seal())
        self._write_ledger().record_injected(packet, host.name)

    def _execute_host_move(self, transition: Transition) -> None:
        name = transition.actor
        target = tuple(transition.arg)
        if target[0] not in self.switches or target[1] not in self.switches[target[0]].ports:
            raise TransitionError(f"move target {target} is not a switch port")
        if self.attachments.get(target) not in (None, name):
            raise TransitionError(f"move target {target} is occupied")
        self._write_host(name).take_move()
        # The attachment map rides in the digest-combine tail.
        self._write_meta()
        self.attachments.pop(self.host_locations[name], None)
        self.attachments[target] = name
        self.host_locations[name] = target

    def _begin_handler(self, kind: str, actor: str, pending_message) -> None:
        self._api_calls = []
        packet = None
        if isinstance(pending_message, PacketIn):
            packet = pending_message.packet
        self.last_handler = {
            "kind": kind,
            "actor": actor,
            "packet": packet,
            "calls": self._api_calls,
        }

    def _end_handler(self) -> None:
        # last_handler already references the (now filled) call list.
        self._api_calls = []

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(self, sw_id: str, emissions: list[tuple[int, Packet]]) -> None:
        """Deliver switch emissions along links; track black-holed packets.

        A packet put on the wire is stored from here on, hence sealed: the
        next switch records its hop on a copy (``process_pkt``)."""
        for port, packet in emissions:
            packet.seal()
            host_name = self.attachments.get((sw_id, port))
            if host_name is not None:
                self._write_host(host_name).deliver(packet)
                continue
            endpoint = self.topo.endpoint(sw_id, port)
            if endpoint is not None and endpoint.kind == Endpoint.KIND_SWITCH:
                self._write_switch(endpoint.node).enqueue_packet(
                    endpoint.port, packet)
                continue
            # Nothing attached (loose port, or the host moved away): the
            # packet leaves the network without reaching any destination.
            self._write_ledger().record_lost(packet, sw_id, port)

    def drain_control_plane(self) -> None:
        """Run all pending control-plane work to completion, atomically.

        Used at boot and by the NO-DELAY strategy (Section 4): every
        outstanding controller<->switch message is processed in a fixed
        deterministic order until the control plane is silent.
        """
        progress = True
        while progress:
            progress = False
            for sw_id in self._sw_order:
                # Re-index every iteration: pumping or handling may replace
                # the switch object (copy-on-write), and a stale reference
                # would read the pre-copy queues forever.
                while self.switches[sw_id].can_process_of():
                    self.pump_process_of(sw_id)
                    progress = True
                while self.runtime.can_handle(self.switches[sw_id]):
                    self.handle_ctrl_message(self.switches[sw_id])
                    progress = True

    def handle_ctrl_message(self, switch) -> None:
        """Run the controller handler for ``switch``'s next pending message.

        The ownership-safe entry point: dequeuing from ``ofp_out`` and the
        handler's controller-state mutation both write components; API
        calls to other switches write theirs via the stamping wrapper.
        Strategies that pump the control plane outside ``execute``
        (NO-DELAY) must go through here.
        """
        # Dequeue from this system's own switch, which copy-on-write may
        # just have made — not the caller's possibly-stale one.
        switch = self._write_switch(switch.switch_id)
        self._write_app()
        self.runtime.handle_message(self.api(), switch)

    def pump_process_of(self, sw_id: str) -> None:
        """Apply one pending controller message at ``sw_id`` and route the
        resulting emissions (ownership-safe; used by boot and NO-DELAY)."""
        self.route(sw_id, self._write_switch(sw_id).process_of())

    # ------------------------------------------------------------------
    # State identity / checkpointing
    # ------------------------------------------------------------------

    # The write accessors.  Each declares one component about to be
    # written and does two jobs off the component's slot: hands this
    # system its own copy if the component is still shared with a
    # parent/child clone (copy-on-write), and drops its cached digest.
    # Every mutation path calls one *before* touching the component and
    # writes through what it returns.  (Four bodies alike but for what
    # they copy: this runs twice per transition, a shared helper would be
    # a third of its cost.)

    def _write_switch(self, sw_id: str) -> SwitchModel:
        slot = self._sw_slot.get(sw_id)
        if slot is None:
            raise TransitionError(f"unknown switch {sw_id!r}")
        self._digests[slot] = None
        if self._shared >> slot & 1:
            self._shared ^= 1 << slot
            self._hash_stats.cow_copied += 1
            self.switches[sw_id] = self.switches[sw_id].clone()
        return self.switches[sw_id]

    def _write_host(self, name: str):
        slot = self._host_slot.get(name)
        if slot is None:
            raise TransitionError(f"unknown host {name!r}")
        self._digests[slot] = None
        if self._shared >> slot & 1:
            self._shared ^= 1 << slot
            self._hash_stats.cow_copied += 1
            self.hosts[name] = self.hosts[name].clone()
        return self.hosts[name]

    def _write_app(self):
        slot = self._app_slot
        self._digests[slot] = None
        if self._shared >> slot & 1:
            self._shared ^= 1 << slot
            self._hash_stats.cow_copied += 1
            self.runtime = ControllerRuntime(self.runtime.app.clone())
        return self.runtime.app

    def _write_ledger(self) -> PacketLedger:
        slot = self._ledger_slot
        self._digests[slot] = None
        if self._shared >> slot & 1:
            self._shared ^= 1 << slot
            self._hash_stats.cow_copied += 1
            self.ledger = self.ledger.clone()
        return self.ledger

    def _write_meta(self) -> None:
        """The small always-owned fields (attachments, fired events) are
        about to change: drop their rendered tail."""
        self._digests[-1] = None

    def canonical_state(self) -> tuple:
        """Fully canonical state tuple — the SPIN-like baseline's state
        vector.  Each component only assembles the sub-forms it keeps
        cached (DESIGN.md, "Sub-forms and sealed packets"), so nothing is
        memoized here."""
        base = (
            tuple(canonicalize(self.switches[s]) for s in self._sw_order),
            tuple(canonicalize(self.hosts[h]) for h in self._host_order),
            self.app.canonical_state(),
            tuple(sorted(self.attachments.items())),
            canonicalize(self.ledger),
            tuple((e, self.events_fired[e]) for e in self._event_order),
        )
        extra = self.canonical_extra()
        return base + ((extra,) if extra else ())

    def canonical_extra(self) -> tuple:
        """Subclass hook: extra state folded into the hash (e.g. the JPF
        baseline's pending handler operations).  Must return an
        already-canonical tuple; ``()`` contributes nothing."""
        return ()

    def controller_state_hash(self) -> str:
        """Hash of the controller state only — the discovery-cache key of
        Figure 5 (``client.packets[state(ctrl)]``)."""
        digest = self._digests[self._app_slot]
        if digest is None:
            self._hash_stats.misses += 1
            digest = self._digest_miss(self._app_slot)
        else:
            self._hash_stats.hits += 1
        return digest.hex()

    def _digest_miss(self, slot: int) -> bytes:
        """Digest the component in ``slot`` anew and cache the digest
        (the caller counts the miss).  Its form has to be assembled — it
        is what the memo is asked by — but is rendered only if
        :class:`HashStats` has not seen it lately."""
        if slot < len(self._sw_order):
            form = self.switches[self._sw_order[slot]].canonical()
        elif slot < self._app_slot:
            form = self.hosts[
                self._host_order[slot - len(self._sw_order)]].canonical()
        elif slot == self._app_slot:
            form = self.app.canonical_state()
        else:
            form = self.ledger.canonical()
        digest = self._digests[slot] = self._hash_stats.digest(form)
        return digest

    def state_hash(self) -> str:
        """Digest of the full state, for the explored-state set.

        Combines the cached per-component digests Merkle-style: a
        transition that touched one switch re-digests that one switch, not
        the whole tree.  Two states combine to the same digest exactly
        when their canonical forms are equal.
        """
        digests = self._digests
        stats = self._hash_stats
        missing = digests.count(None)
        if missing:
            # The small always-owned fields (attachments, fired events)
            # ride along as a rendered tail in the last position; the
            # component digest count is fixed per topology, so the
            # concatenation is unambiguous.
            if digests[-1] is None:
                missing -= 1
                tail = digests[-1] = render_canonical((
                    tuple(sorted(self.attachments.items())),
                    tuple((e, self.events_fired[e])
                          for e in self._event_order),
                ))
                stats.bytes_hashed += len(tail)
            slot = -1
            for _ in range(missing):
                slot = digests.index(None, slot + 1)
                self._digest_miss(slot)
            stats.misses += missing
        stats.hits += len(digests) - 1 - missing
        data = b"".join(digests)
        # Subclass extras (the JPF baseline's pending operations) may be
        # mutated directly from outside ``execute``, so they are rendered
        # per call, never cached — they are empty for plain systems.
        extra = self.canonical_extra()
        if extra:
            rendered = render_canonical(extra)
            stats.bytes_hashed += len(rendered)
            data += rendered
        return hashlib.blake2b(data, digest_size=DIGEST_SIZE).hexdigest()

    def clone(self) -> "System":
        """Checkpoint: share everything, copy on write.

        The clone *shares* every switch, host, app, and ledger component
        with this system, and a component is copied lazily on its first
        write — by its ``_write_*`` accessor, which every mutation path
        already calls to drop the component's digest.  A component's own
        ``clone`` copies no part either (the ``clone`` methods on
        :class:`SwitchModel`, :class:`~repro.hosts.base.Host`,
        :class:`PacketLedger`: a field-wise copy owning nothing; the
        apps': field-wise shallow copies), so a transition pays for the
        parts it writes, not for the components it touches, let alone a
        full state copy per child (DESIGN.md, "Per-state hot path").
        """
        new = object.__new__(type(self))
        new.topo = self.topo
        new.config = self.config
        new.switches = dict(self.switches)
        new.hosts = dict(self.hosts)
        new.runtime = self.runtime
        new.ledger = self.ledger
        # The parent keeps referencing the same objects, so it gives up
        # exclusive ownership too: whichever side writes a component
        # first copies it (isolation in both directions).
        new._shared = self._shared = self._every_slot
        new.attachments = dict(self.attachments)
        new.host_locations = dict(self.host_locations)
        new.events_fired = dict(self.events_fired)
        new.of_seq = self.of_seq
        new.last_handler = None
        new._api_calls = []
        # Digests are immutable; a shallow copy lets the child reuse
        # everything its transition does not invalidate.
        new._digests = self._digests[:]
        new._hash_stats = self._hash_stats
        new._sw_order = self._sw_order
        new._host_order = self._host_order
        new._event_order = self._event_order
        new._sw_slot = self._sw_slot
        new._host_slot = self._host_slot
        new._app_slot = self._app_slot
        new._ledger_slot = self._ledger_slot
        new._every_slot = self._every_slot
        return new

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _switch(self, sw_id: str) -> SwitchModel:
        switch = self.switches.get(sw_id)
        if switch is None:
            raise TransitionError(f"unknown switch {sw_id!r}")
        return switch

    def __repr__(self):
        return (f"System({len(self.switches)} switches, {len(self.hosts)} hosts,"
                f" app={type(self.app).__name__})")


class _StampingAPI:
    """Wraps the live API to stamp controller->switch messages with a global
    issue sequence (consumed by the UNUSUAL strategy)."""

    def __init__(self, api: LiveControllerAPI, system: System):
        self._api = api
        self._system = system

    def __getattr__(self, name):
        method = getattr(self._api, name)
        system = self._system

        def wrapper(sw_id, *args, **kwargs):
            if sw_id not in system.switches:
                raise ControllerError(f"unknown switch {sw_id!r}")
            # Own the switch before the call: it must enqueue onto this
            # system's copy, and the stamping below must read that copy.
            switch = system._write_switch(sw_id)
            system._write_app()
            before = len(switch.ofp_in)
            result = method(sw_id, *args, **kwargs)
            for message in switch.ofp_in.since(before):
                system.of_seq += 1
                message.seq = system.of_seq
            system._api_calls.append((name, sw_id, args, kwargs))
            return result

        # One closure per handler and method, not per call.
        self.__dict__[name] = wrapper
        return wrapper
