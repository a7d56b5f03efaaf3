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
from repro.controller.runtime import ControllerRuntime
from repro.errors import TransitionError
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
    """System-wide accounting of packet fates."""

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
        #: order).  Kept in step by the ``record_*`` methods — the only
        #: writers of the lists.
        self._canon: tuple = ((), (), (), ())
        #: Ordered history of all of the above, for properties that need
        #: happened-before information ("wait until a safe time", §5.2).
        #: Deliberately *excluded* from canonical() — two interleavings that
        #: reach the same network state should still hash together; the
        #: paper's callback-local-state design has the same blind spot.
        self.log: list[tuple] = []
        #: Header copies of every injected packet (for FLOW-IR's
        #: established-flow test).  Derivable from ``injected``; not hashed.
        self.history: list[Packet] = []

    def _record(self, records: list, index: int, entry: tuple) -> None:
        records.append(entry)
        forms = self._canon
        self._canon = (forms[:index]
                       + (insort_canonical(forms[index], entry),)
                       + forms[index + 1:])

    def record_injected(self, packet: Packet, host: str) -> None:
        self._record(self.injected, 0, (packet.uid, host))
        self.log.append(("inj", packet.uid, host, packet.flow_key()))
        header_copy = packet.copy()
        header_copy.hops = []
        self.history.append(header_copy)

    def record_delivered(self, packet: Packet, host: str) -> None:
        self._record(self.delivered, 1, (packet.uid, packet.copy_id, host))
        self.log.append(("del", packet.uid, host, packet.flow_key()))

    def record_lost(self, packet: Packet, switch: str, port: int) -> None:
        self._record(self.lost, 2,
                     (packet.uid, packet.copy_id, switch, port))
        self.log.append(("lost", packet.uid, switch, port))

    def record_fault(self, op: tuple, switch: str, port: int) -> None:
        self._record(self.faults, 3, (op, switch, port))
        self.log.append(("fault", op, switch, port))

    def clone(self) -> "PacketLedger":
        """Checkpoint copy: every record is an immutable tuple (and the
        ``history`` packets are private header copies, never mutated), so
        shallow list copies suffice."""
        new = PacketLedger.__new__(PacketLedger)
        new.injected = list(self.injected)
        new.delivered = list(self.delivered)
        new.lost = list(self.lost)
        new.faults = list(self.faults)
        new._canon = self._canon
        new.log = list(self.log)
        new.history = list(self.history)
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
        for name, ports in topo.switches.items():
            switch = SwitchModel(
                name,
                ports,
                canonical_flow_tables=config.canonical_flow_tables,
                reliable_packet_channels=not config.channel_faults,
            )
            switch.hash_counters = config.hash_counters
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
        #: Per-component blake2b digests (DESIGN.md, "Per-state hot
        #: path").  Keys: ``("sw", id)``, ``("host", name)``, ``"app"``,
        #: ``"ledger"``, plus the rendered ``"meta"`` tail.  Every mutation
        #: path pops the affected keys via :meth:`_dirty`; a state hash
        #: combines what is left instead of re-rendering the whole tree.
        self._digest_cache: dict = {}
        #: Hot-path counters, shared by reference with every clone.
        self._hash_stats = HashStats()
        #: Copy-on-write bookkeeping: component keys whose objects may also
        #: be referenced by another System (a parent or a child), and must
        #: therefore be copied before their first mutation.  Every mutation
        #: path goes through :meth:`_dirty`, which materializes shared
        #: components before dropping their cached forms.
        self._shared: set = set()
        #: Component and event orderings are fixed for the lifetime of the
        #: system (and every clone); precomputing them keeps sorts out of
        #: the per-state hot path.
        self._sw_order = tuple(sorted(self.switches))
        self._host_order = tuple(sorted(self.hosts))
        self._event_order = tuple(sorted(self.events_fired))
        #: The component keys in the order ``state_hash`` combines them.
        self._hash_order = (
            tuple(("sw", sw_id) for sw_id in self._sw_order)
            + tuple(("host", name) for name in self._host_order)
            + ("app", "ledger")
        )
        self._component_keys = frozenset(self._hash_order)

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
        self.runtime.boot(self.api(), self.topo, sorted(self.switches))
        self._dirty("app")
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

        Mutate-through-owner discipline: a component reference is fetched
        *after* the ``_dirty`` call that covers it, never before — under
        copy-on-write cloning ``_dirty`` may replace the shared component
        with this system's own copy, and a stale reference would mutate
        the parent's state.
        """
        kind = transition.kind
        if kind == tk.PROCESS_PKT:
            self._dirty(("sw", transition.actor))
            switch = self._switch(transition.actor)
            self.route(transition.actor, switch.process_pkt())
        elif kind == tk.PROCESS_OF:
            self._dirty(("sw", transition.actor))
            switch = self._switch(transition.actor)
            self.route(transition.actor, switch.process_of())
        elif kind == tk.CTRL_HANDLE:
            switch = self._switch(transition.actor)
            pending = switch.ofp_out.peek() if switch.ofp_out else None
            self._begin_handler("ctrl_handle", transition.actor, pending)
            self.handle_ctrl_message(switch)
            self._end_handler()
        elif kind == tk.CTRL_STATS:
            self._begin_handler("ctrl_stats", transition.actor, None)
            self._dirty(("sw", transition.actor), "app")
            self._execute_ctrl_stats(transition)
            self._end_handler()
        elif kind == tk.CTRL_EVENT:
            if self.events_fired.get(transition.actor, True):
                raise TransitionError(f"event {transition.actor!r} already fired")
            self.events_fired[transition.actor] = True
            self._begin_handler("ctrl_event", transition.actor, None)
            self._dirty("app", "meta")
            self.app.handle_event(self.api(), transition.actor)
            self._end_handler()
        elif kind == tk.HOST_SEND:
            self._execute_host_send(transition)
        elif kind == tk.HOST_RECV:
            self._dirty(("host", transition.actor), "ledger")
            host = self._host(transition.actor)
            packet = host.receive()
            self.ledger.record_delivered(packet, transition.actor)
        elif kind == tk.HOST_MOVE:
            self._execute_host_move(transition)
        elif kind == tk.EXPIRE_RULE:
            self._dirty(("sw", transition.actor))
            self._switch(transition.actor).expire_rule(transition.arg)
        elif kind == tk.CHANNEL_FAULT:
            port, op = transition.arg
            self._dirty(("sw", transition.actor), "ledger")
            switch = self._switch(transition.actor)
            switch.port_in[port].apply_fault(tuple(op))
            self.ledger.record_fault(tuple(op), transition.actor, port)
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
        reply = switch.ofp_out.dequeue()
        stats = transition.payload if transition.payload is not None else reply.stats
        self.app.port_stats_in(self.api(), transition.actor, stats, xid=reply.xid)

    def _execute_host_send(self, transition: Transition) -> None:
        self._dirty(("host", transition.actor), "ledger")
        host = self._host(transition.actor)
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
        occurrence = host.send_sig_counts.get(signature, 0)
        host.send_sig_counts[signature] = occurrence + 1
        packet.uid = (host.name, signature, occurrence)
        packet.copy_id = ()
        packet.hops = []
        switch_id, port = self.host_locations[host.name]
        self._dirty(("sw", switch_id))
        self._switch(switch_id).port_in[port].enqueue(packet.seal())
        self.ledger.record_injected(packet, host.name)

    def _execute_host_move(self, transition: Transition) -> None:
        # "meta" covers the attachment map in the digest-combine tail.
        self._dirty(("host", transition.actor), "meta")
        host = self._host(transition.actor)
        target = tuple(transition.arg)
        if target[0] not in self.switches or target[1] not in self.switches[target[0]].ports:
            raise TransitionError(f"move target {target} is not a switch port")
        if self.attachments.get(target) not in (None, host.name):
            raise TransitionError(f"move target {target} is occupied")
        old = self.host_locations[host.name]
        host.take_move()
        self.attachments.pop(old, None)
        self.attachments[target] = host.name
        self.host_locations[host.name] = target

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
                self._dirty(("host", host_name))
                self.hosts[host_name].deliver(packet)
                continue
            endpoint = self.topo.endpoint(sw_id, port)
            if endpoint is not None and endpoint.kind == Endpoint.KIND_SWITCH:
                self._dirty(("sw", endpoint.node))
                self.switches[endpoint.node].port_in[endpoint.port].enqueue(packet)
                continue
            # Nothing attached (loose port, or the host moved away): the
            # packet leaves the network without reaching any destination.
            self._dirty("ledger")
            self.ledger.record_lost(packet, sw_id, port)

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
                # the switch object (copy-on-write materialization), and a
                # stale reference would read the pre-copy queues forever.
                while self.switches[sw_id].can_process_of():
                    self.pump_process_of(sw_id)
                    progress = True
                while self.runtime.can_handle(self.switches[sw_id]):
                    self.handle_ctrl_message(self.switches[sw_id])
                    progress = True

    def handle_ctrl_message(self, switch) -> None:
        """Run the controller handler for ``switch``'s next pending message.

        The invalidation-safe entry point: dequeuing from ``ofp_out`` and the
        handler's controller-state mutation both invalidate cached canonical
        forms; API calls to other switches invalidate theirs via the stamping
        wrapper.  Strategies that pump the control plane outside ``execute``
        (NO-DELAY) must go through here.
        """
        self._dirty(("sw", switch.switch_id), "app")
        # _dirty may have copied the switch (copy-on-write); dequeue from
        # this system's own object, not the caller's possibly-stale one.
        self.runtime.handle_message(self.api(), self.switches[switch.switch_id])

    def pump_process_of(self, sw_id: str) -> None:
        """Apply one pending controller message at ``sw_id`` and route the
        resulting emissions (invalidation-safe; used by boot and NO-DELAY)."""
        self._dirty(("sw", sw_id))
        self.route(sw_id, self.switches[sw_id].process_of())

    # ------------------------------------------------------------------
    # State identity / checkpointing
    # ------------------------------------------------------------------

    def _dirty(self, *keys) -> None:
        """Declare components about to be mutated.

        Two jobs, driven by the same keys: materialize any component still
        shared with a parent/child clone (copy-on-write), and drop its
        cached digest.  Every mutation path calls this *before* touching
        the component and fetches its reference *after*.
        """
        for key in keys:
            if key in self._shared:
                self._materialize(key)
            self._digest_cache.pop(key, None)

    def _materialize(self, key) -> None:
        """Replace a shared component with this system's own copy."""
        self._shared.discard(key)
        self._hash_stats.cow_copied += 1
        if key == "app":
            self.runtime = ControllerRuntime(self.runtime.app.clone())
        elif key == "ledger":
            self.ledger = self.ledger.clone()
        else:
            kind, name = key
            if kind == "sw":
                self.switches[name] = self.switches[name].clone()
            else:
                self.hosts[name] = self.hosts[name].clone()

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
        digest = self._digest_cache.get("app")
        if digest is None:
            self._hash_stats.misses += 1
            digest = self._digest_miss("app")
        else:
            self._hash_stats.hits += 1
        return digest.hex()

    def _digest_miss(self, key) -> bytes:
        """Digest the component under ``key`` anew and cache the digest
        (the caller counts the miss).  Its form has to be assembled — it
        is what the memo is asked by — but is rendered only if
        :class:`HashStats` has not seen it lately."""
        if type(key) is tuple:
            kind, name = key
            form = (self.switches if kind == "sw"
                    else self.hosts)[name].canonical()
        elif key == "app":
            form = self.app.canonical_state()
        else:
            form = self.ledger.canonical()
        digest = self._digest_cache[key] = self._hash_stats.digest(form)
        return digest

    def state_hash(self) -> str:
        """Digest of the full state, for the explored-state set.

        Combines the cached per-component digests Merkle-style: a
        transition that touched one switch re-digests that one switch, not
        the whole tree.  Two states combine to the same digest exactly
        when their canonical forms are equal.
        """
        cache = self._digest_cache
        stats = self._hash_stats
        parts = []
        missing = 0
        for key in self._hash_order:
            digest = cache.get(key)
            if digest is None:
                missing += 1
                digest = self._digest_miss(key)
            parts.append(digest)
        stats.misses += missing
        stats.hits += len(parts) - missing
        # The small always-owned fields (attachments, fired events) ride
        # along as a cached rendered tail under the "meta" dirty key; the
        # component digest count is fixed per topology, so the
        # concatenation is unambiguous.
        tail = cache.get("meta")
        if tail is None:
            tail = cache["meta"] = render_canonical((
                tuple(sorted(self.attachments.items())),
                tuple((e, self.events_fired[e]) for e in self._event_order),
            ))
            stats.bytes_hashed += len(tail)
        parts.append(tail)
        # Subclass extras (the JPF baseline's pending operations) may be
        # mutated directly from outside ``execute``, so they are rendered
        # per call, never cached — they are empty for plain systems.
        extra = self.canonical_extra()
        if extra:
            data = render_canonical(extra)
            stats.bytes_hashed += len(data)
            parts.append(data)
        return hashlib.blake2b(b"".join(parts),
                               digest_size=DIGEST_SIZE).hexdigest()

    def clone(self) -> "System":
        """Checkpoint: share everything, copy on write.

        The clone *shares* every switch, host, app, and ledger component
        with this system, and a component is copied lazily on its first
        mutation — by :meth:`_dirty`, the same invalidation that already
        knows exactly which components a transition touches.  Cloning is
        O(#components) dict copies and executing a child costs one
        component copy per touched component (the ``clone`` methods on
        :class:`SwitchModel`, :class:`FlowTable`,
        :class:`~repro.hosts.base.Host`, :class:`PacketLedger` and the
        apps: field-wise shallow copies sharing messages, sealed packets
        and cached canonical sub-forms), not one full state copy per
        child (DESIGN.md, "Per-state hot path").
        """
        new = object.__new__(System)
        new.topo = self.topo
        new.config = self.config
        new.switches = dict(self.switches)
        new.hosts = dict(self.hosts)
        new.runtime = self.runtime
        new.ledger = self.ledger
        new._shared = set(self._component_keys)
        # The parent keeps referencing the same objects, so it gives up
        # exclusive ownership too: whichever side mutates a component
        # first materializes its own copy (isolation in both directions).
        self._shared.update(self._component_keys)
        new.attachments = dict(self.attachments)
        new.host_locations = dict(self.host_locations)
        new.events_fired = dict(self.events_fired)
        new.of_seq = self.of_seq
        new.last_handler = None
        new._api_calls = []
        # Digests are immutable; a shallow copy lets the child reuse
        # everything its transition does not invalidate.
        new._digest_cache = dict(self._digest_cache)
        new._hash_stats = self._hash_stats
        new._component_keys = self._component_keys
        new._hash_order = self._hash_order
        new._sw_order = self._sw_order
        new._host_order = self._host_order
        new._event_order = self._event_order
        return new

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _switch(self, sw_id: str) -> SwitchModel:
        switch = self.switches.get(sw_id)
        if switch is None:
            raise TransitionError(f"unknown switch {sw_id!r}")
        return switch

    def _host(self, name: str):
        host = self.hosts.get(name)
        if host is None:
            raise TransitionError(f"unknown host {name!r}")
        return host

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

        def wrapper(sw_id, *args, **kwargs):
            # Invalidate (and, under copy-on-write, materialize) before
            # fetching the switch: the API call must enqueue onto this
            # system's own copy, and the stamping below must read it.
            self._system._dirty(("sw", sw_id), "app")
            switch = self._system.switches.get(sw_id)
            before = len(switch.ofp_in) if switch else 0
            result = method(sw_id, *args, **kwargs)
            if switch is not None:
                for message in switch.ofp_in.items()[before:]:
                    self._system.of_seq += 1
                    message.seq = self._system.of_seq
            self._system._api_calls.append((name, sw_id, args, kwargs))
            return result

        return wrapper
