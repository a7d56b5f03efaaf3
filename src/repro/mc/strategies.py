"""OpenFlow-specific search strategies (Section 4).

PKT-SEQ is always active as a bound (it lives in
:class:`~repro.config.NiceConfig` and the hosts' burst counters); the three
heuristics here prune or reshape the space of event *orderings*:

* **NO-DELAY** — controller<->switch communication is atomic: after every
  transition the control plane drains to quiescence, so rule installations
  are never interleaved with anything.  Finds basic design errors; by
  construction it misses race-condition bugs (the paper reports it misses
  BUG-V, BUG-X and BUG-XI).
* **UNUSUAL** — only explores control-message deliveries in *reverse* issue
  order: if a handler installed rules at switches 1, 2, 3, the search lets
  switch 3 apply its rule first.  Targets exactly the Figure 1 race.
* **FLOW-IR** — flow-independence reduction: when several enabled
  transitions each concern exactly one flow group (per the user-supplied
  ``is_same_flow``), only the minimal group's transitions are explored,
  fixing one relative ordering between independent groups.
"""

from __future__ import annotations

from repro.config import (
    NiceConfig,
    STRATEGY_FLOW_IR,
    STRATEGY_NO_DELAY,
    STRATEGY_PKT_SEQ,
    STRATEGY_UNUSUAL,
)
from repro.mc import transitions as tk
from repro.mc.transitions import Transition
from repro.openflow.messages import PacketIn


def default_is_same_flow(packet_a, packet_b) -> bool:
    """Default grouping: microflow identity (the OpenFlow tuple)."""
    return packet_a.flow_key() == packet_b.flow_key()


class Strategy:
    """Base strategy: no pruning (plain PKT-SEQ-bounded search)."""

    name = STRATEGY_PKT_SEQ

    def filter(self, system, enabled: list[Transition]) -> list[Transition]:
        return enabled

    def post_execute(self, system, transition: Transition) -> None:
        """Hook invoked right after every transition executes."""


class NoDelayStrategy(Strategy):
    """Instantaneous rule updates.

    "Each communication between a switch and the controller is a single
    atomic action":

    * a switch-to-controller message is handled the moment it is generated
      (the handler runs inside the generating transition, never delayed);
    * a ``process_of`` transition applies the switch's *entire* pending
      batch of controller messages at once — rule updates are
      instantaneous, so intra-switch update windows (BUG-V's
      remove-then-install gap) cannot exist.

    Different switches' control channels still interleave with data-plane
    transitions, so cross-switch installation races (BUG-IX) remain
    observable — matching the paper's Table 2, where NO-DELAY misses only
    BUG-V, BUG-X and BUG-XI.  (X and XI disappear because statistics
    replies are consumed immediately with the model's real counter values,
    so the high-load handler paths that symbolic statistics would uncover
    are never explored.)
    """

    name = STRATEGY_NO_DELAY

    def filter(self, system, enabled):
        # Switch->controller messages never wait, so no ctrl_handle /
        # ctrl_stats transitions should survive; filter defensively.
        return [t for t in enabled
                if t.kind not in (tk.CTRL_HANDLE, tk.CTRL_STATS)]

    def post_execute(self, system, transition):
        # Re-index the switch on every iteration: pumping may replace the
        # object (copy-on-write materialization), and a stale reference
        # would see the pre-copy queue forever.
        if transition.kind == tk.PROCESS_OF:
            while system.switches[transition.actor].can_process_of():
                system.pump_process_of(transition.actor)
        self._handle_pending(system)

    @staticmethod
    def _handle_pending(system):
        progress = True
        while progress:
            progress = False
            for sw_id in sorted(system.switches):
                while system.runtime.can_handle(system.switches[sw_id]):
                    system.handle_ctrl_message(system.switches[sw_id])
                    progress = True


class UnusualStrategy(Strategy):
    """Uncommon delays and reorderings of rule installations.

    When several switches hold pending controller messages, only the two
    *extreme* relative orders survive: the natural order (the oldest issued
    message first) and the fully reversed order (the newest first — the
    Figure 1 scenario where switch 3 installs before switches 2 and 1).
    Intermediate permutations are pruned, which is where the state-space
    reduction comes from; keeping the natural order alongside the reversed
    one is what lets UNUSUAL still find every bug the default search finds
    (Table 2 shows no UNUSUAL misses).

    The returned list is also *ordered* so a depth-first search tries the
    unusual interleavings first — data-plane movement ahead of rule
    installations, reversed installations ahead of natural ones — which is
    why UNUSUAL reaches BUG-VII's race an order of magnitude sooner.
    """

    name = STRATEGY_UNUSUAL

    def filter(self, system, enabled):
        def head_seq(transition):
            switch = system.switches[transition.actor]
            message = switch.ofp_in.peek()
            return getattr(message, "seq", None) or 0

        process_of = [t for t in enabled if t.kind == tk.PROCESS_OF]
        keep = set()
        if process_of:
            keep.add(min(process_of, key=head_seq))
            keep.add(max(process_of, key=head_seq))
        rest = [t for t in enabled if t.kind != tk.PROCESS_OF]

        # DFS pops from the tail, so the tail is explored first: put the
        # data-plane transitions last (explored first) and the natural-order
        # installation first (explored last).
        ordered = sorted(keep, key=head_seq)  # natural first, reversed last
        handlers = [t for t in rest
                    if t.kind in (tk.CTRL_HANDLE, tk.CTRL_STATS)]
        data = [t for t in rest
                if t.kind not in (tk.CTRL_HANDLE, tk.CTRL_STATS)]
        return ordered + handlers + data


class FlowIRStrategy(Strategy):
    """Flow-independence reduction via the user's ``is_same_flow``.

    Two complementary reductions, both fixing "one relative ordering
    between the events affecting each group" (Section 4):

    1. **Send serialization** — when a host could either *continue* an
       established flow (send a packet that ``is_same_flow`` with one
       already injected) or *initiate* a new one, only the continuations
       are explored; new flows start only once no continuation is
       available.  This is what makes FLOW-IR miss BUG-VII: the duplicate
       SYN is, per the load balancer's own ``is_same_flow``, an independent
       new flow, so it is never interleaved into the ongoing connection.
    2. **Processing order** — among enabled non-send transitions that each
       act on packets of exactly one group, only the minimal group's
       transitions are explored; these consume their packets, so no group
       starves.
    """

    name = STRATEGY_FLOW_IR

    def __init__(self, is_same_flow=None):
        self.is_same_flow = is_same_flow or default_is_same_flow

    def filter(self, system, enabled):
        enabled = self._serialize_sends(system, enabled)
        return self._reduce_processing(system, enabled)

    # -- reduction 1: send serialization --------------------------------

    def _serialize_sends(self, system, enabled):
        sends = [t for t in enabled if t.kind == tk.HOST_SEND]
        if not sends:
            return enabled
        history = system.ledger.history
        if not history:
            return enabled

        def is_continuation(transition) -> bool:
            packets = self._packets_of(system, transition)
            return any(
                self.is_same_flow(packet, old)
                for packet in packets for old in history
            )

        continuations = [t for t in sends if is_continuation(t)]
        if continuations:
            # Ongoing flows first; new flows wait.
            keep = set(map(id, continuations))
            return [t for t in enabled
                    if t.kind != tk.HOST_SEND or id(t) in keep]
        # No continuations: new flows may start, but only once no *other*
        # group's packets are still in flight — this fixes the single
        # relative ordering between independent groups.
        in_flight = list(self._in_flight_packets(system))

        def blocked(transition) -> bool:
            packets = self._packets_of(system, transition)
            return any(
                not self.is_same_flow(candidate, flying)
                for candidate in packets for flying in in_flight
            )

        return [t for t in enabled
                if t.kind != tk.HOST_SEND or not blocked(t)]

    @staticmethod
    def _in_flight_packets(system):
        """Packets inside the fabric (switch channels and buffers).

        Packets already delivered to a host's inbox or queued as replies do
        not block new groups — only the fabric must be quiet, which keeps
        the reduction at the "one relative ordering" level rather than a
        full serialization of entire exchanges.
        """
        for switch in system.switches.values():
            for port in switch.ports:
                yield from switch.port_in[port].items()
            for packet, _port in switch.buffers.values():
                yield packet

    # -- reduction 2: one processing order between groups ---------------

    def _reduce_processing(self, system, enabled):
        representatives: list = []

        def group_of(packet) -> int:
            for index, representative in enumerate(representatives):
                if self.is_same_flow(packet, representative):
                    return index
            representatives.append(packet)
            return len(representatives) - 1

        transition_group: dict[int, int | None] = {}
        for position, transition in enumerate(enabled):
            if transition.kind == tk.HOST_SEND:
                transition_group[position] = None
                continue
            packets = self._packets_of(system, transition)
            if not packets:
                transition_group[position] = None
                continue
            groups = {group_of(p) for p in packets}
            transition_group[position] = groups.pop() if len(groups) == 1 else None
        present = {g for g in transition_group.values() if g is not None}
        if len(present) <= 1:
            return enabled
        minimal = min(present)
        return [
            transition for position, transition in enumerate(enabled)
            if transition_group[position] in (None, minimal)
        ]

    def _packets_of(self, system, transition: Transition) -> list:
        """The packets a transition would act on (for grouping)."""
        kind = transition.kind
        if kind == tk.HOST_SEND:
            host = system.hosts[transition.actor]
            descriptor = transition.arg
            if descriptor[0] == "sym":
                return [transition.payload] if transition.payload else []
            if descriptor[0] == "script":
                return [host.script[descriptor[1]]]
            if descriptor[0] == "pending" and host.pending:
                return [host.pending[0]]
            return []
        if kind == tk.HOST_RECV:
            host = system.hosts[transition.actor]
            return [host.inbox[0]] if host.inbox else []
        if kind == tk.PROCESS_PKT:
            switch = system.switches[transition.actor]
            return [switch.port_in[p].peek() for p in switch.ports
                    if len(switch.port_in[p]) > 0]
        if kind == tk.CTRL_HANDLE:
            switch = system.switches[transition.actor]
            if switch.ofp_out and isinstance(switch.ofp_out.peek(), PacketIn):
                return [switch.ofp_out.peek().packet]
            return []
        return []


def make_strategy(config: NiceConfig, app=None,
                  is_same_flow=None) -> Strategy:
    """Build the strategy object selected by ``config.strategy``.

    FLOW-IR picks up the application's ``is_same_flow`` hook when present
    (Section 4: "the programmer provides isSameFlow"), else the scenario's
    ``is_same_flow``, else the default microflow grouping.
    """
    if config.strategy == STRATEGY_PKT_SEQ:
        return Strategy()
    if config.strategy == STRATEGY_NO_DELAY:
        return NoDelayStrategy()
    if config.strategy == STRATEGY_UNUSUAL:
        return UnusualStrategy()
    if config.strategy == STRATEGY_FLOW_IR:
        # Bound methods and plain two-argument functions alike.
        hook = getattr(app, "is_same_flow", None)
        return FlowIRStrategy(hook if hook is not None else is_same_flow)
    raise ValueError(f"unknown strategy {config.strategy!r}")
