"""The controller-side OpenFlow API surface.

Applications call these methods from inside event handlers.  Two
implementations share the interface:

* :class:`LiveControllerAPI` — enqueues real OpenFlow messages onto the
  per-switch control channels of a :class:`repro.mc.system.System`; the
  switch applies them when the model checker schedules ``process_of``.
* :class:`RecordingControllerAPI` — used during concolic execution: records
  the calls (so path summaries can report what a handler *would* do) without
  touching any system state.

``OUTPUT`` / ``FLOOD`` / ``DROP`` constants let applications keep the
paper's ``actions = [OUTPUT, outport]`` idiom from Figure 3.
"""

from __future__ import annotations

from repro.errors import ControllerError
from repro.openflow.actions import (
    Action,
    ActionController,
    ActionDrop,
    ActionFlood,
    ActionOutput,
    ActionTable,
)
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierRequest,
    FlowMod,
    OFPFC_ADD,
    OFPFC_DELETE,
    OFPFC_DELETE_STRICT,
    OFPST_PORT,
    PacketOut,
    StatsRequest,
)
from repro.openflow.packet import Packet
from repro.openflow.rules import DEFAULT_PRIORITY, PERMANENT

OUTPUT = "output"
FLOOD = "flood"
DROP = "drop"
CONTROLLER = "controller"


def normalize_match(match) -> Match:
    """Accept a :class:`Match` or the Figure 3 field-dict style."""
    if isinstance(match, Match):
        return match
    if isinstance(match, dict):
        return Match.from_dict(match)
    raise ControllerError(f"cannot interpret match {match!r}")


def normalize_actions(actions) -> list[Action]:
    """Accept Action objects, or the paper's ``[OUTPUT, port]`` pair style."""
    if actions is None:
        return []
    if (
        len(actions) == 2
        and actions[0] in (OUTPUT,)
        and isinstance(actions[1], int)
    ):
        return [ActionOutput(actions[1])]
    out: list[Action] = []
    for item in actions:
        if isinstance(item, Action):
            out.append(item)
        elif item == FLOOD:
            out.append(ActionFlood())
        elif item == DROP:
            out.append(ActionDrop())
        elif item == CONTROLLER:
            out.append(ActionController())
        else:
            raise ControllerError(f"cannot interpret action {item!r}")
    return out


class ControllerAPI:
    """Abstract interface; see module docstring."""

    def install_rule(self, sw_id: str, match, actions,
                     soft_timer: int = PERMANENT, hard_timer: int = PERMANENT,
                     priority: int = DEFAULT_PRIORITY, cookie: int = 0) -> None:
        raise NotImplementedError

    def delete_rules(self, sw_id: str, match, priority: int | None = None,
                     strict: bool = False) -> None:
        raise NotImplementedError

    def send_packet_out(self, sw_id: str, pkt: Packet | None = None,
                        bufid: int | None = None, actions=None) -> None:
        raise NotImplementedError

    def flood_packet(self, sw_id: str, pkt: Packet | None,
                     bufid: int | None) -> None:
        raise NotImplementedError

    def drop_buffer(self, sw_id: str, bufid: int) -> None:
        raise NotImplementedError

    def query_port_stats(self, sw_id: str, xid: int = 0) -> None:
        raise NotImplementedError

    def send_barrier(self, sw_id: str, xid: int = 0) -> None:
        raise NotImplementedError


class LiveControllerAPI(ControllerAPI):
    """Enqueues OpenFlow messages on the system's control channels."""

    def __init__(self, system):
        self._system = system

    def _send(self, sw_id: str, message) -> None:
        switch = self._system.switches.get(sw_id)
        if switch is None:
            raise ControllerError(f"unknown switch {sw_id!r}")
        switch.enqueue_of(message)

    def install_rule(self, sw_id, match, actions, soft_timer=PERMANENT,
                     hard_timer=PERMANENT, priority=DEFAULT_PRIORITY,
                     cookie=0):
        self._send(sw_id, FlowMod(
            OFPFC_ADD,
            normalize_match(match),
            normalize_actions(actions),
            priority=priority,
            idle_timeout=soft_timer,
            hard_timeout=hard_timer,
            cookie=cookie,
        ))

    def delete_rules(self, sw_id, match, priority=None, strict=False):
        command = OFPFC_DELETE_STRICT if strict else OFPFC_DELETE
        self._send(sw_id, FlowMod(
            command, normalize_match(match),
            priority=priority if priority is not None else DEFAULT_PRIORITY))

    def send_packet_out(self, sw_id, pkt=None, bufid=None, actions=None):
        """Release a buffered packet (or inject a raw one).

        ``actions=None`` means "process through the flow table"
        (OFPP_TABLE) — how NOX's pyswitch makes the packet follow the rule
        it just installed.
        """
        acts = [ActionTable()] if actions is None else normalize_actions(actions)
        self._send(sw_id, PacketOut(bufid, pkt, acts))

    def flood_packet(self, sw_id, pkt, bufid):
        self._send(sw_id, PacketOut(bufid, pkt, [ActionFlood()]))

    def drop_buffer(self, sw_id, bufid):
        """Consume a buffered packet without forwarding it anywhere."""
        self._send(sw_id, PacketOut(bufid, None, []))

    def query_port_stats(self, sw_id, xid=0):
        self._send(sw_id, StatsRequest(OFPST_PORT, xid=xid))

    def send_barrier(self, sw_id, xid=0):
        self._send(sw_id, BarrierRequest(xid=xid))


class RecordingControllerAPI(ControllerAPI):
    """Records API calls; used while concolically executing a handler."""

    def __init__(self):
        self.calls: list[tuple] = []

    def install_rule(self, sw_id, match, actions, soft_timer=PERMANENT,
                     hard_timer=PERMANENT, priority=DEFAULT_PRIORITY,
                     cookie=0):
        self.calls.append(("install_rule", sw_id))

    def delete_rules(self, sw_id, match, priority=None, strict=False):
        self.calls.append(("delete_rules", sw_id))

    def send_packet_out(self, sw_id, pkt=None, bufid=None, actions=None):
        self.calls.append(("send_packet_out", sw_id))

    def flood_packet(self, sw_id, pkt, bufid):
        self.calls.append(("flood_packet", sw_id))

    def drop_buffer(self, sw_id, bufid):
        self.calls.append(("drop_buffer", sw_id))

    def query_port_stats(self, sw_id, xid=0):
        self.calls.append(("query_port_stats", sw_id))

    def send_barrier(self, sw_id, xid=0):
        self.calls.append(("send_barrier", sw_id))
