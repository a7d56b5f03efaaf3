"""Dispatching OpenFlow events to application handlers.

The runtime is the controller-side component of the model: it owns the
application instance and turns switch-to-controller messages into handler
invocations.  One ``ctrl_handle(sw)`` transition dequeues exactly one message
from that switch's channel and runs the matching handler to completion
(handler atomicity, Section 2.2.1).
"""

from __future__ import annotations

from repro.errors import ControllerError
from repro.openflow.messages import (
    BarrierReply,
    FlowRemoved,
    PacketIn,
    PortStatus,
    StatsReply,
)


class ControllerRuntime:
    """The controller component: an application plus message dispatch."""

    def __init__(self, app):
        self.app = app

    def boot(self, api, topo, switch_ids: list[str]) -> None:
        """Deliver initial events: app boot, then one join per switch.

        Joins arrive in sorted order so initialization is deterministic.
        """
        self.app.boot(api, topo)
        for sw_id in sorted(switch_ids):
            self.app.switch_join(api, sw_id, {})

    def can_handle(self, switch) -> bool:
        return len(switch.ofp_out) > 0

    def peek_kind(self, switch) -> str | None:
        """The kind of the next pending message ('packet_in', 'stats', ...)."""
        if not switch.ofp_out:
            return None
        message = switch.ofp_out.peek()
        if isinstance(message, PacketIn):
            return "packet_in"
        if isinstance(message, StatsReply):
            return "stats"
        if isinstance(message, PortStatus):
            return "port_status"
        if isinstance(message, BarrierReply):
            return "barrier"
        if isinstance(message, FlowRemoved):
            return "flow_removed"
        return "other"

    def handle_message(self, api, switch) -> None:
        """Dequeue one message from ``switch`` and invoke its handler."""
        if not switch.ofp_out:
            raise ControllerError(
                f"no pending message from switch {switch.switch_id}"
            )
        message = switch.dequeue_ctrl()
        self.dispatch(api, message)

    def dispatch(self, api, message) -> None:
        app = self.app
        if isinstance(message, PacketIn):
            app.packet_in(api, message.switch, message.in_port,
                          message.packet, message.buffer_id, message.reason)
        elif isinstance(message, StatsReply):
            app.port_stats_in(api, message.switch, message.stats, xid=message.xid)
        elif isinstance(message, PortStatus):
            app.port_status(api, message.switch, message.port, message.is_up)
        elif isinstance(message, BarrierReply):
            app.barrier_reply(api, message.switch, xid=message.xid)
        elif isinstance(message, FlowRemoved):
            app.flow_removed(api, message.switch, message.match, message.priority)
        else:
            raise ControllerError(f"controller cannot dispatch {message!r}")
