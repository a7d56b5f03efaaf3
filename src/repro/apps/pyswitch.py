"""The MAC-learning switch — Figure 3 of the paper, line for line.

The ``packet_in`` handler learns the input port associated with each
non-broadcast source MAC address; if the destination MAC address is known,
it installs a forwarding rule and instructs the switch to send the packet
according to that rule; otherwise it floods the packet.  Switch join/leave
initialize/delete the per-switch MAC table.

This is the application in which NICE uncovers:

* **BUG-I** — host unreachable after moving (NoBlackHoles): the soft
  timeout never expires while the sender keeps transmitting, so a stale
  rule keeps forwarding to the host's old port;
* **BUG-II** — delayed direct path (StrictDirectPaths): only the
  reply-direction rule is installed, so a third packet still goes to the
  controller;
* **BUG-III** — excess flooding (NoForwardingLoops): flooding on a cyclic
  topology without a spanning tree.
"""

from __future__ import annotations

from repro.controller.app import App
from repro.controller.api import OUTPUT
from repro.openflow.match import DL_DST, DL_SRC, DL_TYPE, IN_PORT
from repro.openflow.rules import PERMANENT


class PySwitch(App):
    """Faithful reimplementation of NOX's pyswitch (98 LoC upstream)."""

    name = "pyswitch"

    def __init__(self, soft_timer: int = 5, hard_timer: int = PERMANENT):
        #: Figure 3, line 1: state is a hashtable, switch id -> MAC table.
        self.ctrl_state: dict = {}
        self.soft_timer = soft_timer
        self.hard_timer = hard_timer

    def clone(self):
        """Fast checkpoint copy: the state is one dict of MAC tables."""
        new = type(self).__new__(type(self))
        new.__dict__ = self.__dict__.copy()
        new.ctrl_state = {sw: dict(table)
                          for sw, table in self.ctrl_state.items()}
        return new

    def canonical_state(self):
        """The timers are configuration; handlers write the MAC tables."""
        return self._assemble_state(("ctrl_state",))

    def switch_join(self, api, sw_id, stats):  # Figure 3, lines 17-19
        if sw_id not in self.ctrl_state:
            self.ctrl_state[sw_id] = {}

    def switch_leave(self, api, sw_id):  # Figure 3, lines 20-22
        if sw_id in self.ctrl_state:
            del self.ctrl_state[sw_id]

    def packet_in(self, api, sw_id, inport, pkt, bufid, reason):
        # Figure 3, lines 2-16.
        mactable = self.ctrl_state[sw_id]
        is_bcast_src = pkt.src[0] & 1
        is_bcast_dst = pkt.dst[0] & 1
        if not is_bcast_src:
            mactable[pkt.src] = inport
        if (not is_bcast_dst) and (pkt.dst in mactable):
            outport = mactable[pkt.dst]
            if outport != inport:
                match = {DL_SRC: pkt.src, DL_DST: pkt.dst,
                         DL_TYPE: pkt.type, IN_PORT: inport}
                actions = [OUTPUT, outport]
                api.install_rule(sw_id, match, actions,
                                 soft_timer=self.soft_timer,
                                 hard_timer=self.hard_timer)
                api.send_packet_out(sw_id, pkt, bufid)
                return
        api.flood_packet(sw_id, pkt, bufid)
