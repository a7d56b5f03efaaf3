"""Energy-efficient traffic engineering (Section 8.3, after REsPoNse [28]).

The application precomputes two routing tables — an *always-on* table whose
paths can carry all traffic under low demand, and an *on-demand* table used
for the extra traffic under high demand — and makes an online per-flow
choice.  It learns link utilization by querying switches for port
statistics; when utilization crosses a threshold the perceived energy state
flips between ``low`` and ``high``.  Under high load, new flows should split
evenly between the two classes of paths.

Evaluation topology (the paper's): three switches in a triangle, a sender on
the ingress switch, two receivers on the egress switch; the third switch
lies on the on-demand path.

Reproduced bugs:

* **BUG-VIII** — the ``packet_in`` handler installs the end-to-end path but
  never tells the switch to forward the triggering packet
  (NoForgottenPackets);
* **BUG-IX** — the handler implicitly assumes intermediate switches never
  see the flow's first packet; with rule-installation delays, the packet can
  reach the next hop before its rule and is then ignored and left buffered
  (NoForgottenPackets) — a bug that only surfaces under specific event
  orderings;
* **BUG-X** — the port-stats handler caches "the" routing table for the
  current energy state, which forces *all* new flows onto on-demand routes
  under high load instead of splitting them (UseCorrectRoutingTable);
* **BUG-XI** — when load reduces, the handler for stray packets looks the
  reporting switch up in the *current* (always-on) paths only; a switch
  that was on a since-abandoned on-demand path is not found and the packet
  is ignored and left buffered (NoForgottenPackets).
"""

from __future__ import annotations

from repro.controller.app import App
from repro.mc.canonical import canonicalize
from repro.openflow.actions import ActionOutput
from repro.openflow.match import Match
from repro.openflow.packet import ETH_TYPE_IP
from repro.openflow.rules import PERMANENT

#: Bytes a monitored link can carry per statistics interval.
LINK_CAPACITY = 10000
#: Utilization percentage above which the network is in the high-load state.
UTILIZATION_THRESHOLD = 70

TABLE_ALWAYS_ON = "always_on"
TABLE_ON_DEMAND = "on_demand"


class RoutingTables(dict):
    """The precomputed routing tables, by table name.  Static configuration
    — never changed once built — so the canonical form (what
    ``canonicalize`` builds for the plain dict) is rendered once instead
    of on every re-hash of the controller state."""

    _canon: tuple | None = None

    def canonical(self) -> tuple:
        canon = self._canon
        if canon is None:
            canon = self._canon = canonicalize(dict(self))
        return canon


class EnergyTrafficEngineering(App):
    """REsPoNse-style online path selection over precomputed tables."""

    name = "energy_te"

    def __init__(self, ingress: str, monitor_port: int,
                 always_on: dict, on_demand: dict,
                 polls: int = 2,
                 bug_viii: bool = True, bug_ix: bool = True,
                 bug_x: bool = True, bug_xi: bool = True):
        """``always_on`` / ``on_demand`` map destination IP to the path as a
        list of ``(switch, out_port)`` hops, ingress first."""
        self.ingress = ingress
        self.monitor_port = monitor_port
        self.tables = RoutingTables({
            TABLE_ALWAYS_ON: {ip: list(path) for ip, path in always_on.items()},
            TABLE_ON_DEMAND: {ip: list(path) for ip, path in on_demand.items()},
        })
        self.energy_state = "low"
        #: BUG-X: the "extra routing table" cached by the stats handler.
        self.active_table = TABLE_ALWAYS_ON
        #: Flow -> table name chosen when the flow was first routed.
        self.flow_tables: dict = {}
        self.flows_routed = 0
        self.polls_left = polls
        self.bug_viii = bug_viii
        self.bug_ix = bug_ix
        self.bug_x = bug_x
        self.bug_xi = bug_xi

    # ------------------------------------------------------------------
    # Symbolic-execution hints
    # ------------------------------------------------------------------

    def symbolic_domains(self) -> dict:
        return {"ip_dst": sorted(self.tables[TABLE_ALWAYS_ON])}

    # ------------------------------------------------------------------
    # Statistics-driven energy state
    # ------------------------------------------------------------------

    def external_events(self) -> list[str]:
        return ["poll_stats"]

    def handle_event(self, api, event: str) -> None:
        if event == "poll_stats" and self.polls_left > 0:
            self.polls_left -= 1
            api.query_port_stats(self.ingress)

    def port_stats_in(self, api, sw_id, stats, xid=0):
        """The paper's ``process_stats``: update the perceived energy state.

        BUG-X lives here: the handler also flips ``active_table``, which the
        rest of the code then consults for *every* new flow.
        """
        port_stats = stats.get(self.monitor_port)
        if port_stats is None:
            return
        utilization = port_stats["tx_bytes"] * 100 // LINK_CAPACITY
        if utilization > UTILIZATION_THRESHOLD:
            self.energy_state = "high"
            if self.bug_x:
                self.active_table = TABLE_ON_DEMAND
        else:
            self.energy_state = "low"
            if self.bug_x:
                self.active_table = TABLE_ALWAYS_ON
        if self.polls_left > 0:
            self.polls_left -= 1
            api.query_port_stats(self.ingress)

    # ------------------------------------------------------------------
    # Flow routing
    # ------------------------------------------------------------------

    def _choose_table(self) -> str:
        """Which routing table should the *next* new flow use?

        Specification (and the fixed behavior): always-on under low load;
        under high load alternate flows between the two tables so they split
        evenly.  The buggy variant consults the stats-handler-cached table
        instead, sending every flow on-demand under high load.
        """
        if self.bug_x:
            return self.active_table
        if self.energy_state == "low":
            return TABLE_ALWAYS_ON
        if self.flows_routed % 2 == 0:
            return TABLE_ALWAYS_ON
        return TABLE_ON_DEMAND

    def clone(self):
        """Fast checkpoint copy: scalars plus the flow->table map; the
        routing tables themselves are static configuration, shared."""
        new = type(self).__new__(type(self))
        new.__dict__ = self.__dict__.copy()
        new.flow_tables = dict(self.flow_tables)
        return new

    def canonical_state(self):
        """Routing tables and bug switches are configuration; the stats
        and ``packet_in`` handlers write these five."""
        return self._assemble_state(
            ("active_table", "energy_state", "flow_tables", "flows_routed",
             "polls_left"))

    def packet_in(self, api, sw_id, inport, pkt, bufid, reason):
        if pkt.type != ETH_TYPE_IP:
            api.drop_buffer(sw_id, bufid)
            return
        if pkt.ip_dst not in self.tables[TABLE_ALWAYS_ON]:
            api.drop_buffer(sw_id, bufid)
            return
        dst = int(pkt.ip_dst)
        flow = self._flow_of(pkt)
        if sw_id == self.ingress:
            table_name = self._choose_table()
            self.flow_tables[flow] = table_name
            self.flows_routed += 1
            path = self.tables[table_name][dst]
            for hop_switch, out_port in path:
                api.install_rule(hop_switch, self._flow_match(pkt),
                                 [ActionOutput(out_port)],
                                 hard_timer=PERMANENT)
            if not self.bug_viii:
                api.send_packet_out(sw_id, pkt=None, bufid=bufid)
            # BUG-VIII: the packet that triggered this handler stays
            # buffered at the ingress switch.
            return
        # A packet reached a non-ingress switch before its rule: the
        # original program implicitly assumed this never happens.
        if self.bug_ix:
            return  # BUG-IX: ignored, left in the switch buffer
        hop = self._find_hop(sw_id, dst, flow)
        if hop is None:
            # BUG-XI: the reporting switch is not on any *current* path
            # (the load dropped and the tables were recomputed), so the
            # program gives up on the packet.
            if self.bug_xi:
                return
            # Fix: fall back to the table recorded for this flow.
            hop = self._find_hop_in(self.flow_tables.get(flow), sw_id, dst)
            if hop is None:
                api.drop_buffer(sw_id, bufid)
                return
        api.send_packet_out(sw_id, pkt=None, bufid=bufid,
                            actions=[ActionOutput(hop)])

    def _find_hop(self, sw_id: str, dst: int, flow) -> int | None:
        """The out-port for ``sw_id`` per the *currently chosen* table —
        faithful to the buggy lookup the paper describes for BUG-XI."""
        table_name = self._current_lookup_table()
        return self._find_hop_in(table_name, sw_id, dst)

    def _current_lookup_table(self) -> str:
        if self.bug_x:
            return self.active_table
        return TABLE_ALWAYS_ON if self.energy_state == "low" else TABLE_ON_DEMAND

    def _find_hop_in(self, table_name: str | None, sw_id: str,
                     dst: int) -> int | None:
        if table_name is None:
            return None
        path = self.tables[table_name].get(dst, [])
        for hop_switch, out_port in path:
            if hop_switch == sw_id:
                return out_port
        return None

    @staticmethod
    def _flow_of(pkt) -> tuple:
        return (int(pkt.ip_src), int(pkt.ip_dst),
                int(pkt.tp_src), int(pkt.tp_dst))

    def _flow_match(self, pkt) -> Match:
        return Match(
            dl_type=ETH_TYPE_IP,
            nw_src=int(pkt.ip_src),
            nw_dst=int(pkt.ip_dst),
            tp_src=int(pkt.tp_src),
            tp_dst=int(pkt.tp_dst),
        )


def expected_path(app: EnergyTrafficEngineering, packet) -> list[set[str]]:
    """Specification for the UseCorrectRoutingTable property (Section 8.3).

    Low load: new flows must use exactly the always-on path's switches.
    High load: flows must split evenly — flow k uses always-on for even k,
    on-demand for odd k.  ``app.flows_routed`` was already incremented for
    the flow under check, hence the ``- 1``.
    """
    dst = int(packet.ip_dst)
    always = {sw for sw, _ in app.tables[TABLE_ALWAYS_ON].get(dst, [])}
    demand = {sw for sw, _ in app.tables[TABLE_ON_DEMAND].get(dst, [])}
    if app.energy_state == "low":
        return [always]
    parity = (app.flows_routed - 1) % 2
    return [always] if parity == 0 else [demand]
