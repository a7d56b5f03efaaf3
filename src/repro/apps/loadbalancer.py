"""The web server load balancer of Section 8.2 (after Wang et al. [9]).

The application divides client traffic destined to a *virtual IP* over
server replicas using wildcard rules, and can transition between
load-balancing policies at run time: during a transition the old wildcard
rules are replaced by rules that send packets to the controller, which
inspects the "next" packet of each flow — a SYN means a new flow that should
follow the *new* policy; anything else belongs to an ongoing transfer that
must keep its *old* replica.

The reimplementation reproduces the four bugs NICE found in the original
1209-LoC application (which had been unit-tested!):

* **BUG-IV** — after reconfiguration, the handler installs the microflow
  rule but never instructs the switch to forward the packet that triggered
  the ``packet_in`` (NoForgottenPackets);
* **BUG-V** — the policy switch sends (i) remove-old-rule then (ii)
  install-redirect-rule; packets arriving between the two match nothing and
  reach the controller with reason ``NO_MATCH``, which the handler ignores
  (NoForgottenPackets);
* **BUG-VI** — the controller answers ARP requests on behalf of the
  replicas but forgets to discard the buffered request (and similarly for
  server-generated ARP) (NoForgottenPackets);
* **BUG-VII** — a duplicate SYN during the transition is treated as a brand
  new flow and re-assigned under the new policy, splitting one TCP
  connection across replicas (FlowAffinity).

Constructor flags turn each bug off individually so the benchmark harness
can reproduce the paper's fix-one-find-next narrative;
:class:`repro.apps.loadbalancer_fixed.LoadBalancerFixed` disables all four.
"""

from __future__ import annotations

from repro.controller.app import App
from repro.hosts.base import Host
from repro.mc.canonical import canonicalize
from repro.openflow.actions import ActionController, ActionOutput
from repro.openflow.match import Match
from repro.openflow.messages import OFPR_ACTION
from repro.openflow.packet import (
    ARP_REQUEST,
    ETH_TYPE_ARP,
    ETH_TYPE_IP,
    IPPROTO_TCP,
    MacAddress,
    Packet,
    TCP_ACK,
    TCP_SYN,
    arp_reply,
    tcp_packet,
)
from repro.openflow.rules import PERMANENT

#: Rule priorities: wildcard policy rules sit between the low-priority
#: redirect net and the high-priority per-flow microflow rules.
PRIORITY_MICROFLOW = 0xA000
PRIORITY_WILDCARD = 0x8000
PRIORITY_REDIRECT = 0x6000


class ReplicaSpec:
    """One server replica: where it is attached and its addresses.
    Static configuration — never changed once built."""

    def __init__(self, name: str, mac: MacAddress, ip: int, port: int):
        self.name = name
        self.mac = mac
        self.ip = ip
        self.port = port
        self._canon: tuple | None = None

    def canonical(self) -> tuple:
        """What ``canonicalize`` builds for a plain object with these
        attributes, rendered once: every re-hash of the controller state
        used to re-walk its (immutable) replicas."""
        canon = self._canon
        if canon is None:
            fields = {name: value for name, value in vars(self).items()
                      if name != "_canon"}
            canon = self._canon = (
                "obj", type(self).__name__, canonicalize(fields))
        return canon

    def __repr__(self):
        return f"ReplicaSpec({self.name}, port={self.port})"


class LoadBalancer(App):
    """Wildcard-rule server load balancer with run-time policy transitions."""

    name = "loadbalancer"

    def __init__(self, switch: str, client_port: int, client_ip: int,
                 vip: int, vip_mac: MacAddress, replicas: list[ReplicaSpec],
                 initial_policy: int = 0, target_policy: int = 1,
                 bug_iv: bool = True, bug_v: bool = True,
                 bug_vi: bool = True, bug_vii: bool = True):
        self.switch = switch
        self.client_port = client_port
        self.client_ip = client_ip
        self.vip = vip
        self.vip_mac = vip_mac
        self.replicas = list(replicas)
        #: A policy is simply the index of the replica that receives *new*
        #: traffic (the paper's weight-split generalizes; one client needs
        #: only one wildcard rule).
        self.current_policy = initial_policy
        self.target_policy = target_policy
        self.mode = "normal"
        self.old_policy = initial_policy
        #: Flow -> replica index, learned during the transition.
        self.flow_assignments: dict = {}
        self.bug_iv = bug_iv
        self.bug_v = bug_v
        self.bug_vi = bug_vi
        self.bug_vii = bug_vii

    # ------------------------------------------------------------------
    # Symbolic-execution hints
    # ------------------------------------------------------------------

    def symbolic_domains(self) -> dict:
        """Domain knowledge: clients talk to the virtual IP on port 80."""
        return {
            "ip_dst": [self.vip],
            "eth_dst": [self.vip_mac.to_int()],
            "tp_dst": [80],
        }

    @staticmethod
    def is_same_flow(packet_a, packet_b) -> bool:
        """FLOW-IR hook; ``packet_a`` is the probe, ``packet_b`` the
        reference.

        The application's own flow notion: a SYN means a *new* flow, so a
        SYN probe never belongs to an existing group — even for a matching
        5-tuple.  This is exactly the assumption that makes FLOW-IR miss
        BUG-VII (Section 8.4: "the duplicate SYN is treated as a new
        independent flow"), because the reduction then never interleaves
        the duplicate SYN into the ongoing connection's event orderings.
        """
        if packet_a.flow_key() != packet_b.flow_key():
            return False
        if packet_a is packet_b:
            return True
        if packet_a.tcp_flags & TCP_SYN:
            return False
        return True

    # ------------------------------------------------------------------
    # Setup and reconfiguration
    # ------------------------------------------------------------------

    def clone(self):
        """Fast checkpoint copy: scalars plus the flow-assignment map; the
        replica specs are static configuration and stay shared."""
        new = type(self).__new__(type(self))
        new.__dict__ = self.__dict__.copy()
        new.flow_assignments = dict(self.flow_assignments)
        return new

    def canonical_state(self):
        """Addresses, replicas and bug switches are configuration; the
        reconfiguration and ``packet_in`` handlers write these four."""
        return self._assemble_state(
            ("current_policy", "flow_assignments", "mode", "old_policy"))

    def boot(self, api, topo):
        self._install_policy_rules(api, self.current_policy)
        # Return traffic from the replicas back to the client.
        api.install_rule(
            self.switch,
            Match(dl_type=ETH_TYPE_IP, nw_dst=self.client_ip),
            [ActionOutput(self.client_port)],
            hard_timer=PERMANENT,
            priority=PRIORITY_WILDCARD,
        )

    def _install_policy_rules(self, api, policy: int) -> None:
        replica = self.replicas[policy]
        api.install_rule(
            self.switch,
            self._vip_wildcard(),
            [ActionOutput(replica.port)],
            hard_timer=PERMANENT,
            priority=PRIORITY_WILDCARD,
        )

    def _vip_wildcard(self) -> Match:
        # All TCP traffic to the virtual IP, matching exactly the traffic
        # the packet_in handler claims responsibility for.
        return Match(dl_type=ETH_TYPE_IP, nw_proto=IPPROTO_TCP,
                     nw_dst=self.vip)

    def external_events(self) -> list[str]:
        return ["reconfigure"]

    def handle_event(self, api, event: str) -> None:
        if event != "reconfigure":
            return
        self.mode = "transition"
        self.old_policy = self.current_policy
        self.current_policy = self.target_policy
        redirect = self._vip_wildcard()
        if self.bug_v:
            # BUG-V ordering: remove the old wildcard rule *first*, leaving a
            # window in which VIP packets match nothing.
            api.delete_rules(self.switch, self._vip_wildcard(),
                             priority=PRIORITY_WILDCARD, strict=True)
            api.install_rule(self.switch, redirect, [ActionController()],
                             hard_timer=PERMANENT, priority=PRIORITY_REDIRECT)
        else:
            # The paper's fix: install the new (lower-priority) redirect rule
            # before deleting the old one — no window.
            api.install_rule(self.switch, redirect, [ActionController()],
                             hard_timer=PERMANENT, priority=PRIORITY_REDIRECT)
            api.delete_rules(self.switch, self._vip_wildcard(),
                             priority=PRIORITY_WILDCARD, strict=True)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------

    def packet_in(self, api, sw_id, inport, pkt, bufid, reason):
        if pkt.type == ETH_TYPE_ARP:
            self._handle_arp(api, sw_id, inport, pkt, bufid)
            return
        if pkt.type == ETH_TYPE_IP and pkt.nw_proto == IPPROTO_TCP \
                and pkt.ip_dst == self.vip:
            self._handle_vip_tcp(api, sw_id, inport, pkt, bufid, reason)
            return
        # Traffic this application is not responsible for: consume it.
        api.drop_buffer(sw_id, bufid)

    def _handle_arp(self, api, sw_id, inport, pkt, bufid):
        if pkt.arp_op == ARP_REQUEST and pkt.ip_dst == self.vip:
            reply = arp_reply(self.vip_mac, self._concrete_mac(pkt.src),
                              self.vip, self._concrete_int(pkt.ip_src))
            api.send_packet_out(sw_id, pkt=reply, actions=[ActionOutput(inport)])
            # BUG-VI: despite sending the correct reply, the buffered ARP
            # request is never released from the switch.
            if not self.bug_vi:
                api.drop_buffer(sw_id, bufid)
            return
        # Server-generated (or other) ARP: flood it so resolution proceeds.
        if self.bug_vi:
            # BUG-VI twin: the original code floods a *copy* and forgets the
            # buffered original.
            api.send_packet_out(sw_id, pkt=pkt.copy(), actions=["flood"])
        else:
            api.flood_packet(sw_id, None, bufid)

    def _handle_vip_tcp(self, api, sw_id, inport, pkt, bufid, reason):
        if self.mode != "transition":
            # Normal mode: the wildcard rules should handle VIP traffic; a
            # packet here is a late straggler.  Route it per current policy.
            replica = self.replicas[self.current_policy]
            self._install_microflow(api, pkt, replica)
            api.send_packet_out(sw_id, pkt=None, bufid=bufid)
            return
        if reason != OFPR_ACTION and self.bug_v:
            # BUG-V: the handler expects only redirect-rule packet-ins
            # (reason ACTION) and silently ignores NO_MATCH arrivals,
            # leaving them buffered at the switch.
            return
        flow = (self._concrete_int(pkt.ip_src), self._concrete_int(pkt.tp_src))
        if pkt.tcp_flags & TCP_SYN:
            if self.bug_vii or flow not in self.flow_assignments:
                # BUG-VII: a SYN *always* means a new flow — a duplicate SYN
                # re-assigns an ongoing connection to the new policy.
                self.flow_assignments[flow] = self.current_policy
            replica_index = self.flow_assignments[flow]
        else:
            replica_index = self.flow_assignments.get(flow, self.old_policy)
            self.flow_assignments[flow] = replica_index
        replica = self.replicas[replica_index]
        self._install_microflow(api, pkt, replica)
        if not self.bug_iv:
            api.send_packet_out(sw_id, pkt=None, bufid=bufid)
        # BUG-IV: the triggering packet is left in the switch buffer.

    def _install_microflow(self, api, pkt, replica: ReplicaSpec) -> None:
        match = Match(
            dl_type=ETH_TYPE_IP,
            nw_proto=IPPROTO_TCP,
            nw_src=self._concrete_int(pkt.ip_src),
            nw_dst=self.vip,
            tp_src=self._concrete_int(pkt.tp_src),
            tp_dst=self._concrete_int(pkt.tp_dst),
        )
        api.install_rule(self.switch, match, [ActionOutput(replica.port)],
                         hard_timer=PERMANENT, priority=PRIORITY_MICROFLOW)

    @staticmethod
    def _concrete_int(value) -> int:
        return int(value)

    @staticmethod
    def _concrete_mac(value):
        concrete = getattr(value, "concrete", value)
        return concrete


class VipServer(Host):
    """A replica host: accepts TCP to the virtual IP and replies as the VIP."""

    def __init__(self, name: str, mac: MacAddress, ip: int, vip: int,
                 vip_mac: MacAddress,
                 script: list[Packet] | None = None):
        super().__init__(name, mac, ip, script=script)
        self.vip = vip
        self.vip_mac = vip_mac

    def on_receive(self, packet: Packet) -> list[Packet]:
        if packet.eth_type != ETH_TYPE_IP or packet.nw_proto != IPPROTO_TCP:
            return []
        if packet.ip_dst != self.vip:
            return []
        flags = TCP_SYN | TCP_ACK if packet.tcp_flags & TCP_SYN else TCP_ACK
        reply = tcp_packet(
            src=self.vip_mac,
            dst=packet.eth_src,
            ip_src=self.vip,
            ip_dst=packet.ip_src,
            tp_src=packet.tp_dst,
            tp_dst=packet.tp_src,
            flags=flags,
        )
        return [reply]

    def canonical(self) -> tuple:
        return super().canonical() + (self.vip,)
