"""An ARP-resolving client.

Section 2.2.3: NICE's host library covers "a variety of protocols including
Ethernet, ARP, IP, and TCP".  This client models the realistic first step of
a connection: it broadcasts an ARP who-has for its target IP, waits for the
reply, and only then enables its scripted data packets — rewriting their
Ethernet destination to the resolved MAC.

Used by the load-balancer scenarios to exercise the controller's proxy-ARP
path (the BUG-VI territory) with realistic ordering instead of a scripted
ARP injected out of nowhere.
"""

from __future__ import annotations

from repro.hosts.base import Host
from repro.openflow.packet import (
    ARP_REPLY,
    ETH_TYPE_ARP,
    MacAddress,
    Packet,
    arp_request,
)


class ArpClient(Host):
    """Resolves ``target_ip`` before releasing its scripted packets."""

    def __init__(self, name: str, mac: MacAddress, ip: int, target_ip: int,
                 script: list[Packet] | None = None):
        super().__init__(name, mac, ip)
        self.target_ip = target_ip
        self.resolved_mac: MacAddress | None = None
        #: Data packets held back until resolution completes.
        self.data_script: list[Packet] = list(script or [])
        self.script = [arp_request(mac, ip, target_ip)]

    def on_receive(self, packet: Packet) -> list[Packet]:
        if (packet.eth_type == ETH_TYPE_ARP and packet.arp_op == ARP_REPLY
                and packet.ip_src == self.target_ip
                and self.resolved_mac is None):
            self.resolved_mac = packet.eth_src
            released = []
            for data in self.data_script:
                ready = data.copy()
                ready.eth_dst = self.resolved_mac
                released.append(ready)
            # Rebound, not appended to: checkpoint copies share ``script``.
            self.script = self.script + released
        return []

    def canonical(self) -> tuple:
        resolved = (self.resolved_mac.canonical()
                    if self.resolved_mac is not None else "*")
        return super().canonical() + (
            self.target_ip,
            resolved,
            tuple(p.canonical() for p in self.data_script),
        )
