"""Seeded random scenario generator for the differential test suite.

:func:`random_scenario` builds a bounded, deterministic-from-seed NICE
scenario: a random loop-free switch topology (loops make the exhaustive
space unbounded — that is BUG-III's job, not this suite's), a random mix
of scripted clients and ping responders on random attachment points, and
random (small) PKT-SEQ bounds.  Loop-free topologies plus scripted
traffic keep every generated state space exhaustively searchable in well
under a second, so the differential suite can sweep many seeds.

The generated scenarios are *hand-built* (no registry spec): the
differential engines that need to cross a process boundary do so through
the ``fork`` transport, which inherits the closures.

:func:`arp_client_scenario` and :func:`tcp_client_scenario` are the two
bundled host models no registered scenario uses, each dropped into one
that exists, for the oracle walks.
"""

from __future__ import annotations

import random

from repro import scenarios
from repro.config import NiceConfig
from repro.hosts.arp import ArpClient
from repro.hosts.client import Client
from repro.hosts.ping import PingResponder
from repro.hosts.tcp import TcpLikeClient
from repro.nice import Scenario
from repro.openflow.packet import (
    TCP_SYN,
    MacAddress,
    ip_from_string,
    l2_ping,
    tcp_packet,
)
from repro.properties import NoBlackHoles, NoForwardingLoops
from repro.topo.topology import Topology


def random_scenario(seed: int) -> Scenario:
    """A bounded scenario, deterministic from ``seed``."""
    rng = random.Random(seed)
    topo = Topology()

    # Switches in a random tree: switch i links to a random earlier
    # switch, so the topology is connected and loop-free.  Ports 1..2 are
    # reserved for inter-switch links (a tree needs at most one uplink
    # and this generator caps fan-out), the rest host attachment.
    n_switches = rng.randint(1, 3)
    next_port: dict[str, int] = {}
    uplinks: dict[str, int] = {}
    for i in range(n_switches):
        name = f"s{i + 1}"
        topo.add_switch(name, list(range(1, 8)))
        next_port[name] = 3
        uplinks[name] = 1
        if i:
            parent = f"s{rng.randint(1, i)}"
            topo.add_link(name, 1, parent, uplinks[parent])
            uplinks[name] = 2
            uplinks[parent] += 1
            if uplinks[parent] > 2:  # parent's link ports exhausted
                uplinks[parent] = next_port[parent]
                next_port[parent] += 1

    n_hosts = rng.randint(2, 3)
    macs = [MacAddress((0, 0, 0, 0, 9, i + 1)) for i in range(n_hosts)]
    ips = [ip_from_string(f"10.9.0.{i + 1}") for i in range(n_hosts)]
    names = [f"h{i + 1}" for i in range(n_hosts)]
    for name, mac, ip in zip(names, macs, ips):
        switch = f"s{rng.randint(1, n_switches)}"
        topo.add_host(name, mac, ip, switch, next_port[switch])
        next_port[switch] += 1

    # Host mix: every host is either a scripted client (1-2 pings to a
    # random *other* host) or a ping responder; at most 3 scripted
    # packets in total bound the PKT-SEQ tree.
    budget = 3
    host_plans: list[tuple[str, list]] = []
    for i, name in enumerate(names):
        if i and rng.random() < 0.4:
            host_plans.append((name, None))  # responder
            continue
        pings = min(budget, rng.randint(1, 2))
        budget -= pings
        script = []
        for p in range(pings):
            target = rng.choice([j for j in range(n_hosts) if j != i])
            script.append(l2_ping(macs[i], macs[target],
                                  payload=f"p{i}.{p}"))
        host_plans.append((name, script))

    def hosts_factory():
        hosts = []
        for (name, script), mac, ip in zip(host_plans, macs, ips):
            if script is None:
                hosts.append(PingResponder(name, mac, ip))
            else:
                client = Client(name, mac, ip, script=list(script),
                                symbolic_client=False)
                client.ordered_script = rng_bool
                hosts.append(client)
        return hosts

    rng_bool = rng.random() < 0.5
    total_packets = sum(len(s) for _, s in host_plans if s is not None)
    config = NiceConfig(
        use_symbolic_execution=False,
        stop_at_first_violation=False,
        max_pkt_sequence=max(total_packets, 1),
        # A burst of 2 on a full 3-packet script explodes the interleaving
        # space past what a many-seed sweep can afford; cap it.
        max_outstanding=1 if total_packets >= 3 else rng.randint(1, 2),
    )

    from repro.apps.pyswitch import PySwitch

    return Scenario(topo, PySwitch, hosts_factory,
                    [NoForwardingLoops(), NoBlackHoles()], config,
                    name=f"random-{seed}")


def arp_client_scenario() -> Scenario:
    """The scripted load balancer with an :class:`ArpClient` for a
    client: it resolves the VIP through the controller's proxy ARP, then
    releases its SYN — the one host that extends its own ``script``."""
    base = scenarios.loadbalancer_scenario(symbolic=False)

    def hosts_factory():
        hosts = base.hosts_factory()
        syn = tcp_packet(scenarios.MAC_A, MacAddress.broadcast(),
                         scenarios.IP_A, scenarios.VIP, 1000, 80,
                         flags=TCP_SYN)
        hosts[0] = ArpClient("C", scenarios.MAC_A, scenarios.IP_A,
                             target_ip=scenarios.VIP, script=[syn])
        return hosts

    return Scenario(base.topo, base.app_factory, hosts_factory,
                    base.properties, base.config, name="arp-client")


def tcp_client_scenario() -> Scenario:
    """Two concurrent pings from a :class:`TcpLikeClient`: a pong is an
    ACK that grows the window the next send is budgeted by.  (Two, so
    that a 200-step random walk gets deep enough to see one.)"""
    base = scenarios.ping_experiment(pings=2)

    def hosts_factory():
        client, responder = base.hosts_factory()
        windowed = TcpLikeClient("A", client.mac, client.ip,
                                 script=client.script, max_window=3)
        windowed.ordered_script = False
        return [windowed, responder]

    return Scenario(base.topo, base.app_factory, hosts_factory,
                    base.properties, base.config, name="tcp-client")
