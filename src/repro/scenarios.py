"""Predefined scenarios reproducing every experiment of the paper.

Each builder returns a :class:`repro.nice.Scenario` wiring together the
topology, hosts, application, correctness properties, and configuration the
corresponding paper experiment uses:

* :func:`ping_experiment` — the Section 7 performance workload (Figure 1
  topology, layer-2 ping pairs, symbolic execution off);
* :func:`pyswitch_mobile` (BUG-I), :func:`pyswitch_direct_path` (BUG-II),
  :func:`pyswitch_loop` (BUG-III);
* :func:`loadbalancer_scenario` (BUG-IV..VII);
* :func:`energy_te_scenario` (BUG-VIII..XI).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect

from repro.apps.energy_te import EnergyTrafficEngineering, expected_path
from repro.apps.loadbalancer import LoadBalancer, ReplicaSpec, VipServer
from repro.apps.pyswitch import PySwitch
from repro.config import NiceConfig
from repro.hosts.client import Client
from repro.hosts.mobile import MobileHost
from repro.hosts.ping import PingResponder
from repro.mc.wire import ScenarioSpec
from repro.nice import Scenario
from repro.openflow.packet import (
    MacAddress,
    TCP_ACK,
    TCP_SYN,
    arp_request,
    ip_from_string,
    l2_ping,
    tcp_packet,
)
from repro.properties import (
    FlowAffinity,
    NoBlackHoles,
    NoForgottenPackets,
    NoForwardingLoops,
    StrictDirectPaths,
    UseCorrectRoutingTable,
)

#: The scenario registry: name -> builder.  Spawned and socket workers
#: rebuild the initial :class:`~repro.mc.system.System` by looking the
#: scenario up here from a shipped :class:`~repro.mc.wire.ScenarioSpec`
#: instead of inheriting closures from a forked parent — closures do not
#: survive pickling, registry names do.  ``nice list`` and the CLI's
#: scenario choices are driven by this table too.
REGISTRY: dict = {}


def registered(name: str):
    """Register a scenario builder and stamp everything it builds with a
    portable :class:`~repro.mc.wire.ScenarioSpec` (name + call kwargs +
    final config)."""
    def decorate(builder):
        signature = inspect.signature(builder)

        @functools.wraps(builder)
        def wrapper(*args, **kwargs):
            scenario = builder(*args, **kwargs)
            arguments = dict(signature.bind_partial(*args, **kwargs).arguments)
            scenario.spec = ScenarioSpec(name, arguments, scenario.config)
            return scenario

        REGISTRY[name] = wrapper
        return wrapper
    return decorate


def with_config(scenario: Scenario, **overrides) -> Scenario:
    """:meth:`Scenario.with_config <repro.nice.Scenario.with_config>` as a
    function — how tests and benchmarks derive engine variants of one
    experiment (``with_config(sc, workers=4)``, ``with_config(sc,
    store="sharded")``)."""
    return scenario.with_config(**overrides)


MAC_A = MacAddress.from_string("00:00:00:00:00:01")
MAC_B = MacAddress.from_string("00:00:00:00:00:02")
MAC_C = MacAddress.from_string("00:00:00:00:00:03")
IP_A = ip_from_string("10.0.0.1")
IP_B = ip_from_string("10.0.0.2")
IP_C = ip_from_string("10.0.0.3")


def _figure1_topology():
    """Two switches in a line, host A on s1, host B on s2 (Figure 1)."""
    from repro.topo.topology import Topology

    topo = Topology()
    topo.add_switch("s1", [1, 2])
    topo.add_switch("s2", [1, 2])
    topo.add_link("s1", 2, "s2", 1)
    topo.add_host("A", MAC_A, IP_A, "s1", 1)
    topo.add_host("B", MAC_B, IP_B, "s2", 2)
    return topo


@registered("ping")
def ping_experiment(pings: int = 2, app_factory=None,
                    config: NiceConfig | None = None,
                    distinct_flows: bool = False,
                    identical_pings: bool = False,
                    max_pkt_sequence: int | None = None,
                    max_outstanding: int | None = None) -> Scenario:
    """Section 7 workload: A sends `pings` layer-2 pings to B; B replies.

    Symbolic execution is off (as in Table 1): the ping packets are scripted.
    ``distinct_flows`` gives each concurrent ping its own MAC pair, so the
    MAC-learning switch installs one disjoint rule pair per ping — the
    regime in which the canonical flow-table representation pays off
    (Table 1's ρ) and in which pyswitch "treats packets with different
    destination MAC addresses independently" for FLOW-IR (Section 4).
    """
    topo = _figure1_topology()
    if app_factory is None:
        app_factory = PySwitch
    if config is None:
        config = NiceConfig()
    config = dataclasses.replace(
        config,
        use_symbolic_execution=False,
        # PKT-SEQ bounds sized to the workload by default; the explicit
        # keyword arguments override (the burst-bound ablation sweep).
        max_pkt_sequence=(max_pkt_sequence if max_pkt_sequence is not None
                          else max(config.max_pkt_sequence, 2 * pings)),
        max_outstanding=(max_outstanding if max_outstanding is not None
                         else max(config.max_outstanding, pings)),
        stop_at_first_violation=False,
    )
    if config.strategy == "FLOW-IR" and "is_same_flow" not in config.extra:
        config.extra = dict(config.extra)
        config.extra["is_same_flow"] = _ping_is_same_flow

    def ping_macs(i: int) -> tuple[MacAddress, MacAddress]:
        if not distinct_flows:
            return MAC_A, MAC_B
        return (MacAddress((0, 0, 0, 0, 0x10, 2 * i)),
                MacAddress((0, 0, 0, 0, 0x20, 2 * i)))

    def hosts_factory():
        script = []
        for i in range(pings):
            src, dst = ping_macs(i)
            tag = "" if identical_pings and not distinct_flows else str(i)
            script.append(l2_ping(src, dst, payload=f"ping{tag}"))
        client = Client("A", MAC_A, IP_A, script=script,
                        symbolic_client=False)
        client.ordered_script = False  # the pings are *concurrent*
        return [client, PingResponder("B", MAC_B, IP_B)]

    return Scenario(topo, app_factory, hosts_factory, [], config,
                    name=f"ping-{pings}")


def _ping_is_same_flow(packet_a, packet_b) -> bool:
    """Each ping/pong exchange is an independent group: ping *i* and its
    pong share the numeric tag in the payload."""
    def tag(packet):
        text = packet.payload
        for prefix in ("ping", "pong"):
            if text.startswith(prefix):
                return text[len(prefix):]
        return text

    return tag(packet_a) == tag(packet_b)


# ----------------------------------------------------------------------
# PySwitch bug scenarios (Section 8.1)
# ----------------------------------------------------------------------

@registered("pyswitch-mobile")
def pyswitch_mobile(app_factory=None,
                    config: NiceConfig | None = None) -> Scenario:
    """BUG-I: B moves while A keeps streaming; stale rule black-holes.

    One switch with three ports; B moves from port 2 to port 3.
    """
    from repro.topo.topology import Topology

    topo = Topology()
    topo.add_switch("s1", [1, 2, 3])
    topo.add_host("A", MAC_A, IP_A, "s1", 1)
    topo.add_host("B", MAC_B, IP_B, "s1", 2)
    if app_factory is None:
        app_factory = PySwitch
    if config is None:
        config = NiceConfig()
    config = dataclasses.replace(config, max_pkt_sequence=3,
                                 max_outstanding=3)

    def hosts_factory():
        return [
            Client("A", MAC_A, IP_A,
                   script=[l2_ping(MAC_A, MAC_B, payload=f"s{i}")
                           for i in range(3)],
                   symbolic_client=False),
            MobileHost("B", MAC_B, IP_B, moves=[("s1", 3)],
                       script=[l2_ping(MAC_B, MAC_A, payload="hello")]),
        ]

    return Scenario(topo, app_factory, hosts_factory,
                    [NoBlackHoles()], config, name="pyswitch-mobile")


@registered("pyswitch-direct-path")
def pyswitch_direct_path(app_factory=None,
                         config: NiceConfig | None = None) -> Scenario:
    """BUG-II: A->B then B->A exchange; third packet still hits the
    controller (StrictDirectPaths)."""
    from repro.topo.topology import Topology

    topo = Topology()
    topo.add_switch("s1", [1, 2])
    topo.add_host("A", MAC_A, IP_A, "s1", 1)
    topo.add_host("B", MAC_B, IP_B, "s1", 2)
    if app_factory is None:
        app_factory = PySwitch
    if config is None:
        config = NiceConfig()
    # Raise the PKT-SEQ bounds to what the bug needs, but respect a caller
    # who explicitly tightened them (e.g. the bound-sweep ablations).
    defaults = NiceConfig()
    config = dataclasses.replace(
        config,
        max_pkt_sequence=(3 if config.max_pkt_sequence == defaults.max_pkt_sequence
                          else config.max_pkt_sequence),
        max_outstanding=(2 if config.max_outstanding == defaults.max_outstanding
                         else config.max_outstanding),
    )

    def hosts_factory():
        from repro.hosts.server import EchoServer

        return [
            Client("A", MAC_A, IP_A, symbolic_client=True),
            EchoServer("B", MAC_B, IP_B),
        ]

    return Scenario(topo, app_factory, hosts_factory,
                    [StrictDirectPaths()], config,
                    name="pyswitch-direct-path")


@registered("pyswitch-loop")
def pyswitch_loop(app_factory=None,
                  config: NiceConfig | None = None) -> Scenario:
    """BUG-III: flooding on a three-switch cycle loops forever
    (NoForwardingLoops)."""
    from repro.topo.topology import Topology

    topo = Topology()
    topo.add_switch("s1", [1, 2, 3])
    topo.add_switch("s2", [1, 2, 3])
    topo.add_switch("s3", [1, 2, 3])
    topo.add_link("s1", 2, "s2", 1)
    topo.add_link("s2", 2, "s3", 1)
    topo.add_link("s3", 2, "s1", 3)
    topo.add_host("A", MAC_A, IP_A, "s1", 1)
    topo.add_host("B", MAC_B, IP_B, "s2", 3)
    if app_factory is None:
        app_factory = PySwitch
    if config is None:
        config = NiceConfig()
    config = dataclasses.replace(config, max_pkt_sequence=1,
                                 max_outstanding=1)

    def hosts_factory():
        return [
            Client("A", MAC_A, IP_A,
                   script=[l2_ping(MAC_A, MAC_B)], symbolic_client=False),
            Client("B", MAC_B, IP_B, script=[], symbolic_client=False),
        ]

    return Scenario(topo, app_factory, hosts_factory,
                    [NoForwardingLoops()], config, name="pyswitch-loop")


# ----------------------------------------------------------------------
# Hostile scenarios (failure-containment test family, ISSUE 8)
# ----------------------------------------------------------------------


@registered("hostile")
def hostile_scenario(mode: str = "benign", arm_file: str | None = None,
                     pings: int = 1, ballast_mb: int = 64,
                     spare_quarantine: bool = True,
                     config: NiceConfig | None = None) -> Scenario:
    """A ping workload whose controller misbehaves on a poison packet.

    Host A sends one ``poison0``-tagged ping plus ``pings`` ordinary pings
    to host B through a single :class:`~repro.apps.hostile.HostileApp`
    switch.  The poison packet's ``packet_in`` misbehaves per ``mode``
    (raise / hang / crash / oom — see :mod:`repro.apps.hostile`), gated by
    the ``arm_file`` shot counter so the induced failures are bounded and
    the armed parallel run stays bit-comparable to a benign serial
    baseline.  All kwargs are picklable, so the scenario has a portable
    spec and runs on every transport.
    """
    from repro.apps.hostile import POISON, HostileApp
    from repro.topo.topology import Topology

    topo = Topology()
    topo.add_switch("s1", [1, 2])
    topo.add_host("A", MAC_A, IP_A, "s1", 1)
    topo.add_host("B", MAC_B, IP_B, "s1", 2)
    if config is None:
        config = NiceConfig()
    config = dataclasses.replace(
        config,
        use_symbolic_execution=False,
        max_pkt_sequence=max(config.max_pkt_sequence, 2 * (pings + 1)),
        max_outstanding=max(config.max_outstanding, pings + 1),
        stop_at_first_violation=False,
    )

    def app_factory():
        return HostileApp(mode=mode, arm_file=arm_file,
                          ballast_mb=ballast_mb,
                          spare_quarantine=spare_quarantine)

    def hosts_factory():
        # The poison ping rides alongside the ordinary ones; the responder
        # ignores it (no "ping" prefix), so it adds exactly one poisoned
        # controller handler execution per interleaving, no replies.
        script = [l2_ping(MAC_A, MAC_B, payload=f"{POISON}0")]
        script += [l2_ping(MAC_A, MAC_B, payload=f"ping{i}")
                   for i in range(pings)]
        client = Client("A", MAC_A, IP_A, script=script,
                        symbolic_client=False)
        client.ordered_script = False
        return [client, PingResponder("B", MAC_B, IP_B)]

    return Scenario(topo, app_factory, hosts_factory, [], config,
                    name=f"hostile-{mode}")


# ----------------------------------------------------------------------
# Load balancer scenarios (Section 8.2)
# ----------------------------------------------------------------------

VIP = ip_from_string("10.0.0.100")
VIP_MAC = MacAddress.from_string("00:00:00:00:01:00")
MAC_R1 = MacAddress.from_string("00:00:00:00:00:11")
MAC_R2 = MacAddress.from_string("00:00:00:00:00:12")
IP_R1 = ip_from_string("10.0.0.11")
IP_R2 = ip_from_string("10.0.0.12")


def _lb_topology():
    from repro.topo.topology import Topology

    topo = Topology()
    topo.add_switch("s1", [1, 2, 3])
    topo.add_host("C", MAC_A, IP_A, "s1", 1)
    topo.add_host("R1", MAC_R1, IP_R1, "s1", 2)
    topo.add_host("R2", MAC_R2, IP_R2, "s1", 3)
    return topo


def _lb_replicas() -> list[ReplicaSpec]:
    return [ReplicaSpec("R1", MAC_R1, IP_R1, 2),
            ReplicaSpec("R2", MAC_R2, IP_R2, 3)]


@registered("loadbalancer")
def loadbalancer_scenario(bug_iv: bool = True, bug_v: bool = True,
                          bug_vi: bool = True, bug_vii: bool = True,
                          properties=None, use_arp_script: bool = False,
                          config: NiceConfig | None = None,
                          symbolic: bool = True) -> Scenario:
    """One client, two replicas, one switch; a policy change mid-run.

    ``use_arp_script`` adds a server-generated ARP request to exercise the
    second half of BUG-VI.
    """
    topo = _lb_topology()
    if config is None:
        config = NiceConfig()
    config = dataclasses.replace(
        config,
        max_pkt_sequence=max(config.max_pkt_sequence, 2),
        max_outstanding=max(config.max_outstanding, 2),
        use_symbolic_execution=symbolic,
    )

    def app_factory():
        return LoadBalancer(
            switch="s1", client_port=1, client_ip=IP_A, vip=VIP,
            vip_mac=VIP_MAC, replicas=_lb_replicas(),
            bug_iv=bug_iv, bug_v=bug_v, bug_vi=bug_vi, bug_vii=bug_vii,
        )

    def hosts_factory():
        client_script = []
        if not symbolic:
            client_script = [
                tcp_packet(MAC_A, VIP_MAC, IP_A, VIP, 1000, 80,
                           flags=TCP_SYN),
                tcp_packet(MAC_A, VIP_MAC, IP_A, VIP, 1000, 80,
                           flags=TCP_ACK),
            ]
        server_script = []
        if use_arp_script:
            server_script = [arp_request(MAC_R1, IP_R1, IP_A)]
        return [
            Client("C", MAC_A, IP_A, script=client_script,
                   symbolic_client=symbolic),
            VipServer("R1", MAC_R1, IP_R1, VIP, VIP_MAC,
                      script=server_script),
            VipServer("R2", MAC_R2, IP_R2, VIP, VIP_MAC),
        ]

    if properties is None:
        properties = [NoForgottenPackets(), FlowAffinity(["R1", "R2"])]
    return Scenario(topo, app_factory, hosts_factory, properties, config,
                    name="loadbalancer")


# ----------------------------------------------------------------------
# Energy-efficient traffic engineering scenarios (Section 8.3)
# ----------------------------------------------------------------------

MAC_S = MacAddress.from_string("00:00:00:00:00:21")
MAC_T1 = MacAddress.from_string("00:00:00:00:00:22")
MAC_T2 = MacAddress.from_string("00:00:00:00:00:23")
IP_S = ip_from_string("10.0.1.1")
IP_T1 = ip_from_string("10.0.1.2")
IP_T2 = ip_from_string("10.0.1.3")


def _te_topology():
    """Three switches in a triangle; sender on s1, receivers on s2."""
    from repro.topo.topology import Topology

    topo = Topology()
    topo.add_switch("s1", [1, 2, 3])
    topo.add_switch("s2", [1, 2, 3, 4])
    topo.add_switch("s3", [1, 2])
    topo.add_link("s1", 2, "s2", 1)   # always-on link
    topo.add_link("s1", 3, "s3", 1)   # on-demand leg 1
    topo.add_link("s3", 2, "s2", 2)   # on-demand leg 2
    topo.add_host("S", MAC_S, IP_S, "s1", 1)
    topo.add_host("T1", MAC_T1, IP_T1, "s2", 3)
    topo.add_host("T2", MAC_T2, IP_T2, "s2", 4)
    return topo


def _te_tables():
    always_on = {
        IP_T1: [("s1", 2), ("s2", 3)],
        IP_T2: [("s1", 2), ("s2", 4)],
    }
    on_demand = {
        IP_T1: [("s1", 3), ("s3", 2), ("s2", 3)],
        IP_T2: [("s1", 3), ("s3", 2), ("s2", 4)],
    }
    return always_on, on_demand


@registered("energy-te")
def energy_te_scenario(bug_viii: bool = True, bug_ix: bool = True,
                       bug_x: bool = True, bug_xi: bool = True,
                       properties=None, polls: int = 2,
                       config: NiceConfig | None = None) -> Scenario:
    """The Section 8.3 test: triangle topology, stats-driven state."""
    topo = _te_topology()
    always_on, on_demand = _te_tables()
    if config is None:
        config = NiceConfig()
    config = dataclasses.replace(
        config,
        max_pkt_sequence=max(config.max_pkt_sequence, 2),
        max_outstanding=max(config.max_outstanding, 2),
        # The stats handler's behavior depends on counters, so merging
        # states across counter values would be unsound here.
        hash_counters=True,
    )

    def app_factory():
        return EnergyTrafficEngineering(
            ingress="s1", monitor_port=2,
            always_on=always_on, on_demand=on_demand, polls=polls,
            bug_viii=bug_viii, bug_ix=bug_ix, bug_x=bug_x, bug_xi=bug_xi,
        )

    def hosts_factory():
        return [
            Client("S", MAC_S, IP_S, symbolic_client=True),
            Client("T1", MAC_T1, IP_T1, script=[], symbolic_client=False),
            Client("T2", MAC_T2, IP_T2, script=[], symbolic_client=False),
        ]

    if properties is None:
        properties = [NoForgottenPackets(),
                      UseCorrectRoutingTable(expected_path)]
    return Scenario(topo, app_factory, hosts_factory, properties, config,
                    name="energy-te")
