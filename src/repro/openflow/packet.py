"""Packets and address types.

A :class:`Packet` is the unit of data-plane traffic.  Header fields follow
the OpenFlow 1.0 twelve-tuple restricted to the fields the paper's
applications use: input port (kept outside the packet), Ethernet
source/destination/type, IPv4 source/destination/protocol, and TCP/UDP
source/destination ports, plus TCP flags (the load balancer inspects SYN
bits) and the ARP opcode.

MAC addresses are :class:`MacAddress` values — 6-byte sequences supporting
the byte indexing used by controller programs (``pkt.src[0] & 1`` tests the
broadcast/multicast bit, exactly as in Figure 3 of the paper).

Packets also carry *model metadata* that is not part of any header: a unique
id (``uid``) assigned at injection time, a ``copy_id`` distinguishing flood
copies, and the list of ``(switch, in_port)`` hops traversed, which the
NoForwardingLoops property inspects.

**The seal rule** (DESIGN.md, "Sub-forms and sealed packets"): a packet
that has been *stored* — queued on a channel, buffered at a switch, held in
a host's ``inbox``/``pending``/``received``, carried by a ``PacketIn``,
logged in ``packet_in_log`` or the ledger history — is never mutated
again.  Whoever needs to change one (record a hop, reset the identity of a
reply) takes it out and works on a :meth:`Packet.copy`.  That is what lets
checkpoint clones share packets instead of copying them, and lets
:meth:`Packet.seal` keep the canonical form for good.
"""

from __future__ import annotations

from typing import Iterator, Sequence

ETH_TYPE_IP = 0x0800
ETH_TYPE_ARP = 0x0806
ETH_TYPE_LLDP = 0x88CC

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_ACK = 0x10

ARP_REQUEST = 1
ARP_REPLY = 2


class MacAddress:
    """An immutable 6-byte MAC address supporting byte indexing.

    >>> mac = MacAddress.from_string("00:00:00:00:00:01")
    >>> mac[0] & 1        # broadcast bit of the first byte
    0
    >>> MacAddress.broadcast()[0] & 1
    1
    """

    __slots__ = ("_bytes", "_canon")

    def __init__(self, data: Sequence[int]):
        data = tuple(int(b) for b in data)
        if len(data) != 6:
            raise ValueError(f"MAC address needs 6 bytes, got {len(data)}")
        for b in data:
            if not 0 <= b <= 0xFF:
                raise ValueError(f"MAC byte out of range: {b}")
        self._bytes = data
        #: Lazily rendered canonical text; immutable address, safe to keep.
        self._canon: str | None = None

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"malformed MAC address {text!r}")
        return cls(tuple(int(p, 16) for p in parts))

    @classmethod
    def from_int(cls, value: int) -> "MacAddress":
        if not 0 <= value < (1 << 48):
            raise ValueError(f"MAC integer out of range: {value}")
        return cls(tuple((value >> (8 * (5 - i))) & 0xFF for i in range(6)))

    @classmethod
    def broadcast(cls) -> "MacAddress":
        return cls((0xFF,) * 6)

    def to_int(self) -> int:
        value = 0
        for b in self._bytes:
            value = (value << 8) | b
        return value

    @property
    def is_broadcast(self) -> bool:
        """True for group (broadcast/multicast) addresses: low bit of byte 0."""
        return bool(self._bytes[0] & 1)

    def __getitem__(self, index: int) -> int:
        return self._bytes[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bytes)

    def __len__(self) -> int:
        return 6

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._bytes == other._bytes
        if isinstance(other, (tuple, list)):
            return self._bytes == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bytes)

    def __repr__(self) -> str:
        return ":".join(f"{b:02x}" for b in self._bytes)

    def canonical(self) -> str:
        """Stable serialization used for state hashing (cached: the address
        is immutable and state hashing renders it constantly)."""
        canon = self._canon
        if canon is None:
            canon = self._canon = repr(self)
        return canon


def ip_from_string(text: str) -> int:
    """Parse dotted-quad IPv4 text into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {text!r}")
    value = 0
    for p in parts:
        octet = int(p)
        if not 0 <= octet <= 255:
            raise ValueError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def ip_to_string(value: int) -> str:
    """Format a 32-bit integer as dotted-quad IPv4 text."""
    return ".".join(str((value >> (8 * (3 - i))) & 0xFF) for i in range(4))


class Packet:
    """A data-plane packet: header fields plus model metadata.

    Header fields default to zero/None so tests can build minimal packets.
    ``size`` stands in for the wire length and feeds rule byte counters.
    """

    __slots__ = (
        "eth_src",
        "eth_dst",
        "eth_type",
        "ip_src",
        "ip_dst",
        "nw_proto",
        "tp_src",
        "tp_dst",
        "tcp_flags",
        "arp_op",
        "payload",
        "size",
        "uid",
        "copy_id",
        "hops",
        "_header",
        "_canon",
        "_key",
    )

    def __init__(
        self,
        eth_src: MacAddress,
        eth_dst: MacAddress,
        eth_type: int = ETH_TYPE_IP,
        ip_src: int = 0,
        ip_dst: int = 0,
        nw_proto: int = 0,
        tp_src: int = 0,
        tp_dst: int = 0,
        tcp_flags: int = 0,
        arp_op: int = 0,
        payload: str = "",
        size: int = 64,
        uid: int = -1,
    ):
        self.eth_src = eth_src
        self.eth_dst = eth_dst
        self.eth_type = eth_type
        self.ip_src = ip_src
        self.ip_dst = ip_dst
        self.nw_proto = nw_proto
        self.tp_src = tp_src
        self.tp_dst = tp_dst
        self.tcp_flags = tcp_flags
        self.arp_op = arp_op
        self.payload = payload
        self.size = size
        self.uid = uid
        #: Flood copies extend this tuple with ``(switch, out_port)`` so copy
        #: identity is deterministic and independent of event interleaving
        #: (a per-switch counter would make equivalent states hash apart).
        self.copy_id: tuple = ()
        self.hops: list[tuple[str, int]] = []
        #: Lazily built header tuple.  The pipeline only rewrites header
        #: fields on freshly made copies (set-dl actions, ARP resolution),
        #: never on a packet that has already been observed/hashed, so the
        #: cache cannot go stale; identity fields (uid/copy_id/hops) do
        #: mutate in place until the packet is sealed.
        self._header: tuple | None = None
        #: The canonical form, kept from :meth:`seal` on; ``None`` while the
        #: packet is still private to whoever is building it.
        self._canon: tuple | None = None
        #: ``repr`` of the sealed form (:meth:`canonical_key`).
        self._key: str | None = None

    # Aliases matching the names controller programs use (Figure 3 uses
    # pkt.src / pkt.dst / pkt.type for the Ethernet header).
    @property
    def src(self) -> MacAddress:
        return self.eth_src

    @property
    def dst(self) -> MacAddress:
        return self.eth_dst

    @property
    def type(self) -> int:
        return self.eth_type

    def header_tuple(self) -> tuple:
        """All header fields, used for equality and canonical serialization."""
        header = self._header
        if header is None:
            header = self._header = (
                self.eth_src.canonical(),
                self.eth_dst.canonical(),
                self.eth_type,
                self.ip_src,
                self.ip_dst,
                self.nw_proto,
                self.tp_src,
                self.tp_dst,
                self.tcp_flags,
                self.arp_op,
                self.payload,
                self.size,
            )
        return header

    def flow_key(self) -> tuple:
        """Microflow identity: the 5-tuple plus MACs, ignoring flags/payload.

        Used by the FLOW-IR strategy's default ``is_same_flow`` and by the
        FlowAffinity property to group packets of one TCP connection.
        """
        return self.header_tuple()[:8]

    def same_headers(self, other: "Packet") -> bool:
        return self.header_tuple() == other.header_tuple()

    def copy(self, new_copy_id: tuple | None = None) -> "Packet":
        """Duplicate this packet (e.g. for flooding), keeping uid and hops."""
        dup = Packet(
            eth_src=self.eth_src,
            eth_dst=self.eth_dst,
            eth_type=self.eth_type,
            ip_src=self.ip_src,
            ip_dst=self.ip_dst,
            nw_proto=self.nw_proto,
            tp_src=self.tp_src,
            tp_dst=self.tp_dst,
            tcp_flags=self.tcp_flags,
            arp_op=self.arp_op,
            payload=self.payload,
            size=self.size,
            uid=self.uid,
        )
        dup.copy_id = self.copy_id if new_copy_id is None else new_copy_id
        dup.hops = list(self.hops)
        return dup

    def seal(self) -> "Packet":
        """Declare the packet stored: it will not be mutated again (the
        seal rule, module docstring), so its canonical form is rendered
        here once and every later :meth:`canonical` returns that object.
        Copies start unsealed.  Returns ``self`` so store sites read
        ``enqueue(packet.seal())``."""
        if self._canon is None:
            self._canon = self.canonical()
        return self

    def canonical(self) -> tuple:
        """Stable serialization for state hashing (includes identity)."""
        canon = self._canon
        if canon is not None:
            return canon
        return self.header_tuple() + (self.uid, self.copy_id, tuple(self.hops))

    def canonical_key(self) -> str:
        """``repr(self.canonical())``: what orders this packet inside the
        multisets it is kept in (a host's received record, a switch's
        buffers) — rendered once for a sealed packet, which many states
        share, and per call for an unsealed one."""
        key = self._key
        if key is None:
            key = repr(self.canonical())
            if self._canon is not None:
                self._key = key
        return key

    def __getstate__(self):
        """Every slot but the sealed form and its key, in the slots-state
        shape pickle derives by itself — symbolic ``HOST_SEND`` payloads travel the
        worker wire and sit in checkpoints, and both must stay readable
        by, and byte-identical to, the format without the ``_canon``
        slot."""
        return None, {name: getattr(self, name) for name in _PICKLED_SLOTS}

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._canon = self._key = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        kind = {ETH_TYPE_IP: "ip", ETH_TYPE_ARP: "arp", ETH_TYPE_LLDP: "lldp"}.get(
            self.eth_type, hex(self.eth_type)
        )
        return (
            f"Packet#{self.uid}.{self.copy_id}({kind} {self.eth_src}->{self.eth_dst}"
            f" nw={ip_to_string(self.ip_src)}->{ip_to_string(self.ip_dst)}"
            f" tp={self.tp_src}->{self.tp_dst})"
        )


#: The slots :meth:`Packet.__getstate__` pickles — the same ``str`` objects
#: as ``__slots__``, which is what pickle's own slot walk would emit.
_PICKLED_SLOTS = Packet.__slots__[:-2]


def l2_ping(src: MacAddress, dst: MacAddress, payload: str = "ping") -> Packet:
    """The paper's "layer-2 ping": a minimal Ethernet frame from src to dst."""
    return Packet(eth_src=src, eth_dst=dst, eth_type=ETH_TYPE_IP, payload=payload)


def l2_pong(ping: Packet) -> Packet:
    """The reply to :func:`l2_ping` — swaps source and destination.

    The pong inherits the ping's payload tag (``ping3`` -> ``pong3``) so a
    ping/pong exchange stays recognizable as one flow group for FLOW-IR.
    """
    payload = str(ping.payload)
    tag = payload[4:] if payload.startswith("ping") else ""
    return Packet(
        eth_src=ping.eth_dst, eth_dst=ping.eth_src, eth_type=ping.eth_type,
        payload=f"pong{tag}",
    )


def tcp_packet(
    src: MacAddress,
    dst: MacAddress,
    ip_src: int,
    ip_dst: int,
    tp_src: int,
    tp_dst: int,
    flags: int = 0,
    payload: str = "",
) -> Packet:
    """Build a TCP segment (SYN/ACK/data depending on ``flags``/``payload``)."""
    return Packet(
        eth_src=src,
        eth_dst=dst,
        eth_type=ETH_TYPE_IP,
        ip_src=ip_src,
        ip_dst=ip_dst,
        nw_proto=IPPROTO_TCP,
        tp_src=tp_src,
        tp_dst=tp_dst,
        tcp_flags=flags,
        payload=payload,
    )


def arp_request(src: MacAddress, ip_src: int, ip_dst: int) -> Packet:
    """Build an ARP who-has request (broadcast destination)."""
    return Packet(
        eth_src=src,
        eth_dst=MacAddress.broadcast(),
        eth_type=ETH_TYPE_ARP,
        ip_src=ip_src,
        ip_dst=ip_dst,
        arp_op=ARP_REQUEST,
    )


def arp_reply(src: MacAddress, dst: MacAddress, ip_src: int, ip_dst: int) -> Packet:
    """Build an ARP is-at reply."""
    return Packet(
        eth_src=src,
        eth_dst=dst,
        eth_type=ETH_TYPE_ARP,
        ip_src=ip_src,
        ip_dst=ip_dst,
        arp_op=ARP_REPLY,
    )
