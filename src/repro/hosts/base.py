"""Base host model.

A host owns:

* an **inbox** — the FIFO channel from its switch port; the ``receive``
  transition pops one packet;
* a **script** — an ordered list of packets to send proactively (the concrete
  alternative to symbolic-execution-discovered packets);
* **pending replies** — packets queued by :meth:`on_receive`, each sent by a
  separate ``send`` transition (the paper's server model: ``send_reply`` is
  enabled by ``receive``);
* the PKT-SEQ bookkeeping: ``sent_count`` (bounded by the strategy's maximum
  sequence length) and the burst counter ``c`` (decremented per send,
  replenished by one for every received packet — Section 4, PKT-SEQ).

Subclasses override :meth:`on_receive` for reactive behavior.  All state must
stay plain-Python so the model checker can deep-copy and canonically
serialize it.
"""

from __future__ import annotations

from repro.mc.canonical import insort_canonical
from repro.openflow.packet import MacAddress, Packet

#: Ownership bits of the five containers a host writes (``Host._owned``).
_INBOX, _PENDING, _RECEIVED, _SCRIPT_DONE, _SEND_SIG_COUNTS = 1, 2, 4, 8, 16
_ALL_PARTS = 31


class Host:
    """A generic end host.

    Ownership (DESIGN.md, "Sub-forms and sealed packets"): the five
    containers below — ``inbox``, ``pending``, ``received``,
    ``script_done``, ``send_sig_counts`` — are *parts*.  A checkpoint
    copy (:meth:`clone`) shares every part with the original and owns
    none; a part is copied on its first write, by its ``_write_*``
    accessor, which is the only way the methods of this class reach a
    part to change it and which also resets the form the part renders
    to, so :meth:`canonical` re-assembles only what was written.
    """

    def __init__(self, name: str, mac: MacAddress, ip: int,
                 script: list[Packet] | None = None):
        self.name = name
        self.mac = mac
        self.ip = ip
        #: Replace-on-write: a subclass that extends its script rebinds it
        #: (``ArpClient.on_receive``); checkpoint copies share the list.
        self.script: list[Packet] = list(script or [])
        #: When True (default) scripted packets go out in order; when False
        #: every unsent scripted packet is a concurrently-enabled ``send``
        #: transition (the "concurrent pings" workload of Section 7).
        self.ordered_script = True
        self.inbox: list[Packet] = []
        #: Packets consumed so far, in arrival order (properties read it);
        #: appended to only by :meth:`_pop_inbox`, which keeps
        #: ``_received_canon`` — its canonical form, a sorted multiset,
        #: with the sort keys beside it — in step.
        self.received: list[Packet] = []
        self._received_keys: tuple = ()
        self._received_canon: tuple = ()
        self.pending: list[Packet] = []
        self.script_done: set[int] = set()
        self.reply_sent = 0
        self.sym_sent = 0
        #: Per-header-signature send counts; packet uids derive from these
        #: (:meth:`count_send`) so identity is independent of global event
        #: order.
        self.send_sig_counts: dict[str, int] = {}
        #: When True and symbolic execution is enabled, the search gives this
        #: host ``discover_packets``-derived send transitions (Figure 4/5).
        self.symbolic_client = False
        #: PKT-SEQ burst counter; the system sets the initial value from
        #: ``NiceConfig.max_outstanding``.
        self.counter_c = 1
        #: Which parts this object may write in place (bits above).
        self._owned = _ALL_PARTS
        #: The forms of ``inbox`` / ``pending`` / ``script_done`` /
        #: ``send_sig_counts`` as :meth:`canonical` last assembled them;
        #: reset by the part's write accessor.
        self._inbox_canon: tuple | None = None
        self._pending_canon: tuple | None = None
        self._script_done_canon: tuple | None = None
        self._send_sig_counts_canon: tuple | None = None

    def clone(self) -> "Host":
        """Checkpoint copy (``System.clone``): the fields, and no part.

        Copies the instance field by field — subclasses inherit this,
        scalar state and all — and owns none of the containers: each is
        shared with the original until this copy first writes it.  The
        original is never written again: under copy-on-write
        checkpointing a host stays shared between parent and child until
        ``System._write_host`` hands whichever side writes first a copy
        of its own, so receive/send/move must always go through the
        owning System's transitions.  The packets in the containers are
        shared for good: everything a host stores is sealed (the seal
        rule in :mod:`repro.openflow.packet`; :meth:`take_send` hands out
        a copy of a queued reply, never the reply).
        """
        new = type(self).__new__(type(self))
        new.__dict__ = self.__dict__.copy()
        new._owned = 0
        return new

    # ------------------------------------------------------------------
    # Write accessors: the part, owned by this object, its form reset
    # ------------------------------------------------------------------

    def _write_inbox(self) -> list:
        if not self._owned & _INBOX:
            self.inbox = list(self.inbox)
            self._owned |= _INBOX
        self._inbox_canon = None
        return self.inbox

    def _write_pending(self) -> list:
        if not self._owned & _PENDING:
            self.pending = list(self.pending)
            self._owned |= _PENDING
        self._pending_canon = None
        return self.pending

    def _write_received(self, packet: Packet) -> None:
        """Append to the received record and to its form — a multiset kept
        sorted, so it is extended in place of being reset."""
        if not self._owned & _RECEIVED:
            self.received = list(self.received)
            self._owned |= _RECEIVED
        self.received.append(packet)
        self._received_keys, self._received_canon = insort_canonical(
            self._received_keys, self._received_canon, packet.canonical(),
            packet.canonical_key())

    def _write_script_done(self) -> set:
        if not self._owned & _SCRIPT_DONE:
            self.script_done = set(self.script_done)
            self._owned |= _SCRIPT_DONE
        self._script_done_canon = None
        return self.script_done

    def _write_send_sig_counts(self) -> dict:
        if not self._owned & _SEND_SIG_COUNTS:
            self.send_sig_counts = dict(self.send_sig_counts)
            self._owned |= _SEND_SIG_COUNTS
        self._send_sig_counts_canon = None
        return self.send_sig_counts

    @property
    def script_sent(self) -> int:
        return len(self.script_done)

    @property
    def sent_count(self) -> int:
        """Total packets sent, over all three send sources."""
        return self.script_sent + self.reply_sent + self.sym_sent

    # ------------------------------------------------------------------
    # Receive
    # ------------------------------------------------------------------

    def can_receive(self) -> bool:
        return bool(self.inbox)

    def deliver(self, packet: Packet) -> None:
        """Called by the system when the switch emits toward this host."""
        self._write_inbox().append(packet)

    def receive(self) -> Packet:
        """Pop one packet: record it, replenish the burst counter, queue replies."""
        packet = self._pop_inbox()
        self.counter_c += 1
        self._queue_replies(packet)
        return packet

    def _pop_inbox(self) -> Packet:
        """Move the head of the inbox into the received record."""
        packet = self._write_inbox().pop(0)
        self._write_received(packet)
        return packet

    def _queue_replies(self, packet: Packet) -> None:
        """Run :meth:`on_receive` and store its replies, sealed."""
        replies = self.on_receive(packet)
        if replies:
            pending = self._write_pending()
            for reply in replies:
                pending.append(reply.seal())

    def on_receive(self, packet: Packet) -> list[Packet]:
        """Hook: return reply packets to queue.  Default: none."""
        return []

    # ------------------------------------------------------------------
    # Send
    # ------------------------------------------------------------------

    def can_send_more(self, max_pkt_sequence: int) -> bool:
        """PKT-SEQ gate: burst counter available and sequence bound not hit."""
        return self.counter_c > 0 and self.sent_count < max_pkt_sequence

    def send_candidates(self, max_pkt_sequence: int) -> list[tuple[str, int]]:
        """Enumerate the concrete send transitions enabled right now.

        Returns descriptors: ``("script", index)`` for the next scripted
        packet, ``("pending", 0)`` for the head queued reply.  Scripted sends
        happen in order; replies are FIFO.  Respects the PKT-SEQ bounds.
        (Symbolically-discovered sends are enumerated by the search loop.)
        """
        if not self.can_send_more(max_pkt_sequence):
            return []
        candidates: list[tuple[str, int]] = []
        if self.ordered_script:
            if self.script_sent < len(self.script):
                candidates.append(("script", self.script_sent))
        else:
            for index in range(len(self.script)):
                if index not in self.script_done:
                    candidates.append(("script", index))
        if self.pending:
            candidates.append(("pending", 0))
        return candidates

    def take_send(self, descriptor: tuple[str, int]) -> Packet:
        """Consume a send: return the packet template and update counters."""
        kind, index = descriptor
        if kind == "script":
            if index in self.script_done:
                raise ValueError(f"script packet {index} already sent")
            packet = self.script[index].copy()
            self._write_script_done().add(index)
        elif kind == "pending":
            # A copy, like the script branch: the queued reply is sealed
            # (clones of this host share it) and the send resets the
            # identity of what it is handed.
            packet = self._write_pending().pop(index).copy()
            self.reply_sent += 1
        else:
            raise ValueError(f"unknown send descriptor {descriptor!r}")
        self.counter_c -= 1
        return packet

    def take_send_sym(self, packet: Packet) -> Packet:
        """Consume a send of a symbolically-discovered packet."""
        self.sym_sent += 1
        self.counter_c -= 1
        return packet.copy()

    def count_send(self, signature: str) -> int:
        """Count one more send of header ``signature``; returns how many
        this host had sent before it."""
        counts = self._write_send_sig_counts()
        occurrence = counts.get(signature, 0)
        counts[signature] = occurrence + 1
        return occurrence

    # ------------------------------------------------------------------
    # Mobility / serialization
    # ------------------------------------------------------------------

    def move_targets(self) -> list[tuple[str, int]]:
        """Locations this host may still move to (mobile hosts override)."""
        return []

    def take_move(self) -> tuple[str, int]:
        raise NotImplementedError("base hosts do not move")

    def canonical(self) -> tuple:
        """Assembled from the parts' forms; a part not written since the
        last call is neither re-tupled nor re-sorted."""
        inbox = self._inbox_canon
        if inbox is None:
            inbox = self._inbox_canon = tuple(
                [p.canonical() for p in self.inbox])
        pending = self._pending_canon
        if pending is None:
            pending = self._pending_canon = tuple(
                [p.canonical() for p in self.pending])
        script_done = self._script_done_canon
        if script_done is None:
            script_done = self._script_done_canon = tuple(
                sorted(self.script_done))
        send_sig_counts = self._send_sig_counts_canon
        if send_sig_counts is None:
            send_sig_counts = self._send_sig_counts_canon = tuple(
                sorted(self.send_sig_counts.items()))
        return (
            self.name,
            self.mac.canonical(),
            self.ip,
            # The inbox and pending replies are FIFO queues — order is real
            # behavior.  The received record is history: which packets
            # arrived matters (properties read it), the order they arrived
            # in does not, so it is serialized as a sorted multiset to let
            # equivalent interleavings hash together.
            inbox,
            self._received_canon,
            pending,
            script_done,
            self.reply_sent,
            self.sym_sent,
            self.counter_c,
            send_sig_counts,
        )

    def __repr__(self):
        return (f"{type(self).__name__}({self.name}, sent={self.sent_count},"
                f" recv={len(self.received)}, c={self.counter_c})")
