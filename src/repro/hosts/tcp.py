"""A TCP-like windowed client.

Section 4, on PKT-SEQ's burst counter: "we adopt as default behavior to
increase c by one unit for every received packet.  However, this behavior
can be modified in more complex end host models, e.g., to mimic the TCP flow
and congestion controls."

:class:`TcpLikeClient` implements that refinement: the replenishment follows
an additive-increase window — every ``acks_per_increase`` received packets
grow the congestion window by one, and the burst counter is replenished up
to the current window rather than unboundedly.  A loss signal (the model has
no explicit loss notification, so quiescent retransmission timers are out of
scope) can be simulated by calling :meth:`on_loss`, which halves the window
(multiplicative decrease).
"""

from __future__ import annotations

from repro.hosts.base import Host
from repro.openflow.packet import MacAddress, Packet


class TcpLikeClient(Host):
    """A client whose send budget follows AIMD-style window growth."""

    def __init__(self, name: str, mac: MacAddress, ip: int,
                 script: list[Packet] | None = None,
                 initial_window: int = 1,
                 max_window: int = 8,
                 acks_per_increase: int = 1):
        super().__init__(name, mac, ip, script=script)
        self.window = initial_window
        self.max_window = max_window
        self.acks_per_increase = max(1, acks_per_increase)
        self._acks_seen = 0
        self.counter_c = initial_window

    def receive(self) -> Packet:
        """Receive = ACK: replenish up to the window, grow additively."""
        packet = self._pop_inbox()
        self._acks_seen += 1
        if self._acks_seen % self.acks_per_increase == 0 \
                and self.window < self.max_window:
            self.window += 1
        if self.counter_c < self.window:
            self.counter_c += 1
        self._queue_replies(packet)
        return packet

    def on_loss(self) -> None:
        """Multiplicative decrease: halve the window (min 1)."""
        self.window = max(1, self.window // 2)
        self.counter_c = min(self.counter_c, self.window)

    def canonical(self) -> tuple:
        return super().canonical() + (self.window, self._acks_seen)
