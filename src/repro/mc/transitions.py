"""Transition descriptors.

A :class:`Transition` names one atomic step of the system: which component
acts and with what argument.  Descriptors are *pure data* — hashable,
comparable, deep-copyable — so a trace (a list of descriptors) replayed from
the initial state deterministically reconstructs any state (the paper's
memory-saving checkpoint strategy, Section 6).

Kinds:

========================  ====================================================
``process_pkt``           switch processes the head packet of every channel
``process_of``            switch applies one OpenFlow message
``ctrl_handle``           controller dispatches one message from a switch
``ctrl_stats``            controller consumes a stats reply, with
                          symbolically-discovered representative values
``ctrl_event``            an external controller event (e.g. an operator
                          policy change) fires
``host_send``             host injects a packet (scripted, queued reply, or
                          symbolically discovered)
``host_recv``             host consumes one packet from its inbox
``host_move``             mobile host moves to its next location
``expire_rule``           a rule with a hard timeout expires
``channel_fault``         fault-model operation on a packet channel
========================  ====================================================
"""

from __future__ import annotations

from repro.mc.canonical import canonicalize

PROCESS_PKT = "process_pkt"
PROCESS_OF = "process_of"
CTRL_HANDLE = "ctrl_handle"
CTRL_STATS = "ctrl_stats"
CTRL_EVENT = "ctrl_event"
HOST_SEND = "host_send"
HOST_RECV = "host_recv"
HOST_MOVE = "host_move"
EXPIRE_RULE = "expire_rule"
CHANNEL_FAULT = "channel_fault"


class Transition:
    """One enabled step: ``(kind, actor, arg)``.

    ``actor`` is a switch or host name; ``arg`` depends on the kind (a send
    descriptor, a move target, a fault op...).  ``payload`` optionally
    carries a non-hashable companion object (e.g. the concrete
    :class:`~repro.openflow.packet.Packet` of a symbolic send or a discovered
    stats dict); equality and hashing use only the canonical key, with the
    payload's canonical form folded into ``arg`` by the constructor caller.
    A worker channel keys its descriptor tables on that equality
    (:class:`~repro.mc.wire.Codec`): descriptors that compare equal must
    execute alike.
    """

    #: ``_key``/``_hash`` memoise :meth:`key` and its hash: descriptors are
    #: pure data (nothing assigns to the four fields after ``__init__``),
    #: and traces of them key dicts on the search's hot paths.  The memo
    #: slots are filled on first use rather than by ``__init__``, which
    #: unpickling never runs — a descriptor off the wire, or out of a
    #: checkpoint written before the memo existed, starts with them unset.
    __slots__ = ("kind", "actor", "arg", "payload", "_key", "_hash")

    def __init__(self, kind: str, actor: str, arg=None, payload=None):
        self.kind = kind
        self.actor = actor
        self.arg = arg
        self.payload = payload

    def __getstate__(self):
        # Only the four fields cross the wire or reach a checkpoint — the
        # very slots-state form pickled before the memo existed, byte for
        # byte; whoever unpickles rebuilds the memo on demand.
        return None, {"kind": self.kind, "actor": self.actor,
                      "arg": self.arg, "payload": self.payload}

    def key(self) -> tuple:
        try:
            return self._key
        except AttributeError:
            key = self._key = (self.kind, self.actor, canonicalize(self.arg))
            return key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Transition):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = self._hash = hash(self.key())
            return value

    def canonical(self) -> tuple:
        return self.key()

    def __repr__(self):
        if self.arg is None:
            return f"{self.kind}({self.actor})"
        return f"{self.kind}({self.actor}, {self.arg!r})"
