"""First-in first-out communication channels.

Section 2.2.2: each channel is a FIFO buffer.  Packet channels have an
optionally-enabled fault model that can drop, duplicate, or reorder packets,
or fail the link; the channel to the controller is reliable and in-order.

The fault model is expressed as *fault operations* that the model checker
turns into transitions when ``channel_faults`` is enabled, so that faults
participate in the systematic exploration instead of being random.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ChannelError


def _item_canonical(item):
    canon = getattr(item, "canonical", None)
    return canon() if callable(canon) else item


class Channel:
    """A FIFO buffer of items (packets or OpenFlow messages)."""

    __slots__ = ("name", "reliable", "failed", "_items", "_canon")

    def __init__(self, name: str, reliable: bool = True):
        self.name = name
        #: Reliable channels (the OpenFlow control channel) never expose
        #: fault operations.
        self.reliable = reliable
        #: A failed link silently discards enqueues and never dequeues.
        self.failed = False
        self._items: list = []
        #: Cached :meth:`canonical` form: ``enqueue`` / ``dequeue`` extend
        #: and shorten it by the one item they move, the other mutators
        #: reset it.
        self._canon: tuple | None = None

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:  # truthiness == non-empty, handy in guards
        return bool(self._items)

    def enqueue(self, item) -> None:
        if self.failed:
            return
        self._items.append(item)
        canon = self._canon
        if canon is not None:
            self._canon = (canon[0], canon[1],
                           canon[2] + (_item_canonical(item),))

    def extend(self, items: Iterable) -> None:
        for item in items:
            self.enqueue(item)

    def peek(self):
        if not self._items:
            raise ChannelError(f"peek on empty channel {self.name}")
        return self._items[0]

    def dequeue(self):
        if not self._items:
            raise ChannelError(f"dequeue on empty channel {self.name}")
        canon = self._canon
        if canon is not None:
            self._canon = (canon[0], canon[1], canon[2][1:])
        return self._items.pop(0)

    def items(self) -> list:
        """A snapshot copy of the queued items (head first)."""
        return list(self._items)

    def since(self, position: int) -> list:
        """The items queued at ``position`` and after it."""
        return self._items[position:]

    def clone(self) -> "Channel":
        """A new queue over the *same* items and the same cached form —
        what a switch makes of a channel it shares with a checkpoint copy
        before first writing it (``SwitchModel._write_port`` and its
        siblings); enqueue/dequeue must never run on a shared channel.
        OpenFlow messages are immutable once enqueued and queued packets
        are sealed (the seal rule in :mod:`repro.openflow.packet` —
        whoever dequeues one to change it copies it first), so neither is
        ever copied here.
        """
        new = Channel.__new__(Channel)
        new.name = self.name
        new.reliable = self.reliable
        new.failed = self.failed
        new._items = list(self._items)
        new._canon = self._canon
        return new

    def clear(self) -> list:
        drained, self._items = self._items, []
        self._canon = None
        return drained

    # ------------------------------------------------------------------
    # Fault model (only meaningful on unreliable packet channels).
    # ------------------------------------------------------------------

    def fault_operations(self) -> list[tuple]:
        """Enumerate the fault transitions currently enabled on this channel.

        Returns descriptors understood by :meth:`apply_fault`:
        ``("drop", index)``, ``("duplicate", index)``,
        ``("reorder", index)`` (swap item *index* with its successor), and
        ``("fail",)``.
        """
        if self.reliable or self.failed or not self._items:
            # Faults on an idle channel are unobservable and would keep the
            # system from ever quiescing; they are enabled only while
            # traffic is present.
            return []
        ops: list[tuple] = [("fail",)]
        for i in range(len(self._items)):
            ops.append(("drop", i))
            ops.append(("duplicate", i))
        for i in range(len(self._items) - 1):
            ops.append(("reorder", i))
        return ops

    def apply_fault(self, op: tuple):
        """Apply a fault descriptor; returns the affected item (if any)."""
        if self.reliable:
            raise ChannelError(f"fault injection on reliable channel {self.name}")
        self._canon = None
        kind = op[0]
        if kind == "fail":
            self.failed = True
            return None
        index = op[1]
        if not 0 <= index < len(self._items):
            raise ChannelError(f"fault index {index} out of range on {self.name}")
        if kind == "drop":
            return self._items.pop(index)
        if kind == "duplicate":
            # Insert a distinct copy, not an alias: apps tell "the same
            # packet" from "an equal packet" by identity
            # (``LoadBalancer.is_same_flow``), and the duplicate is a new
            # packet on the wire — stored here, hence sealed.  Items
            # without a copy() are immutable test values.
            item = self._items[index]
            dup = item.copy().seal() if hasattr(item, "copy") else item
            self._items.insert(index, dup)
            return self._items[index]
        if kind == "reorder":
            if index + 1 >= len(self._items):
                raise ChannelError(f"reorder at tail of {self.name}")
            self._items[index], self._items[index + 1] = (
                self._items[index + 1],
                self._items[index],
            )
            return self._items[index]
        raise ChannelError(f"unknown fault op {op!r}")

    def canonical(self) -> tuple:
        """Stable serialization for state hashing, kept in step with the
        queue from the first call on (the queued items never change, see
        :meth:`clone`)."""
        canon = self._canon
        if canon is None:
            canon = self._canon = (
                self.name, self.failed,
                tuple(_item_canonical(item) for item in self._items))
        return canon

    def __repr__(self) -> str:
        state = "FAILED " if self.failed else ""
        return f"Channel({self.name}, {state}{len(self._items)} items)"
