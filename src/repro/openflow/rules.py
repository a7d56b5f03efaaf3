"""Flow-table rules.

A :class:`Rule` pairs a :class:`~repro.openflow.match.Match` pattern with an
action list, a priority, traffic counters (packets and bytes processed so
far, per Section 1.1), and soft/hard timeout metadata.

Timeouts are *metadata*: the model has no wall clock (see DESIGN.md).  When
``enable_rule_timeouts`` is on, the switch exposes explicit ``rule_expire``
transitions for rules with a finite hard timeout, letting the model checker
explore expiry orderings; soft (idle) timeouts never fire while the model
keeps delivering matching traffic, which reproduces the conditions of
BUG-I.
"""

from __future__ import annotations

from repro.openflow.actions import Action, canonical_actions
from repro.openflow.match import Match

#: Sentinel for "never expires", matching the paper's ``PERMANENT``.
PERMANENT = 0

DEFAULT_PRIORITY = 0x8000


class Rule:
    """One flow-table entry."""

    __slots__ = (
        "match",
        "actions",
        "priority",
        "idle_timeout",
        "hard_timeout",
        "cookie",
        "packet_count",
        "byte_count",
        "_static_canon",
    )

    def __init__(
        self,
        match: Match,
        actions: list[Action],
        priority: int = DEFAULT_PRIORITY,
        idle_timeout: int = PERMANENT,
        hard_timeout: int = PERMANENT,
        cookie: int = 0,
    ):
        self.match = match
        self.actions = list(actions)
        self.priority = priority
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.cookie = cookie
        self.packet_count = 0
        self.byte_count = 0
        #: Lazily rendered counter-free canonical form; the pattern,
        #: actions, and metadata are immutable once installed, so clones
        #: share it and only counters render per call.
        self._static_canon: tuple | None = None

    def record_hit(self, byte_count: int) -> None:
        """Update the rule's traffic counters after a match — in place,
        so only on a rule no table holds yet: an installed rule is shared
        by every checkpoint clone of its table and is counted through
        :meth:`FlowTable.record_hit
        <repro.openflow.flowtable.FlowTable.record_hit>`."""
        self.packet_count += 1
        self.byte_count += byte_count

    def clone(self) -> "Rule":
        """A copy whose counters can diverge (what a table swaps in when
        it counts a hit); the match pattern and action objects are
        immutable once installed and stay shared."""
        new = Rule.__new__(Rule)
        new.match = self.match
        new.actions = list(self.actions)
        new.priority = self.priority
        new.idle_timeout = self.idle_timeout
        new.hard_timeout = self.hard_timeout
        new.cookie = self.cookie
        new.packet_count = self.packet_count
        new.byte_count = self.byte_count
        new._static_canon = self._static_canon
        return new

    @property
    def can_expire(self) -> bool:
        return self.hard_timeout != PERMANENT or self.idle_timeout != PERMANENT

    def canonical(self, include_counters: bool = True) -> tuple:
        """Stable serialization used both for ordering and state hashing."""
        base = self._static_canon
        if base is None:
            base = self._static_canon = (
                self.priority,
                self.match.canonical(),
                canonical_actions(self.actions),
                self.idle_timeout,
                self.hard_timeout,
                self.cookie,
            )
        if include_counters:
            return base + (self.packet_count, self.byte_count)
        return base

    def same_entry(self, other: "Rule") -> bool:
        """True when the entries coincide ignoring counters (strict identity)."""
        return (
            self.match == other.match
            and self.priority == other.priority
        )

    def __repr__(self) -> str:
        return (
            f"Rule(prio={self.priority}, {self.match!r}, acts={self.actions!r},"
            f" hits={self.packet_count})"
        )
