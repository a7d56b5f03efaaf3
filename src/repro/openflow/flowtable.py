"""The flow table, with the paper's canonical representation.

Section 2.2.2, "Merging equivalent flow tables": two tables holding the same
rules in different insertion orders are semantically equivalent whenever the
differing-order rules do not overlap (no packet matches both), yet a naive
list representation makes the model checker treat them as distinct states.
The canonical representation sorts rules into a unique order — by descending
priority, then by a stable serialization of the pattern — so equivalent
tables serialize identically.  Disabling this (``canonical=False``)
reproduces the NO-SWITCH-REDUCTION baseline of Table 1, where insertion
order leaks into the state hash.

Lookup semantics follow OpenFlow: the highest-priority matching rule wins;
among equal-priority overlapping rules the earliest-inserted wins (kept
deterministic via an insertion sequence number).
"""

from __future__ import annotations

from repro.openflow.match import Match
from repro.openflow.packet import Packet
from repro.openflow.rules import Rule


class FlowTable:
    """An OpenFlow flow table."""

    def __init__(self, canonical: bool = True):
        self.canonical_mode = canonical
        #: ``(insertion_seq, rule)`` pairs.  A replace-on-write value: every
        #: mutator builds a new tuple and installed rules are never changed
        #: in place, so checkpoint clones share it.
        self._entries: tuple[tuple[int, Rule], ...] = ()
        self._next_seq = 0
        #: Cached :meth:`canonical` forms, without and with the traffic
        #: counters; a rule hit resets only the second.
        self._canon: tuple | None = None
        self._canon_counted: tuple | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return (rule for _, rule in self._entries)

    @property
    def rules(self) -> list[Rule]:
        return [rule for _, rule in self._entries]

    def clone(self) -> "FlowTable":
        """A new table over the same entries and cached forms (see
        ``_entries``); insertion order is preserved.  Runs when a switch
        first writes a table it shares with a checkpoint copy
        (``SwitchModel._write_table``)."""
        new = FlowTable.__new__(FlowTable)
        new.__dict__ = self.__dict__.copy()
        return new

    def _replace(self, entries) -> None:
        self._entries = tuple(entries)
        self._canon = self._canon_counted = None

    def install(self, rule: Rule) -> None:
        """Add a rule; replaces an existing entry with identical match+priority.

        OFPFC_ADD semantics: an exact-duplicate entry overwrites, resetting
        counters.  The rewritten entry takes a fresh position at the *tail*
        of the list — as in a naive list-based switch implementation — which
        is precisely the source of semantically-equivalent-but-differently-
        ordered tables that the canonical representation merges (Table 1's
        NO-SWITCH-REDUCTION comparison).
        """
        self._replace(
            [entry for entry in self._entries if not entry[1].same_entry(rule)]
            + [(self._next_seq, rule)])
        self._next_seq += 1

    def record_hit(self, rule: Rule, byte_count: int) -> None:
        """Count a match on the installed ``rule`` — on a copy that takes
        its place, because the rule object itself is shared with every
        clone of this table."""
        counted = rule.clone()
        counted.record_hit(byte_count)
        self._entries = tuple(
            (seq, counted if existing is rule else existing)
            for seq, existing in self._entries)
        self._canon_counted = None

    def remove(self, pattern: Match, priority: int | None = None,
               strict: bool = False) -> list[Rule]:
        """Delete rules, OFPFC_DELETE style.

        Non-strict delete removes every rule whose pattern *overlaps* the
        given one (i.e. the given wildcard pattern subsumes-or-intersects the
        rule); strict delete removes only the rule with the identical pattern
        (and priority, when given).  Returns the removed rules.
        """
        removed: list[Rule] = []
        kept: list[tuple[int, Rule]] = []
        for seq, rule in self._entries:
            if strict:
                doomed = rule.match == pattern and (
                    priority is None or rule.priority == priority
                )
            else:
                doomed = pattern.overlaps(rule.match) and (
                    priority is None or rule.priority == priority
                )
            if doomed:
                removed.append(rule)
            else:
                kept.append((seq, rule))
        self._replace(kept)
        return removed

    def remove_rule(self, rule: Rule) -> bool:
        """Remove one specific rule object (used by expiry transitions)."""
        kept = [entry for entry in self._entries if entry[1] is not rule]
        if len(kept) == len(self._entries):
            return False
        self._replace(kept)
        return True

    def lookup(self, packet: Packet, in_port: int) -> Rule | None:
        """Return the highest-priority rule matching ``packet`` on ``in_port``.

        Ties between equal-priority overlapping rules break toward the
        earliest-installed rule, keeping the data plane deterministic.
        """
        best: Rule | None = None
        best_key: tuple[int, int] | None = None
        for seq, rule in self._entries:
            if rule.match.matches(packet, in_port):
                key = (-rule.priority, seq)
                if best_key is None or key < best_key:
                    best, best_key = rule, key
        return best

    def expirable_rules(self) -> list[Rule]:
        """Rules eligible for an explicit expiry transition (hard timeout)."""
        return [rule for _, rule in self._entries
                if rule.hard_timeout and rule.hard_timeout > 0]

    def canonical(self, include_counters: bool = True) -> tuple:
        """Serialization for state hashing, cached until the table changes.

        Canonical mode sorts rules into the unique order described in the
        paper; non-canonical mode preserves the insertion order, so the model
        checker sees two insertion orders of non-overlapping rules as two
        distinct states (NO-SWITCH-REDUCTION).
        """
        canon = self._canon_counted if include_counters else self._canon
        if canon is None:
            serialized = [rule.canonical(include_counters)
                          for _, rule in self._entries]
            if self.canonical_mode:
                serialized.sort()
            canon = tuple(serialized)
            if include_counters:
                self._canon_counted = canon
            else:
                self._canon = canon
        return canon

    def __repr__(self) -> str:
        return f"FlowTable({self.rules!r})"
