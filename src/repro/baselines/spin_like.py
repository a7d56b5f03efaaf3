"""SPIN-like baseline: full-state storage.

SPIN keeps every explored state vector in memory (modulo compression); NICE
deliberately stores only hashes and replays transition sequences to restore
states (Section 6: "this validates our decision to maintain hashes of system
states instead of keeping entire system states").

This checker runs the same search as NICE-MC but stores the complete
canonical serialization of every explored state, and reports the bytes
consumed by the explored-state set — the quantity that makes SPIN run out
of memory at 7 pings in the paper.  An optional ``memory_limit`` aborts the
search when the stored-state budget is exhausted, reproducing SPIN's
out-of-memory failure mode.
"""

from __future__ import annotations

import time

from repro.config import NiceConfig
from repro.mc.canonical import state_string
from repro.mc.strategies import Strategy


class SpinLikeResult:
    """Search statistics plus the memory axis."""

    def __init__(self):
        self.transitions_executed = 0
        self.unique_states = 0
        self.stored_bytes = 0
        self.hash_bytes = 0
        self.wall_time = 0.0
        self.out_of_memory = False

    def __repr__(self):
        return (f"SpinLikeResult(transitions={self.transitions_executed},"
                f" unique={self.unique_states},"
                f" stored={self.stored_bytes}B vs hashes={self.hash_bytes}B,"
                f" oom={self.out_of_memory})")


class SpinLikeSearcher:
    """Exhaustive DFS storing full state vectors."""

    #: Bytes per stored hash in NICE's scheme (a blake2b-16 hex digest).
    HASH_BYTES = 32

    def __init__(self, system_factory, config: NiceConfig | None = None,
                 memory_limit: int | None = None):
        self.system_factory = system_factory
        self.config = config or NiceConfig()
        self.memory_limit = memory_limit
        self.strategy = Strategy()

    def run(self) -> SpinLikeResult:
        result = SpinLikeResult()
        start = time.perf_counter()
        initial = self.system_factory()
        initial_vector = state_string(initial.canonical_state())
        stored: set[str] = {initial_vector}
        result.stored_bytes = len(initial_vector)
        frontier = [initial]
        while frontier:
            system = frontier.pop()
            enabled = self.strategy.filter(system, system.enabled_transitions())
            for transition in enabled:
                child = system.clone()
                child.execute(transition)
                result.transitions_executed += 1
                if (self.config.max_transitions is not None
                        and result.transitions_executed
                        >= self.config.max_transitions):
                    frontier.clear()
                    break
                vector = state_string(child.canonical_state())
                if vector in stored:
                    continue
                stored.add(vector)
                result.stored_bytes += len(vector)
                if (self.memory_limit is not None
                        and result.stored_bytes > self.memory_limit):
                    result.out_of_memory = True
                    frontier.clear()
                    break
                frontier.append(child)
        result.unique_states = len(stored)
        result.hash_bytes = result.unique_states * self.HASH_BYTES
        result.wall_time = time.perf_counter() - start
        return result
