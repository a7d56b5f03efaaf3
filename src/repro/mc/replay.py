"""Deterministic trace replay (Section 6).

NICE checkpoints by remembering the sequence of transitions that created a
state and restores it by replaying that sequence from the initial state —
valid because every component executes deterministically.  This module
re-executes a recorded trace (e.g. the one attached to a
:class:`~repro.mc.search.Violation`) and verifies determinism along the way.

Replay of a violation trace is also how a developer reproduces a bug
step-by-step: :func:`replay_trace` yields every intermediate system if asked.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ReplayError
from repro.mc.strategies import Strategy
from repro.mc.system import System


def replay_from(system: System, trace, strategy: Strategy | None = None) -> System:
    """Re-execute ``trace`` on an existing initial-state ``system``, in place.

    The workhorse of trace-replay restoration: :class:`Retention`
    replays a node's path from its nearest kept ancestor through here,
    :func:`replay_trace` a violation's from the initial state.
    """
    strategy = strategy or Strategy()
    for step, transition in enumerate(trace):
        try:
            system.execute(transition)
        except Exception as exc:  # noqa: BLE001 - convert for context
            raise ReplayError(
                f"replay failed at step {step} ({transition!r}): {exc}"
            ) from exc
        strategy.post_execute(system, transition)
    return system


def replay_with_spine(system: System, trace, start: int,
                      strategy: Strategy | None = None,
                      snapshot=None) -> System:
    """Replay ``trace[start:]`` on ``system`` in place, handing every
    intermediate state to ``snapshot(prefix, clone)``: the spine from
    which :class:`Retention` restores nearby nodes without replaying
    from the initial state again (DESIGN.md, "Affinity scheduling")."""
    strategy = strategy or Strategy()
    for k in range(start, len(trace)):
        replay_from(system, trace[k:k + 1], strategy)
        if snapshot is not None and k + 1 < len(trace):
            snapshot(trace[:k + 1], system.clone())
    return system


class Retention:
    """The one store of Systems kept for restoration, one per engine (a
    pool worker's, the serial expander's; DESIGN.md, "Retained children
    and handles").  Its ``systems`` retained children (``nodes``) are
    what an expansion built, under the node they hang off: ``{kid index:
    System}`` taken whole (:meth:`take`) in a worker, a list parallel to
    the frontier group's steps picked one by one (:meth:`pick`) in the
    serial engine; shed newest first when ``shed_newest`` (serial BFS
    reaches those last), else oldest first.  The replay LRU (``cache``,
    ``trace -> System``, never mutated) holds rebuilt nodes and replay
    spines.  Whatever is not kept is restored by trace (Section 6) from
    the longest cached ancestor.  A restoration counts one of
    ``out["cache_hits"]`` (it started from something kept) and
    ``out["cache_misses"]`` (a full replay from :attr:`initial`).  A
    node :meth:`restore` rebuilds is hashed once when the search matches
    states, so the clones taken from it inherit warm digests.
    """

    #: Bound on the Systems kept, retained children and LRU together.
    MAX_CACHE = 2048

    def __init__(self, initial: System, strategy: Strategy,
                 shed_newest: bool = False):
        #: The replay of last resort, never in ``cache``.
        self.initial = initial
        self.strategy = strategy
        self.shed_newest = shed_newest
        self.cache: OrderedDict[tuple, System] = OrderedDict()
        self.nodes: OrderedDict = OrderedDict()
        self.systems = 0

    def keep(self, node, systems) -> None:
        if systems:
            self.nodes[node] = systems
            self.systems += len(systems)
            self._trim()

    def take(self, node):
        """Remove ``node``'s children ({} when shed), with the siblings
        the master found to be revisits, which no handle will name."""
        kept = self.nodes.pop(node, None) or {}
        self.systems -= len(kept)
        return kept

    def pick(self, node, at: int):
        """Remove and return ``node``'s child at ``at`` (None when shed):
        the serial frontier's own entry, not a restoration."""
        kept = self.nodes.get(node)
        if kept is None:
            return None
        self.systems -= 1
        if len(kept) == 1:
            del self.nodes[node]
        return kept.pop(at)

    def base_for(self, trace, out) -> System:
        """System at ``trace``: the longest cached ancestor, cloned, plus
        the missing suffix; an exact hit as is (never to be written)."""
        for k in range(len(trace), -1, -1):
            system = self.cache.get(trace[:k])
            if system is None:
                continue
            self.cache.move_to_end(trace[:k])
            out["cache_hits"] += 1
            if k == len(trace):
                return system
            out["replayed"] += len(trace) - k
            return self._replay(system.clone(), trace, k)
        out["cache_misses"] += 1
        out["replayed"] += len(trace)
        return self._replay(self.initial.clone(), trace, 0)

    def _replay(self, system, trace, k):
        return replay_with_spine(system, trace, k, self.strategy,
                                 snapshot=self.remember)

    def remember(self, trace, system) -> None:
        self.cache[trace] = system
        self._trim()

    def _trim(self) -> None:
        """Retained children get what the LRU leaves, at most half the
        bound: an engine fed nodes it did not keep fills the LRU and
        squeezes out children that were not coming back soon anyway."""
        cache, bound, newest = self.cache, self.MAX_CACHE, self.shed_newest
        while len(cache) > bound:
            cache.popitem(last=False)
        room = min(bound // 2, bound - len(cache))
        while self.systems > room:
            self.systems -= len(self.nodes.popitem(last=newest)[1])

    def restore(self, trace, steps, picked, out) -> list:
        """The Systems of sibling group ``steps`` off ``trace``: each
        ``picked[i]`` as kept, any other rebuilt from the parent (one
        :meth:`base_for` per group) and remembered as an ancestor."""
        base = None
        nodes = []
        for si, step in enumerate(steps):
            system = picked[si] if picked else None
            if system is not None:
                out["cache_hits"] += 1
                nodes.append(system)
                continue
            if base is None:
                base = self.base_for(trace, out)
                self.remember(trace, base)
            system = base.clone()
            system.execute(step)
            self.strategy.post_execute(system, step)
            out["rebuilt"] += 1
            if self.initial.config.state_matching:
                system.state_hash()
            self.remember(trace + (step,), system)
            nodes.append(system)
        return nodes


def replay_trace(system_factory, trace, strategy: Strategy | None = None,
                 expected_hash: str | None = None) -> System:
    """Re-execute ``trace`` from a fresh initial state.

    ``strategy`` must match the one used during the original search (the
    NO-DELAY strategy performs extra work after each transition).  When
    ``expected_hash`` is given, the final state must hash to it or a
    :class:`~repro.errors.ReplayError` is raised.
    """
    system = replay_from(system_factory(), trace, strategy)
    if expected_hash is not None and system.state_hash() != expected_hash:
        raise ReplayError(
            "replayed final state hash does not match the recorded one; "
            "the model is nondeterministic or the factory changed"
        )
    return system


def replay_steps(system_factory, trace, strategy: Strategy | None = None):
    """Generator variant: yields ``(step_index, transition, system)`` after
    every transition, for step-by-step debugging (the paper's simulator
    mode)."""
    system = system_factory()
    strategy = strategy or Strategy()
    yield (-1, None, system)
    for step, transition in enumerate(trace):
        system.execute(transition)
        strategy.post_execute(system, transition)
        yield (step, transition, system)


def format_trace(trace) -> str:
    """Human-readable rendering of a violation trace."""
    lines = []
    for index, transition in enumerate(trace):
        lines.append(f"{index:4d}. {transition!r}")
    return "\n".join(lines) if lines else "(empty trace)"
