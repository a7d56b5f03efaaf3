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

from repro.errors import ReplayError
from repro.mc.strategies import Strategy
from repro.mc.system import System


def replay_from(system: System, trace, strategy: Strategy | None = None) -> System:
    """Re-execute ``trace`` on an existing initial-state ``system``, in place.

    The workhorse of trace-replay restoration (resumed frontiers and the
    parallel workers' fallback): restoring a frontier node is a clone of the
    initial state plus a deterministic replay of the node's transition path.
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
                      snapshot=None, stride: int = 8) -> System:
    """Replay ``trace[start:]`` on ``system`` in place, invoking
    ``snapshot(prefix, clone)`` every ``stride`` executed transitions.

    The snapshot hook is how parallel workers repopulate their replay LRU
    while restoring a long suffix (DESIGN.md, "Affinity scheduling"):
    nearby sibling groups then restore from a spine clone instead of
    replaying from the initial state again.
    """
    strategy = strategy or Strategy()
    k = start
    while k < len(trace):
        segment = trace[k:k + stride]
        replay_from(system, segment, strategy)
        k += len(segment)
        if snapshot is not None and k < len(trace):
            snapshot(trace[:k], system.clone())
    return system


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
