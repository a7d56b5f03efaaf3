"""JPF-like baseline: statement-granularity handler interleaving.

Java PathFinder represents system concurrency with Java threads and explores
scheduling points between bytecode instructions touching shared state.
Translated to this model: a controller handler is not atomic — every
OpenFlow API call it makes is a separate scheduling point, and any other
component may run in between.

"The reason is that JPF uses Java threads to represent system concurrency...
JPF leads to too many possible thread interleavings to explore even in our
small example" (Section 7).  This baseline reproduces that blow-up: with a
handler that issues k messages, every other enabled transition can interleave
between consecutive issues, multiplying the interleaving space.

:class:`JpfSystem` wraps the normal system: ``ctrl_handle`` runs the handler
against a *buffering* API, then each buffered operation becomes its own
``apply_op`` transition.
"""

from __future__ import annotations

import time

from repro.config import NiceConfig
from repro.mc import transitions as tk
from repro.mc.strategies import Strategy
from repro.mc.system import System
from repro.mc.transitions import Transition


class _BufferingAPI:
    """Records API operations for later, one-at-a-time application."""

    def __init__(self, ops: list):
        self._ops = ops

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self._ops.append((name, args, kwargs))

        return record


class JpfSystem(System):
    """A system whose controller handlers interleave at statement level."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Operations issued by the in-progress handler, not yet applied.
        self.pending_ops: list = []

    def enabled_transitions(self):
        if self.pending_ops:
            # The handler "thread" is at a scheduling point: applying its
            # next statement competes with every other enabled transition.
            enabled = super().enabled_transitions()
            enabled.append(Transition("apply_op", "ctrl", 0))
            return enabled
        return super().enabled_transitions()

    def execute(self, transition):
        if transition.kind == "apply_op":
            name, args, kwargs = self.pending_ops.pop(0)
            getattr(self.api(), name)(*args, **kwargs)
            return
        if transition.kind == tk.CTRL_HANDLE:
            # The buffering API bypasses the stamping wrapper, so declare
            # the handled switch and the controller state written here.
            switch = self._write_switch(transition.actor)
            self._write_app()
            ops: list = []
            self.runtime.handle_message(_BufferingAPI(ops), switch)
            self.pending_ops.extend(ops)
            return
        super().execute(transition)

    def canonical_extra(self):
        # Folded into the state hash alongside the component digests.
        return tuple(
            (name, repr(args), repr(sorted(kwargs.items())))
            for name, args, kwargs in self.pending_ops
        )

    def clone(self):
        new = super().clone()
        new.pending_ops = list(self.pending_ops)
        return new


class JpfLikeResult:
    def __init__(self):
        self.transitions_executed = 0
        self.unique_states = 0
        self.wall_time = 0.0
        self.completed = True

    def __repr__(self):
        return (f"JpfLikeResult(transitions={self.transitions_executed},"
                f" unique={self.unique_states}, t={self.wall_time:.1f}s)")


class JpfLikeSearcher:
    """Exhaustive DFS over the statement-interleaved system."""

    def __init__(self, system_factory, config: NiceConfig | None = None):
        """``system_factory`` must build a :class:`JpfSystem`."""
        self.system_factory = system_factory
        self.config = config or NiceConfig()
        self.strategy = Strategy()

    def run(self) -> JpfLikeResult:
        result = JpfLikeResult()
        start = time.perf_counter()
        initial = self.system_factory()
        explored = {initial.state_hash()}
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
                    result.completed = False
                    frontier.clear()
                    break
                digest = child.state_hash()
                if digest in explored:
                    continue
                explored.add(digest)
                frontier.append(child)
        result.unique_states = len(explored)
        result.wall_time = time.perf_counter() - start
        return result
