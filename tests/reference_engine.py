"""The trust-nothing reference engine — the oracle for the product's
per-state hot path (DESIGN.md, "Per-state hot path").

:class:`ReferenceSystem` is a :class:`~repro.mc.system.System` that takes
neither of the product's shortcuts: a checkpoint deep-copies every mutable
part (nothing is shared with the parent, so no write can leak either way,
and no cache is carried over), and a state hash is built from scratch by
:mod:`reference_forms` (every component re-read, re-sorted and re-rendered,
no ``_canon``/``_digests`` slot consulted).  Transitions execute
through the product's own ``execute`` — the reference checks *how states
are copied and hashed*, not what a transition does — so its digests are
byte-identical to the product's and the two can be compared state by
state, at roughly a fifteenth of the product's speed.

:func:`reference_run` feeds it to the ordinary serial ``Searcher``.  It
replaces the seed / eager-clone / full-render configurations the engine
used to carry as ``NiceConfig`` knobs; ``benchmarks/`` imports it for the
product-vs-from-scratch rows of ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import copy

import reference_forms
from repro.controller.runtime import ControllerRuntime
from repro.mc.system import System


class ReferenceSystem(System):
    """A System checkpointed by deep copy and hashed from scratch."""

    def clone(self) -> "ReferenceSystem":
        new = object.__new__(type(self))
        # Static for the lifetime of a search (topology, configuration,
        # component orders and slots), and the counters — with the digest
        # memo ``execute`` signs sent headers through, which ``state_hash``
        # below never asks — shared so a run accumulates in one place.
        new.__dict__.update(self.__dict__)
        new.switches = copy.deepcopy(self.switches)
        new.hosts = copy.deepcopy(self.hosts)
        new.runtime = ControllerRuntime(copy.deepcopy(self.runtime.app))
        new.ledger = copy.deepcopy(self.ledger)
        new.attachments = dict(self.attachments)
        new.host_locations = dict(self.host_locations)
        new.events_fired = dict(self.events_fired)
        new.last_handler = None
        new._api_calls = []
        # What ``execute`` expects to find, and finds empty: no component
        # is shared, no digest is cached.  (A deep copy keeps each
        # component's own part-ownership bits; they are all set, since
        # nothing on this engine ever calls a component's ``clone``.)
        new._shared = 0
        new._digests = [None] * len(self._digests)
        return new

    def state_hash(self) -> str:
        return reference_forms.state_hash(self, stats=self._hash_stats)

    def controller_state_hash(self) -> str:
        return reference_forms.controller_state_hash(self)


def reference_factory(scenario):
    """``scenario.system_factory`` for a :class:`ReferenceSystem`."""
    def factory():
        system = ReferenceSystem(scenario.topo, scenario.app_factory(),
                                 scenario.hosts_factory(), scenario.config)
        system.boot()
        return system

    return factory


def reference_run(scenario):
    """Search ``scenario`` serially on the reference engine; the result is
    comparable field by field with ``nice.run``'s."""
    searcher = scenario.with_config(workers=0).make_searcher()
    searcher.system_factory = reference_factory(scenario)
    return searcher.run()
