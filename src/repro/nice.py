"""The NICE front end (Figure 2).

Input: an OpenFlow controller program, a network topology, and correctness
properties.  Output: traces of property violations.

>>> from repro import nice, scenarios
>>> scenario = scenarios.pyswitch_direct_path()
>>> result = nice.run(scenario)          # doctest: +SKIP
>>> result.found_violation               # doctest: +SKIP
True
"""

from __future__ import annotations

import dataclasses

from repro.config import NiceConfig
from repro.controller.app import observes_counters
from repro.mc.scheduler import ParallelSearcher
from repro.mc.search import Searcher, SearchStats
from repro.mc.strategies import make_strategy
from repro.mc.system import System
from repro.sym.engine import ConcolicEngine


class Scenario:
    """A complete NICE input: topology, app, hosts, properties, config.

    ``app_factory`` / ``hosts_factory`` are zero-argument callables building
    *fresh* instances, so searches and replays always start from identical
    initial states.

    ``is_same_flow`` is FLOW-IR's grouping (Section 4) for an app that
    has no ``is_same_flow`` of its own (``ping``: a ping with its pong).

    ``spec`` (set by the ``@registered`` builders in ``repro/scenarios.py``)
    is the scenario's portable identity — a
    :class:`~repro.mc.wire.ScenarioSpec` that spawn/socket workers use to
    rebuild the initial :class:`System` by registry name.  Hand-built
    scenarios have ``spec=None`` and can still search in parallel through
    the ``fork`` transport, which inherits the factories.
    """

    def __init__(self, topo, app_factory, hosts_factory, properties,
                 config: NiceConfig | None = None, name: str = "scenario",
                 spec=None, is_same_flow=None):
        self.topo = topo
        self.app_factory = app_factory
        self.hosts_factory = hosts_factory
        self.properties = properties
        self.config = config or NiceConfig()
        self.name = name
        self.spec = spec
        self.is_same_flow = is_same_flow

    def system_factory(self) -> System:
        system = System(self.topo, self.app_factory(),
                        self.hosts_factory(), self.config)
        system.boot()
        return system

    def with_config(self, config: NiceConfig | None = None,
                    **overrides) -> "Scenario":
        """A copy of this scenario under ``config`` (default: its own)
        with the ``overrides`` fields replaced.  The registry spec, if
        any, is carried over with the new config, so the derived scenario
        stays shippable to spawn/socket workers and resumable by name."""
        config = dataclasses.replace(config or self.config, **overrides)
        derived = Scenario(self.topo, self.app_factory, self.hosts_factory,
                           self.properties, config, name=self.name,
                           is_same_flow=self.is_same_flow)
        if self.spec is not None:
            derived.spec = dataclasses.replace(self.spec, config=config)
        return derived

    def make_searcher(self) -> Searcher:
        """The searcher ``config`` asks for: one search loop, with a
        worker pool behind it when ``workers > 1``."""
        discoverer = None
        if self.config.use_symbolic_execution:
            discoverer = ConcolicEngine()
        return (ParallelSearcher if self.config.workers > 1 else Searcher)(
            self.system_factory, self.properties, self.config,
            strategy=make_strategy(self.config, self.app_factory(),
                                   self.is_same_flow),
            discoverer=discoverer, scenario_spec=self.spec,
        )

    def __repr__(self):
        return f"Scenario({self.name})"


def run(scenario: Scenario) -> SearchStats:
    """Perform the state-space search and return violations + statistics."""
    return scenario.make_searcher().run()


def resume(checkpoint_path, scenario: Scenario | None = None,
           **config_overrides):
    """Reconstruct a checkpointed search mid-flight and continue it.

    Loads the newest checkpoint under ``checkpoint_path`` that is valid
    and :func:`resumable` (others fall back to the previous good one)
    and runs the search to completion, under the scenario that call
    returns, from the checkpointed explored set, frontier, and
    statistics.  The explored state space of checkpoint + resumed leg is
    bit-identical to an uninterrupted run, on any transport.

    ``config_overrides`` replace fields of the checkpointed config —
    engine knobs and budgets only (``workers``, ``transport``,
    ``checkpoint_*``, ``store*``, ``max_transitions``…); a model or
    hashing knob (``strategy``, the PKT-SEQ bounds, ``state_matching``,
    ``search_order``, ``seed``…) would change what the stored digests
    *mean* and must not be overridden.  The resumed run checkpoints
    into ``checkpoint_path`` — never into the directory the original run
    named — unless ``checkpoint_dir`` is overridden (None: no further
    checkpoints).

    Returns ``(scenario, stats)``.
    """
    from repro.mc import store as store_mod

    rebuilt = {}

    def accept(checkpoint):
        rebuilt[checkpoint.path] = resumable(checkpoint, scenario)

    checkpoint = store_mod.load_latest_checkpoint(checkpoint_path, accept)
    scenario = rebuilt[checkpoint.path].with_config(
        checkpoint.config,
        **{"checkpoint_dir": str(checkpoint_path), **config_overrides})
    searcher = scenario.make_searcher()
    searcher._resume = checkpoint
    return scenario, searcher.run()


def resumable(checkpoint, scenario: Scenario | None = None) -> Scenario:
    """The scenario a validated ``checkpoint`` resumes under: ``scenario``
    if given (a hand-built scenario has no registry spec), else the one
    its :class:`~repro.mc.wire.ScenarioSpec` rebuilds.  Raises
    :class:`~repro.mc.store.CheckpointError` when there is none (a
    hand-built scenario's checkpoint) or when its digests are foreign to
    it: a pickled ``hash_counters`` that the app does not derive means
    they hashed other switch state.  ``nice resume`` and the ``nice
    checkpoints`` inspector both ask this."""
    from repro.mc.store import CheckpointError

    if scenario is None:
        if checkpoint.spec is None:
            raise CheckpointError(
                f"{checkpoint.path.name}: carries no scenario spec "
                f"(hand-built scenario); pass the scenario to "
                f"nice.resume() explicitly")
        scenario = checkpoint.spec.build()
    stale = vars(checkpoint.config).get("hash_counters")
    if stale not in (None, observes_counters(scenario.app_factory())):
        raise CheckpointError(
            f"{checkpoint.path.name}: written with hash_counters={stale!r},"
            f" which this scenario's app does not derive; not resumable")
    return scenario


def replay(scenario: Scenario, trace, expected_hash: str | None = None):
    """Deterministically reproduce a violation trace (Section 6)."""
    from repro.mc.replay import replay_trace

    return replay_trace(
        scenario.system_factory, trace,
        strategy=make_strategy(scenario.config, scenario.app_factory(),
                               scenario.is_same_flow),
        expected_hash=expected_hash,
    )


def random_walk(scenario: Scenario, steps: int = 100,
                seed: int = 0) -> SearchStats:
    """Random-walk mode (Section 1.3: "random walks on system states")."""
    return run(scenario.with_config(search_order="random", seed=seed,
                                    max_transitions=steps,
                                    stop_at_first_violation=False))
