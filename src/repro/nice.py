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

    ``spec`` (set by the ``@registered`` builders in ``repro/scenarios.py``)
    is the scenario's portable identity — a
    :class:`~repro.mc.wire.ScenarioSpec` that spawn/socket workers use to
    rebuild the initial :class:`System` by registry name.  Hand-built
    scenarios have ``spec=None`` and can still search in parallel through
    the ``fork`` transport, which inherits the factories.
    """

    def __init__(self, topo, app_factory, hosts_factory, properties,
                 config: NiceConfig | None = None, name: str = "scenario",
                 spec=None):
        self.topo = topo
        self.app_factory = app_factory
        self.hosts_factory = hosts_factory
        self.properties = properties
        self.config = config or NiceConfig()
        self.name = name
        self.spec = spec

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
                           self.properties, config, name=self.name)
        if self.spec is not None:
            derived.spec = dataclasses.replace(self.spec, config=config)
        return derived

    def make_searcher(self) -> Searcher:
        """The searcher ``config`` asks for: one search loop, with a
        worker pool behind it when ``workers > 1``."""
        discoverer = None
        if self.config.use_symbolic_execution:
            discoverer = ConcolicEngine(max_paths=self.config.max_paths)
        return (ParallelSearcher if self.config.workers > 1 else Searcher)(
            self.system_factory, self.properties, self.config,
            strategy=make_strategy(self.config, self.app_factory()),
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

    Loads the newest *valid* checkpoint under ``checkpoint_path`` (torn
    snapshots fall back to the previous good one), rebuilds the scenario
    from its stored :class:`~repro.mc.wire.ScenarioSpec` — or reuses a
    caller-provided ``scenario`` for hand-built scenarios that have no
    registry spec — and runs the search to completion from the
    checkpointed explored set, frontier, and statistics.  The explored
    state space of checkpoint + resumed leg is bit-identical to an
    uninterrupted run, on any transport.

    ``config_overrides`` replace fields of the checkpointed config —
    engine knobs only (``workers``, ``transport``, ``checkpoint_*``,
    ``store*``…); overriding model or hashing knobs would change what
    the stored digests *mean* and is not supported.

    Returns ``(scenario, stats)``.
    """
    from repro.mc import store as store_mod

    checkpoint = store_mod.load_latest_checkpoint(checkpoint_path)
    if scenario is None:
        if checkpoint.spec is None:
            raise store_mod.CheckpointError(
                f"the checkpoint under {checkpoint_path} carries no "
                f"scenario spec (hand-built scenario); pass the scenario "
                f"to nice.resume() explicitly")
        scenario = checkpoint.spec.build()
    scenario = scenario.with_config(checkpoint.config, **config_overrides)
    searcher = scenario.make_searcher()
    searcher._resume = checkpoint
    return scenario, searcher.run()


def replay(scenario: Scenario, trace, expected_hash: str | None = None):
    """Deterministically reproduce a violation trace (Section 6)."""
    from repro.mc.replay import replay_trace

    return replay_trace(
        scenario.system_factory, trace,
        strategy=make_strategy(scenario.config, scenario.app_factory()),
        expected_hash=expected_hash,
    )


def random_walk(scenario: Scenario, steps: int = 100,
                seed: int = 0) -> SearchStats:
    """Random-walk mode (Section 1.3: "random walks on system states")."""
    return run(scenario.with_config(search_order="random", seed=seed,
                                    max_transitions=steps,
                                    stop_at_first_violation=False))
