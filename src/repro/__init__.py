"""NICE — No bugs In Controller Execution.

A from-scratch reproduction of *A NICE Way to Test OpenFlow Applications*
(Canini, Venzano, Perešíni, Kostić, Rexford — NSDI 2012): a model checker
plus concolic-execution engine that systematically tests unmodified OpenFlow
controller programs against network-wide correctness properties.

Quick start::

    from repro import nice, scenarios

    scenario = scenarios.pyswitch_direct_path()
    result = nice.run(scenario)
    for violation in result.violations:
        print(violation.property_name, violation.message)

See DESIGN.md for the architecture and EXPERIMENTS.md for the reproduction
of every table and figure in the paper's evaluation.
"""

from repro.config import NiceConfig
from repro.mc.search import Searcher, SearchStats, Violation
from repro.mc.system import System
from repro.nice import Scenario, random_walk, replay, run

__version__ = "1.0.0"

__all__ = [
    "NiceConfig",
    "Scenario",
    "SearchStats",
    "Searcher",
    "System",
    "Violation",
    "random_walk",
    "replay",
    "run",
    "__version__",
]
