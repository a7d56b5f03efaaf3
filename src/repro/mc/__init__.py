"""Explicit-state model checking of the whole OpenFlow system (Section 2).

The model checker composes the controller program, the simplified switches,
and the end hosts into one :class:`~repro.mc.system.System`, explores its
transition graph with the Figure 5 search loop, matches states via canonical
serialization + hashing (Section 6), and applies the OpenFlow-specific
search strategies of Section 4.
"""

from repro.mc.canonical import canonicalize
from repro.mc.search import Searcher, SearchStats, Violation
from repro.mc.strategies import make_strategy
from repro.mc.system import System
from repro.mc.transitions import Transition

__all__ = [
    "SearchStats",
    "Searcher",
    "System",
    "Transition",
    "Violation",
    "canonicalize",
    "make_strategy",
]
