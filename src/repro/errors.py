"""Exception hierarchy for the NICE reproduction.

Every exception raised on purpose by this library derives from
:class:`NiceError`, so callers can catch library failures without also
swallowing genuine programming errors.
"""

from __future__ import annotations


class NiceError(Exception):
    """Base class for all errors raised by this library."""


class TopologyError(NiceError):
    """Raised for malformed topologies (unknown nodes, duplicate ports...)."""


class SwitchError(NiceError):
    """Raised by the switch model for invalid OpenFlow operations."""


class ChannelError(NiceError):
    """Raised for invalid channel operations (e.g. dequeue from empty)."""


class ControllerError(NiceError):
    """Raised by the controller runtime, e.g. an API call on an unknown switch."""


class TransitionError(NiceError):
    """Raised when a transition descriptor cannot be executed in a state."""


class SolverError(NiceError):
    """Raised when the constraint solver is given constraints it cannot decide."""


class SymbolicError(NiceError):
    """Raised for unsupported operations on symbolic values."""


class ReplayError(NiceError):
    """Raised when a recorded trace fails to replay deterministically."""


class PropertyViolation(NiceError):
    """Raised (internally) when a correctness property detects a violation.

    The search loop converts these into :class:`repro.mc.search.Violation`
    records carrying the trace that reproduces the failure; user code normally
    never sees this exception escape.
    """

    def __init__(self, property_name: str, message: str):
        super().__init__(f"{property_name}: {message}")
        self.property_name = property_name
        self.message = message
