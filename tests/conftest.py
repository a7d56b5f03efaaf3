"""Shared test configuration: a deterministic hypothesis profile, and
the one-node-task fixture of the fault suites.

Model-checking steps inside property-based tests have variable latency
(cloning and hashing whole systems), so per-example deadlines are disabled;
derandomization keeps CI runs reproducible.
"""

import pytest
from hypothesis import HealthCheck, settings

import fault_helpers

settings.register_profile(
    "nice",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("nice")


@pytest.fixture
def small_tasks():
    """One node per worker task (:func:`fault_helpers.small_tasks`) for
    the whole test — in a patch context of its own, so a test's
    ``monkeypatch.undo()`` between two legs leaves it in place."""
    with pytest.MonkeyPatch.context() as patch:
        fault_helpers.small_tasks(patch.setattr)
        yield
