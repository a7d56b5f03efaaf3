"""Fault tolerance and elasticity of the parallel search (ISSUE 4).

Acceptance contract: killing any single worker mid-search — on the fork,
spawn, and socket transports — yields a bit-identical explored state
space and identical property verdicts vs. the serial engine; two-death
schedules and elastic mid-search joins preserve the same equality; and
the ``min_workers`` / ``max_worker_failures`` policy turns unsurvivable
churn into a clean :class:`~repro.mc.transport.TransportError` instead of
a hang or a half-merged result.

Deaths are injected through :class:`fault_helpers.ChaosTransport`
(SIGKILL / connection teardown via the transport's own ``kill_worker``
hook), so every test drives the production detection path: channel EOF or
socket reset -> ``WorkerGone`` -> scheduler requeue.  The fast tier uses
the small ``ping`` scenario; the registry-wide chaos matrix is ``slow``
(nightly).
"""

from __future__ import annotations

import pytest

from contract import counters, requires_fork, violated_properties
from fault_helpers import (ChaosTransport, ElasticJoiner, StallTransport,
                           install)
from repro import nice, scenarios
from repro.config import ConfigError
from repro.mc.transport import TransportError
from repro.scenarios import with_config

#: Small static tasks (one node each, no adaptive growth) so a chaos
#: schedule keyed on submission counts has many deterministic kill points
#: and a death always strands requeueable work.
pytestmark = pytest.mark.usefixtures("small_tasks")

CHAOS_KNOBS = dict(stop_at_first_violation=False)

ENGINES = [
    pytest.param(dict(start_method="fork"), "local-fork",
                 marks=requires_fork, id="fork"),
    pytest.param(dict(start_method="spawn"), "local-spawn", id="spawn"),
    pytest.param(dict(transport="socket"), "socket", id="socket"),
]


def exhaustive_ping(**overrides):
    return with_config(scenarios.ping_experiment(pings=2),
                       **{**CHAOS_KNOBS, **overrides})


def run_with_chaos(monkeypatch, scenario, schedule):
    """Run ``scenario`` with a kill schedule; returns (stats, chaos)."""
    wrappers = []

    def wrap(transport):
        chaos = ChaosTransport(transport, schedule)
        wrappers.append(chaos)
        return chaos

    install(monkeypatch, wrap)
    stats = nice.run(scenario)
    assert wrappers, "parallel transport was never created"
    return stats, wrappers[0]


@pytest.fixture(scope="module")
def serial_ping():
    return nice.run(exhaustive_ping())


# ----------------------------------------------------------------------
# Acceptance: worker death never changes the explored state space
# ----------------------------------------------------------------------

class TestSingleDeath:
    @pytest.mark.parametrize("overrides,engine", ENGINES)
    def test_bit_identical_state_space(self, overrides, engine,
                                       serial_ping, monkeypatch):
        stats, chaos = run_with_chaos(
            monkeypatch, exhaustive_ping(workers=2, **overrides), {5: 0})
        assert chaos.killed == [0]
        assert stats.engine == engine
        assert counters(stats) == counters(serial_ping)
        assert violated_properties(stats) == violated_properties(serial_ping)
        assert stats.worker_failures == 1
        assert stats.tasks_retried >= 1
        assert stats.groups_reassigned >= stats.tasks_retried
        # The dead worker merged nothing after the kill; the survivor
        # carried the rest of the run.
        assert stats.worker_tasks[1] > stats.worker_tasks[0]


class TestTwoDeaths:
    @pytest.mark.parametrize("overrides,engine", ENGINES)
    def test_bit_identical_state_space(self, overrides, engine,
                                       serial_ping, monkeypatch):
        stats, chaos = run_with_chaos(
            monkeypatch, exhaustive_ping(workers=3, **overrides),
            {5: 0, 11: 1})
        assert chaos.killed == [0, 1]
        assert stats.engine == engine
        assert counters(stats) == counters(serial_ping)
        assert violated_properties(stats) == violated_properties(serial_ping)
        assert stats.worker_failures == 2
        assert stats.worker_tasks[2] > 0


def run_with_stall(monkeypatch, scenario, schedule):
    """Run ``scenario`` with a SIGSTOP schedule; returns (stats, stall)."""
    wrappers = []

    def wrap(transport):
        stall = StallTransport(transport, schedule)
        wrappers.append(stall)
        return stall

    install(monkeypatch, wrap)
    stats = nice.run(scenario)
    assert wrappers, "parallel transport was never created"
    return stats, wrappers[0]


#: Containment knobs for the hang legs: tight deadline, fast beats, and
#: the autoscaler keeping the pool at strength after the kill.
HANG_KNOBS = dict(respawn_workers=True, task_deadline=2.0,
                  heartbeat_interval=0.2)


# ----------------------------------------------------------------------
# Hang detection: a wedged worker is deadline-killed, results exact
# ----------------------------------------------------------------------

class TestHungWorker:
    @pytest.mark.parametrize("overrides,engine", ENGINES)
    def test_stalled_worker_is_deadline_killed(self, overrides, engine,
                                               serial_ping, monkeypatch):
        """SIGSTOP — not SIGKILL — a worker mid-search: its channel stays
        open, so only the task-deadline machinery can notice.  The master
        must declare it hung, kill it, requeue its work, and finish
        bit-identical to serial."""
        stats, stall = run_with_stall(
            monkeypatch,
            exhaustive_ping(workers=2, **HANG_KNOBS, **overrides), {5: 0})
        assert stall.stalled == [0]
        assert stats.engine == engine
        assert counters(stats) == counters(serial_ping)
        assert violated_properties(stats) == violated_properties(serial_ping)
        assert stats.workers_hung == 1
        assert stats.deadline_kills == 1
        assert stats.worker_failures == 1
        assert stats.tasks_retried >= 1


# ----------------------------------------------------------------------
# Elastic pools: socket workers joining a live search
# ----------------------------------------------------------------------

class TestElasticJoin:
    def test_mid_search_joiner_receives_tasks_and_preserves_results(
            self, serial_ping, monkeypatch):
        wrappers = []

        def wrap(transport):
            joiner = ElasticJoiner(transport, after=3)
            wrappers.append(joiner)
            return joiner

        install(monkeypatch, wrap)
        stats = nice.run(exhaustive_ping(workers=2, transport="socket"))
        assert counters(stats) == counters(serial_ping)
        assert violated_properties(stats) == violated_properties(serial_ping)
        assert stats.elastic_joins == 1
        assert stats.workers == 3
        joined = set(stats.worker_tasks) - wrappers[0].initial_workers
        assert len(joined) == 1
        # The acceptance bar: the joiner measurably received work.
        assert all(stats.worker_tasks[w] > 0 for w in joined)

    def test_join_then_death_still_exact(self, serial_ping, monkeypatch):
        """A joiner replacing a killed worker: churn in both directions."""
        wrappers = []

        def wrap(transport):
            # Join after the 3rd submission, kill initial worker 0 after
            # the 20th (by then the joiner is live and can absorb it).
            joiner = ElasticJoiner(transport, after=3)
            chaos = ChaosTransport(joiner, {20: 0})
            wrappers.append((joiner, chaos))
            return chaos

        install(monkeypatch, wrap)
        stats = nice.run(exhaustive_ping(workers=2, transport="socket"))
        assert counters(stats) == counters(serial_ping)
        assert stats.elastic_joins == 1
        assert stats.worker_failures == 1


# ----------------------------------------------------------------------
# Autoscaler: a dead worker is replaced (``respawn_workers``)
# ----------------------------------------------------------------------

class TestWorkerRespawn:
    @pytest.mark.parametrize("overrides,engine", ENGINES)
    def test_kill_then_respawn_preserves_results(self, overrides, engine,
                                                 serial_ping, monkeypatch):
        """Kill a worker mid-search with respawn on: the pool recovers,
        the replacement measurably works, and the explored state space
        stays bit-identical to serial."""
        stats, chaos = run_with_chaos(
            monkeypatch,
            exhaustive_ping(workers=2, respawn_workers=True, **overrides),
            {5: 0})
        assert chaos.killed == [0]
        assert counters(stats) == counters(serial_ping)
        assert violated_properties(stats) == violated_properties(serial_ping)
        assert stats.worker_failures == 1
        assert stats.workers_respawned == 1
        # Local pools enroll the replacement synchronously under a fresh
        # id; socket replacements join through the elastic accept path.
        if engine.startswith("local"):
            assert stats.worker_tasks.get(2, 0) > 0
        else:
            assert stats.elastic_joins >= 1

    @requires_fork
    def test_respawn_satisfies_min_workers_floor(self, serial_ping,
                                                 monkeypatch):
        """With respawn on, a death no longer violates min_workers=2 —
        the same schedule that cleanly aborts without respawn (see
        TestFailurePolicy) now completes exactly."""
        stats, _ = run_with_chaos(
            monkeypatch,
            exhaustive_ping(workers=2, min_workers=2, respawn_workers=True),
            {5: 0})
        assert counters(stats) == counters(serial_ping)
        assert stats.workers_respawned == 1


# ----------------------------------------------------------------------
# Policy: when churn is unsurvivable, fail clean
# ----------------------------------------------------------------------

class TestFailurePolicy:
    @requires_fork
    def test_all_workers_dead_raises_cleanly(self, monkeypatch):
        with pytest.raises(TransportError, match="below min_workers"):
            run_with_chaos(monkeypatch, exhaustive_ping(workers=2),
                           {5: 0, 8: 1})

    @requires_fork
    def test_max_worker_failures_zero_aborts_on_first_death(
            self, monkeypatch):
        with pytest.raises(TransportError, match="max_worker_failures"):
            run_with_chaos(
                monkeypatch,
                exhaustive_ping(workers=2, max_worker_failures=0), {5: 0})

    @requires_fork
    def test_min_workers_floor_is_enforced(self, monkeypatch):
        with pytest.raises(TransportError, match="below min_workers=2"):
            run_with_chaos(
                monkeypatch,
                exhaustive_ping(workers=2, min_workers=2), {5: 0})

    def test_min_workers_above_pool_rejected_up_front(self):
        """A floor the pool can never satisfy is a bad config, not
        something only noticed when a worker happens to die."""
        with pytest.raises(ConfigError, match="exceeds the configured"):
            exhaustive_ping(workers=2, min_workers=3)

    @requires_fork
    def test_survivable_death_does_not_raise(self, serial_ping,
                                             monkeypatch):
        """max_worker_failures=1 tolerates exactly one death."""
        stats, _ = run_with_chaos(
            monkeypatch,
            exhaustive_ping(workers=2, max_worker_failures=1), {5: 0})
        assert counters(stats) == counters(serial_ping)


# ----------------------------------------------------------------------
# Registry-wide chaos matrix (nightly): every scenario, 1 and 2 deaths
# ----------------------------------------------------------------------

#: Tight PKT-SEQ bounds keep every registered scenario's exhaustive space
#: small enough for a chaos matrix.  pyswitch-loop is excluded: its
#: forwarding loop makes the exhaustive space unbounded (that is BUG-III),
#: so it gets a first-violation chaos test instead.
BOUNDED_SCENARIOS = sorted(set(scenarios.REGISTRY) - {"pyswitch-loop"})

SCHEDULES = [pytest.param(2, {4: 0}, id="1-death"),
             pytest.param(3, {4: 0, 8: 1}, id="2-deaths")]


@pytest.mark.slow
@requires_fork
class TestRegisteredScenarioChaosMatrix:
    @pytest.mark.parametrize("name", BOUNDED_SCENARIOS)
    @pytest.mark.parametrize("workers,schedule", SCHEDULES)
    def test_bit_identical_under_deaths(self, name, workers, schedule,
                                        monkeypatch):
        tight = dict(CHAOS_KNOBS, max_pkt_sequence=1, max_outstanding=1)
        serial = nice.run(with_config(scenarios.REGISTRY[name](), **tight))
        chaotic, _ = run_with_chaos(
            monkeypatch,
            with_config(scenarios.REGISTRY[name](), workers=workers,
                        **tight),
            schedule)
        assert counters(chaotic) == counters(serial), \
            f"scenario {name} diverged from serial under {schedule}"
        assert violated_properties(chaotic) == violated_properties(serial)

    @pytest.mark.parametrize("name", BOUNDED_SCENARIOS)
    def test_bit_identical_under_a_hang(self, name, monkeypatch):
        """The hang-schedule leg: wedge (SIGSTOP) a worker instead of
        killing it.  Scenarios too small to reach the stall point simply
        run unwedged — the equality assertion is the contract either way."""
        tight = dict(CHAOS_KNOBS, max_pkt_sequence=1, max_outstanding=1)
        serial = nice.run(with_config(scenarios.REGISTRY[name](), **tight))
        hung, stall = run_with_stall(
            monkeypatch,
            with_config(scenarios.REGISTRY[name](), workers=2,
                        **HANG_KNOBS, **tight),
            {4: 0})
        assert counters(hung) == counters(serial), \
            f"scenario {name} diverged from serial under a hang"
        assert violated_properties(hung) == violated_properties(serial)
        # A victim wedged while idle may never receive another task on a
        # tiny space; when it did hold work, the deadline must have fired.
        assert hung.workers_hung <= len(stall.stalled)
        assert hung.deadline_kills == hung.workers_hung

    def test_pyswitch_loop_first_violation_survives_a_death(
            self, monkeypatch):
        """The unbounded scenario: early-stop runs are approximate in
        their counters (documented), but the verdict must survive a
        worker death."""
        stats, _ = run_with_chaos(
            monkeypatch,
            with_config(scenarios.pyswitch_loop(), workers=2), {3: 0})
        assert stats.found_violation
        assert violated_properties(stats) == ["NoForwardingLoops"]
