"""The scheduler's lifecycle edges under schedules real processes cannot
hit on purpose (``mc/scheduler.py``, "Two records"; DESIGN.md, "Fault
tolerance and elasticity").

The real ``_Scheduler`` runs ``ping_experiment(pings=2)`` to exhaustion
over :class:`scripted_transport.ScriptedTransport`: in-process workers
and a ``hypothesis``-generated tape of deaths (result withheld, stale or
delivered first; noticed once or twice; a heartbeat after), deaths of
workers never enrolled, submits that find their worker dead, and joins.
Oracle: the state space and verdicts equal serial, the frontier drains,
no lifecycle assertion fires, and after every message the two tables
agree — every task row names a live worker and the loads add up to the
rows.  The mutation demo runs the same property with the requeue in
``_retire`` patched out and must fail.

Two regressions are pinned at the bottom: a respawn seat is forfeit on
its own deadline, and a retired worker's heartbeat leaves no state behind.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from contract import counters, requires_fork, violated_properties
from fault_helpers import install, small_tasks
from repro import nice, scenarios
from repro.mc import scheduler as scheduler_mod
from repro.mc.scheduler import _Scheduler, _Task
from repro.mc.transport import TransportError
from repro.mc.wire import Heartbeat, TaskResult, WorkerGone
from repro.scenarios import with_config
from scripted_transport import (
    FIRST,
    LATE,
    WITHHELD,
    Join,
    Kill,
    ScriptedTransport,
    SubmitLost,
    UnknownGone,
    enrolled_scheduler,
)

SCENARIO = with_config(scenarios.ping_experiment(pings=2),
                       stop_at_first_violation=False, heartbeat_interval=0)


@pytest.fixture(scope="module")
def serial():
    return nice.run(SCENARIO)


def assert_tables_agree(scheduler: _Scheduler) -> None:
    workers, tasks = scheduler._workers, scheduler._tasks
    assert sum(worker.load for worker in workers.values()) == len(tasks)
    for task_id, task in tasks.items():
        assert workers[task.worker].alive, (
            f"task {task_id} is in flight on retired worker {task.worker}")
    for worker_id, worker in workers.items():
        assert worker.alive or not worker.queue, (
            f"retired worker {worker_id} still owns queued groups")


def run_scripted(tape, workers=2, respawn=False, async_respawn=False,
                 one_node_tasks=False, **knobs):
    """One search over a scripted pool, the tables checked after every
    message; returns ``(stats, transport, scheduler)``."""
    seen = {}
    handle = _Scheduler._handle

    def wrap(real):
        seen["transport"] = ScriptedTransport(
            real.workers, tape, respawn, async_respawn)
        return seen["transport"]

    def checked_handle(scheduler, message):
        seen["scheduler"] = scheduler
        handle(scheduler, message)
        assert_tables_agree(scheduler)

    with pytest.MonkeyPatch.context() as patch:
        install(patch, wrap)
        patch.setattr(_Scheduler, "_handle", checked_handle)
        if one_node_tasks:
            small_tasks(patch.setattr)
        stats = nice.run(with_config(SCENARIO, workers=workers,
                                     respawn_workers=respawn, **knobs))
    return stats, seen["transport"], seen["scheduler"]


def assert_matches(stats, serial, scheduler) -> None:
    assert stats.engine == "scripted"
    assert stats.terminated == "exhausted"
    assert counters(stats) == counters(serial)
    assert violated_properties(stats) == violated_properties(serial)
    assert not scheduler.pending()
    assert_tables_agree(scheduler)


# ----------------------------------------------------------------------
# Generated schedules
# ----------------------------------------------------------------------

AFTER = st.integers(min_value=1, max_value=80)
EVENTS = st.one_of(
    st.builds(Kill, after=AFTER, victim=st.integers(0, 3),
              results=st.sampled_from([WITHHELD, LATE, FIRST]),
              notices=st.integers(1, 2), beat=st.booleans()),
    st.builds(SubmitLost, after=AFTER),
    st.builds(UnknownGone, after=AFTER),
    st.builds(Join, after=AFTER),
)


def generated_schedules(serial, examples: int, phases=tuple(Phase)):
    """The property, over ``examples`` generated tapes."""

    @settings(max_examples=examples, deadline=None, database=None,
              phases=phases, suppress_health_check=list(HealthCheck))
    @given(tape=st.lists(EVENTS, max_size=8),
           workers=st.integers(2, 3),
           respawn=st.booleans(), async_respawn=st.booleans(),
           one_node_tasks=st.booleans(),
           # bfs restores nearly every node by replay: twice the time.
           order=st.sampled_from(["dfs", "dfs", "dfs", "bfs"]))
    def run(tape, workers, respawn, async_respawn, one_node_tasks, order):
        # Far above any tape's death count: the quarantine sandbox is a
        # real process (its one scripted case is below).
        stats, _, scheduler = run_scripted(
            tape, workers, respawn, async_respawn, one_node_tasks,
            search_order=order, max_task_retries=100)
        assert_matches(stats, serial, scheduler)

    return run


def test_generated_schedules_match_serial(serial):
    generated_schedules(serial, 200)()


def test_a_retire_that_skips_the_requeue_is_caught(serial, monkeypatch):
    """The mutation demo: with in-flight groups dropped instead of
    requeued when their worker retires, the property above fails (found,
    not shrunk: a minimal tape costs a minute of reruns)."""
    retire = _Scheduler._retire

    def retire_without_requeue(scheduler, worker_id):
        scheduler._push = lambda owner, group, handle=None: None
        try:
            return retire(scheduler, worker_id)
        finally:
            del scheduler._push

    monkeypatch.setattr(_Scheduler, "_retire", retire_without_requeue)
    with pytest.raises(AssertionError):
        generated_schedules(serial, 100, phases=[Phase.generate])()


# ----------------------------------------------------------------------
# Each scripted edge once, by hand
# ----------------------------------------------------------------------

@pytest.mark.parametrize("results", [WITHHELD, LATE, FIRST])
def test_a_death_with_results_in_the_pipe(results, serial):
    stats, transport, scheduler = run_scripted(
        [Kill(5, 0, results, notices=2, beat=True)], one_node_tasks=True)
    assert transport.played
    assert_matches(stats, serial, scheduler)
    assert stats.worker_failures == 1  # the second notice is a no-op
    assert not scheduler._workers[0].alive
    # The retired worker's heartbeat, delivered after its death notice,
    # touched only its own row.
    assert set(scheduler._workers) == {0, 1}


def test_a_death_of_a_worker_never_enrolled_reaches_the_policy(serial):
    stats, transport, scheduler = run_scripted([UnknownGone(3)])
    assert transport.played == [UnknownGone(3)]
    assert_matches(stats, serial, scheduler)
    assert stats.worker_failures == 1
    ghost = scheduler._workers[10_001]
    assert not ghost.alive and not ghost.load and not ghost.queue
    with pytest.raises(TransportError, match="max_worker_failures=0"):
        run_scripted([UnknownGone(3)], max_worker_failures=0)


def test_a_submit_that_finds_its_worker_dead(serial):
    stats, transport, scheduler = run_scripted([SubmitLost(4)], workers=3)
    assert transport.played == [SubmitLost(4)]
    assert_matches(stats, serial, scheduler)
    # WorkerLost and the transport's own WorkerGone: one death.
    assert stats.worker_failures == 1 and stats.tasks_retried >= 1


@pytest.mark.parametrize("async_respawn", [False, True])
def test_joins_and_respawns_are_enrolled_once(async_respawn, serial):
    stats, transport, scheduler = run_scripted(
        [Join(2), Kill(6, 1), Kill(9, 0, LATE)], respawn=True,
        async_respawn=async_respawn, one_node_tasks=True)
    assert len(transport.played) == 3
    assert_matches(stats, serial, scheduler)
    assert stats.worker_failures == stats.workers_respawned == 2
    assert stats.elastic_joins == (3 if async_respawn else 1)
    assert len(scheduler._alive()) == 3 and not scheduler._respawn_seats


@requires_fork
def test_a_poisoned_group_is_merged_from_the_sandbox(serial, capfd):
    """``max_task_retries=0``: the first death a group is in flight for
    sends it to the (real, forked) sandbox, whose result merges."""
    stats, _, scheduler = run_scripted(
        [Kill(5, 0)], one_node_tasks=True, max_task_retries=0)
    assert_matches(stats, serial, scheduler)
    assert stats.tasks_quarantined >= 1 and not stats.quarantined_tasks
    assert "merging its result" in capfd.readouterr().err


def test_lifecycle_assertions_name_the_illegal_edge():
    scheduler = enrolled_scheduler(SCENARIO)
    with pytest.raises(AssertionError, match="enrolled twice"):
        scheduler._enroll(1)
    scheduler._on_worker_gone(1, "test")
    with pytest.raises(AssertionError, match="enrolled twice"):
        scheduler._enroll(1)  # a dead id is never revived
    with pytest.raises(AssertionError, match="retired twice"):
        scheduler._retire(1)
    scheduler._push(None, ((), None))
    scheduler._pick_worker = lambda: 1
    with pytest.raises(AssertionError, match="dispatch to retired"):
        scheduler._dispatch()
    scheduler._tasks[7] = _Task(1, [((), None)], 0.0, 1, None)
    with pytest.raises(AssertionError, match="merged from retired"):
        scheduler._handle(TaskResult(7, 1, {}))


# ----------------------------------------------------------------------
# Pinned bugs
# ----------------------------------------------------------------------

def test_a_respawn_seat_is_forfeit_on_its_own_deadline(monkeypatch):
    """Deaths at t=0 and t=50, replacements that never join: the first
    seat stops counting toward ``min_workers`` at t=60 — not 60 s after
    the *latest* death — and the floor is re-applied then."""
    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(scheduler_mod, "time",
                        SimpleNamespace(monotonic=lambda: clock.now))
    scheduler = enrolled_scheduler(
        with_config(SCENARIO, workers=3, min_workers=3,
                    respawn_workers=True), live=(0, 1, 2))
    scheduler.transport.spawn_worker = lambda: None  # joins "later"
    scheduler._handle(WorkerGone(0, "test"))
    clock.now = 50.0
    scheduler._handle(WorkerGone(1, "test"))
    clock.now = 59.0
    scheduler._check_deadlines()  # both seats still hold the floor
    assert scheduler._recv_timeout() == pytest.approx(1.0)
    clock.now = 60.0
    with pytest.raises(TransportError, match="1 respawned replacement"):
        scheduler._check_deadlines()


def test_a_retired_workers_heartbeat_leaves_no_state_behind():
    scheduler = enrolled_scheduler(SCENARIO)
    scheduler._handle(WorkerGone(1, "test"))
    scheduler._handle(Heartbeat(1))
    scheduler._handle(Heartbeat(77))  # nobody we know
    assert set(scheduler._workers) == {0, 1}
    assert scheduler._workers[1].last_beat is None
