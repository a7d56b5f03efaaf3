"""The scheduler's lifecycle edges under schedules real processes cannot
hit on purpose (``mc/scheduler.py``, "Two records"; DESIGN.md, "Fault
tolerance and elasticity").

The real ``_Scheduler`` runs ``ping_experiment(pings=2)`` to exhaustion
over :class:`scripted_transport.ScriptedTransport`: in-process workers,
virtual time, and a ``hypothesis``-generated tape of deaths (result
withheld, stale or delivered first; noticed once or twice), deaths of
workers never enrolled, submits that find their worker dead, stalls only
a task deadline ends, joins, workers that could not build their runtime
and replacements that never join.  Oracle: the state space and verdicts
equal serial and the frontier drains — or, once the pool is empty with
no replacement on its way, a clean ``TransportError`` — never a master
blocked for ever; no lifecycle assertion fires, and after every message
the two tables agree — every task row names a live worker and the loads
add up to the rows.  The mutation demo runs the
same property with the requeue in ``_retire`` patched out and must fail.

Hang detection is the task deadline alone; it is pinned in virtual time
— no test here sleeps — with a mutation demo per way a deadline kill can
go wrong.  A worker that fails to start, and a respawn seat forfeit on
its own deadline, are pinned at the bottom.
"""

from __future__ import annotations

import inspect
import textwrap
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from contract import counters, requires_fork, violated_properties
from fault_helpers import install, small_tasks
from repro import nice, scenarios
from repro.mc import scheduler as scheduler_mod
from repro.mc.scheduler import _Scheduler, _Task
from repro.mc.transport import TransportError
from repro.mc.wire import TaskResult, WorkerGone
from repro.scenarios import with_config
from scripted_transport import (
    FIRST,
    LATE,
    WITHHELD,
    Blocked,
    FailsToStart,
    Join,
    Kill,
    NeverJoins,
    ScriptedTransport,
    Stall,
    SubmitLost,
    UnknownGone,
    enrolled_scheduler,
)

SCENARIO = with_config(scenarios.ping_experiment(pings=2),
                       stop_at_first_violation=False)


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
                 one_node_tasks=False, seen=None, retries=None, **knobs):
    """One search over a scripted pool in its virtual time, the tables
    checked after every message; returns ``(stats, transport,
    scheduler)``, which ``seen`` also holds should the run raise.
    ``retries`` pins ``_Scheduler.MAX_TASK_RETRIES``."""
    seen = {} if seen is None else seen
    handle = _Scheduler._handle

    def wrap(real):
        transport = seen["transport"] = ScriptedTransport(
            real.workers, tape, respawn, async_respawn)
        patch.setattr(_Scheduler, "clock", staticmethod(transport.clock))
        return transport

    def checked_handle(scheduler, message):
        seen["scheduler"] = scheduler
        handle(scheduler, message)
        assert_tables_agree(scheduler)

    with pytest.MonkeyPatch.context() as patch:
        install(patch, wrap)
        patch.setattr(_Scheduler, "_handle", checked_handle)
        if one_node_tasks:
            small_tasks(patch.setattr)
        if retries is not None:
            patch.setattr(_Scheduler, "MAX_TASK_RETRIES", retries)
        stats = nice.run(with_config(SCENARIO, workers=workers, **knobs))
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
              notices=st.integers(1, 2)),
    st.builds(Stall, after=AFTER, victim=st.integers(0, 3)),
    st.builds(SubmitLost, after=AFTER),
    st.builds(UnknownGone, after=AFTER),
    st.builds(Join, after=AFTER),
    st.builds(FailsToStart, after=AFTER, victim=st.integers(0, 3)),
    st.builds(NeverJoins, after=AFTER),
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
        seen = {}
        try:
            # Far above any tape's death count: the quarantine sandbox is
            # a real process (its one scripted case is below).
            stats, _, scheduler = run_scripted(
                tape, workers, respawn, async_respawn, one_node_tasks,
                seen, retries=100, search_order=order)
        except TransportError:
            # Only a pool emptied for good may end the run, and only a
            # start-up failure or a lost replacement can empty it.
            scheduler = seen["scheduler"]
            assert not scheduler._alive() and not scheduler._respawn_seats
            assert any(isinstance(event, (FailsToStart, NeverJoins))
                       for event in seen["transport"].played)
            return
        assert_matches(stats, serial, scheduler)

    return run


def test_generated_schedules_match_serial(serial):
    generated_schedules(serial, 200)()


def test_a_retire_that_skips_the_requeue_is_caught(serial, monkeypatch):
    """The mutation demo: with in-flight groups dropped instead of
    requeued when their worker retires, the property above fails (found,
    not shrunk: a minimal tape costs a minute of reruns)."""
    retire = _Scheduler._retire

    def retire_without_requeue(scheduler, worker_id, charge=True):
        scheduler._push = lambda owner, group, handle=None: None
        try:
            return retire(scheduler, worker_id, charge)
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
        [Kill(5, 0, results, notices=2)], one_node_tasks=True)
    assert transport.played
    assert_matches(stats, serial, scheduler)
    assert stats.worker_failures == 1  # the second notice is a no-op
    assert not scheduler._workers[0].alive
    # LATE: the retired worker's results, delivered after its death
    # notice, are stale — dropped, and no row is made for them.
    assert bool(transport.late) == (results == LATE)
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
    """``MAX_TASK_RETRIES`` 0: the first death a group is in flight for
    sends it to the (real, forked) sandbox, whose result merges."""
    stats, _, scheduler = run_scripted(
        [Kill(5, 0)], one_node_tasks=True, retries=0)
    assert_matches(stats, serial, scheduler)
    assert stats.tasks_quarantined >= 1 and not stats.quarantined_tasks
    assert "merging its result" in capfd.readouterr().err


# ----------------------------------------------------------------------
# Hang detection: the task deadline, in virtual time
# ----------------------------------------------------------------------

def test_a_stalled_worker_is_killed_at_the_pinned_deadline(serial):
    """Worker 0 stops answering after the 5th submit, its channel open:
    only a task deadline can find it.  When ``task_deadline`` virtual
    seconds have passed it is declared hung, killed once and retired
    once — the death notice that follows the kill is a no-op — and the
    search ends as serial does."""
    stats, transport, scheduler = run_scripted(
        [Stall(5, 0)], one_node_tasks=True, task_deadline=5.0)
    assert transport.played == [Stall(5, 0)]
    assert transport.killed == [(0, 5.0)]
    assert stats.workers_hung == stats.deadline_kills == 1
    assert stats.worker_failures == 1
    assert not scheduler._workers[0].alive
    assert_matches(stats, serial, scheduler)


def test_task_deadline_zero_never_kills_a_stalled_worker():
    """``task_deadline=0`` arms no deadline: the master waits on the
    stalled worker for ever — a ``recv`` with no timeout, which the
    scripted pool reports instead of blocking — and kills nobody."""
    seen = {}
    with pytest.raises(Blocked, match="for ever"):
        run_scripted([Stall(5, 0)], one_node_tasks=True, task_deadline=0,
                     seen=seen)
    transport, scheduler = seen["transport"], seen["scheduler"]
    assert transport.played == [Stall(5, 0)] and transport.killed == []
    assert scheduler.stats.workers_hung == 0
    assert scheduler._workers[0].alive and scheduler._workers[0].load
    assert scheduler._recv_timeout() is None


def mutant(method, old: str, new: str):
    """``method`` of ``_Scheduler`` recompiled with ``old`` (found once in
    its source) replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(method))
    assert source.count(old) == 1, old
    compiled = {}
    exec(source.replace(old, new), vars(scheduler_mod), compiled)
    return compiled[method.__name__]


@pytest.mark.parametrize("method,old,new", [
    # The death notice that follows a deadline kill retires the worker a
    # second time.
    pytest.param("_on_worker_gone", "not known.alive", "False",
                 id="retired-twice"),
    # A missed deadline never condemns the worker: it is neither killed
    # nor retired, and the master waits on it for ever.
    pytest.param("_check_deadlines",
                 "hung.setdefault(task.worker, (task_id, task))", "pass",
                 id="never-retired"),
])
def test_a_deadline_bug_is_caught(method, old, new, serial, monkeypatch):
    """The mutation demo of the two tests above, with no sleep."""
    monkeypatch.setattr(_Scheduler, method,
                        mutant(getattr(_Scheduler, method), old, new))
    with pytest.raises(AssertionError):
        test_a_stalled_worker_is_killed_at_the_pinned_deadline(serial)


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

def test_a_worker_that_fails_to_start_is_not_replaced():
    """Both workers report they could not build their runtime.  Neither
    is replaced — a replacement would fail the same way — and the groups
    they held are requeued uncharged: with ``MAX_TASK_RETRIES`` 0 a
    charged group would be quarantined at once.  The empty pool ends
    the run with the workers' traceback, not with an exhausted search
    that explored nothing."""
    seen = {}
    with pytest.raises(TransportError,
                       match="failed to start:\nTraceback(.|\n)*scripted"):
        run_scripted([FailsToStart(3, 0), FailsToStart(3, 1)],
                     respawn=True, retries=0, seen=seen)
    transport, scheduler = seen["transport"], seen["scheduler"]
    assert transport.played == [FailsToStart(3, 0), FailsToStart(3, 1)]
    stats = scheduler.stats
    assert stats.worker_failures == 2 and stats.workers_respawned == 0
    assert not scheduler._poison and stats.tasks_quarantined == 0
    assert not scheduler._alive() and not scheduler._respawn_seats


def test_a_respawn_seat_is_forfeit_on_its_own_deadline():
    """Deaths at t=0 and t=50, replacements that never join: the first
    seat is forfeit at t=60 — not 60 s after the *latest* death — and
    the empty pool, its last seat forfeit at t=110, ends the run then."""
    clock = SimpleNamespace(now=0.0)
    scheduler = enrolled_scheduler(with_config(SCENARIO, workers=2))
    scheduler.clock = lambda: clock.now
    scheduler.transport.spawn_worker = lambda: None  # joins "later"
    scheduler._handle(WorkerGone(0, "test"))
    clock.now = 50.0
    scheduler._handle(WorkerGone(1, "test"))
    clock.now = 59.0
    scheduler._check_deadlines()  # both seats still hold
    assert scheduler._recv_timeout() == pytest.approx(1.0)
    clock.now = 60.0
    scheduler._check_deadlines()
    assert len(scheduler._respawn_seats) == 1
    assert scheduler._recv_timeout() == pytest.approx(50.0)
    clock.now = 110.0
    with pytest.raises(TransportError, match="1 respawned replacement"):
        scheduler._check_deadlines()
