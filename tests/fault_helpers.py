"""Tests-only fault-injection wrappers for the parallel-search transports.

:class:`ChaosTransport` wraps a real transport and kills a scheduled
worker after the Nth task submission, through the transport's own
``kill_worker`` hook (SIGKILL for local pools and co-located socket
workers, connection teardown for remote ones).  The death then travels
the production path — channel EOF or reset -> ``WorkerGone`` ->
scheduler requeue — which is exactly what the chaos suite wants to
exercise; nothing here touches scheduler internals.

:class:`StallTransport` SIGSTOPs (wedges, not kills) a scheduled worker
instead: the channel stays open, no EOF fires, and only the scheduler's
task-deadline machinery can notice — the hang-detection counterpart of
:class:`ChaosTransport`.

:class:`ElasticJoiner` wraps a :class:`SocketTransport` and, after the
Nth submission, launches one extra ``nice worker`` aimed at the live
master; the wrapper's ``recv`` then holds every other message back until
the master's loop has admitted the joiner and its ``WorkerJoined`` has
been returned — making "a worker joins mid-search" deterministic instead
of a sleep-and-hope race, through the transport's public surface only.

All install via :func:`install`, which monkeypatches the scheduler's
``create_transport`` seam — as does the in-process
:class:`scripted_transport.ScriptedTransport`, which replaces the pool
instead of wrapping it.

:func:`small_tasks` is the suites' static-batch baseline: batching is the
master's policy and has no knob, so a suite that wants every task the
same size pins the scheduler's constants.  :func:`saturated_hint` pins
the workers' retention hint the same way, :func:`tiny_retention` the
one bound on kept Systems.
"""

from __future__ import annotations

import time
from collections import deque

from repro.mc import scheduler as scheduler_mod
from repro.mc.replay import Retention
from repro.mc.scheduler import _Scheduler
from repro.mc.transport import create_transport
from repro.mc.wire import WorkerJoined
from repro.mc.worker import WorkerRuntime


#: Seconds a launched socket worker gets to be admitted by the master.
JOIN_TIMEOUT = 30.0


def small_tasks(setattr=setattr, nodes: int = 1) -> None:
    """Pin every worker task to ``nodes`` nodes: with BATCH_NODES and
    MAX_BATCH_NODES both ``nodes``, neither the first task nor the fair
    share can move the budget.  One node (the default) sends each
    sibling group alone: a kill schedule keyed on submission counts has
    many deterministic kill points, a death always strands requeueable
    work, and poison attribution acts on exactly the poisoned group.
    Pass ``monkeypatch.setattr`` (the ``small_tasks`` fixture does); a
    process of its own (``_crash_main.py``) needs no undo."""
    setattr(_Scheduler, "BATCH_NODES", nodes)
    setattr(_Scheduler, "MAX_BATCH_NODES", nodes)


def saturated_hint(setattr=setattr) -> None:
    """Shrink the retention hint of every worker built from here on to
    8 bits.  Each child a worker keeps flips at least one of them, so it
    keeps 8 at most; past that handful nothing is retained and every
    handle misses.  The hint's size is a class constant, not a knob: the
    pin reaches a ``WorkerRuntime`` built in this process and fork
    workers (which inherit the class as patched), not spawned or socket
    workers, which import it afresh."""
    setattr(WorkerRuntime, "SEEN_BITS", 8)


def tiny_retention(setattr=setattr, size: int = 1) -> None:
    """Bound every retention built from here on — a serial search's and
    a worker's — to ``size`` kept Systems (``Retention.MAX_CACHE``); at 1
    it retains no child and evicts its replay cache near constantly.
    Like :func:`saturated_hint`, the pin reaches what is built in this
    process and fork workers, not spawned or socket workers."""
    setattr(Retention, "MAX_CACHE", size)


class _TransportWrapper:
    """Delegate everything to the wrapped transport, with a hook after
    each ``submit`` — and, once :meth:`_spawn_and_await_join` has asked
    for a socket worker, a ``recv`` that returns nothing else until that
    worker's ``WorkerJoined``."""

    def __init__(self, inner):
        self._inner = inner
        self._joins_awaited = 0
        self._held: deque = deque()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def submit(self, worker_id, task):
        self._inner.submit(worker_id, task)
        self._after_submit()

    def _after_submit(self):
        raise NotImplementedError

    def _spawn_and_await_join(self) -> None:
        self._inner.spawn_worker()
        self._joins_awaited += 1

    def recv(self, timeout=None):
        if not self._joins_awaited:
            if self._held:
                return self._held.popleft()
            return self._inner.recv(timeout)
        deadline = time.monotonic() + JOIN_TIMEOUT
        while True:
            message = self._inner.recv(
                timeout=max(0.0, deadline - time.monotonic()))
            if message is None:
                raise AssertionError(
                    f"elastic worker did not join within {JOIN_TIMEOUT:.0f}s")
            if isinstance(message, WorkerJoined):
                self._joins_awaited -= 1
                return message
            self._held.append(message)


class ChaosTransport(_TransportWrapper):
    """Kill worker K after the Nth successful task submission.

    ``schedule`` maps submission count -> victim worker id, e.g.
    ``{3: 0, 6: 1}`` kills worker 0 after the 3rd submit and worker 1
    after the 6th.
    """

    def __init__(self, inner, schedule: dict[int, int]):
        super().__init__(inner)
        self._schedule = dict(schedule)
        self._submitted = 0
        #: Victims actually killed, for test-side assertions.
        self.killed: list[int] = []

    def _after_submit(self):
        self._submitted += 1
        victim = self._schedule.pop(self._submitted, None)
        if victim is not None:
            self._inner.kill_worker(victim)
            self.killed.append(victim)

    def spawn_worker(self):
        """The replacement the scheduler asks for after a kill.  A local
        pool answers with the new id; a
        socket replacement joins in its own time, and a search as small
        as the chaos suite's can end first — so wait for it here, and
        "the replacement joined" is not a race against the search."""
        if self._inner.name != "socket":
            return self._inner.spawn_worker()
        self._spawn_and_await_join()
        return None


class StallTransport(_TransportWrapper):
    """SIGSTOP (wedge, don't kill) worker K after the Nth submission.

    A stopped process is the purest "hung worker": the OS keeps its channel
    open, so no EOF ever fires and only the task-deadline machinery can
    notice.  The victim is the exact failure shape the task deadline
    exists for, without involving any hostile model code.
    """

    def __init__(self, inner, schedule: dict[int, int]):
        super().__init__(inner)
        self._schedule = dict(schedule)
        self._submitted = 0
        #: Victims actually stopped, for test-side assertions.
        self.stalled: list[int] = []

    def _after_submit(self):
        import os
        import signal

        self._submitted += 1
        victim = self._schedule.pop(self._submitted, None)
        if victim is None:
            return
        pid = self._inner.worker_pid(victim)
        if pid is None:  # remote worker: cannot wedge, skip this leg
            return
        os.kill(pid, signal.SIGSTOP)
        self.stalled.append(victim)


class ElasticJoiner(_TransportWrapper):
    """Launch one extra socket worker after the Nth submission; nothing
    else is received until the master's loop has admitted it."""

    def __init__(self, inner, after: int):
        super().__init__(inner)
        self._after = after
        self._submitted = 0
        #: Worker ids present before the join, for test-side assertions.
        self.initial_workers: set[int] = set()

    def _after_submit(self):
        self._submitted += 1
        if self._submitted != self._after:
            return
        self.initial_workers = set(self._inner.worker_ids())
        self._spawn_and_await_join()


def install(monkeypatch, wrap):
    """Monkeypatch the scheduler's ``create_transport`` so every pool
    transport it builds is passed through ``wrap`` (e.g. ``lambda t:
    ChaosTransport(t, {3: 0})``).  A quarantine sandbox (asked for with
    ``limits``) is built as is: the fault schedules are the pool's."""
    def wrapped(config, spec, **sandbox):
        transport = create_transport(config, spec, **sandbox)
        return transport if transport is None or sandbox else wrap(transport)

    monkeypatch.setattr(scheduler_mod, "create_transport", wrapped)
