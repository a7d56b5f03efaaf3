"""In-process transports for driving the real ``_Scheduler`` without
processes, pipes or a clock (DESIGN.md, "Fault tolerance and elasticity").

:class:`InlineTransport` answers a task the moment it is submitted, so a
run is the scheduler's own decisions and nothing else.
:class:`ScriptedTransport` adds an event tape keyed by submit count: the
failure schedules real processes only hit by luck — a result that
outraces, trails or never follows its worker's death notice, a death
reported twice, a death of a worker nobody enrolled, a heartbeat from a
retired worker, a submit that finds its worker dead, a join mid-run — each
happen exactly where the tape says.  :func:`enrolled_scheduler` builds a
scheduler over an inline pool for tests that call its methods directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.mc import wire
from repro.mc.scheduler import _Scheduler
from repro.mc.transport import Transport, WorkerLost
from repro.mc.worker import WorkerRuntime, _serve


class InlineTransport(Transport):
    """Workers that live in this process and answer a message the moment
    it is submitted.  No process, pipe or clock takes part, so a run is
    the scheduler's own decisions — routing, packing, stealing — and
    nothing else: the same counters every time."""

    name = "inline"

    def start(self, searcher) -> None:
        self._searcher = searcher
        self._runtimes = {worker_id: WorkerRuntime(searcher)
                          for worker_id in range(self.workers)}
        self._results: deque = deque()

    def submit(self, worker_id: int, message) -> None:
        inbox = iter((message, wire.Shutdown()))
        _serve(lambda: self._runtimes[worker_id], worker_id,
               lambda: next(inbox), self._results.append)

    def recv(self, timeout=None):
        return self._results.popleft() if self._results else None

    def stop(self) -> None:
        pass


#: What becomes of the results a killed worker had sent but the master
#: had not yet received.
WITHHELD, LATE, FIRST = "withheld", "late", "first"


@dataclass(frozen=True)
class Kill:
    """After the ``after``-th submit the ``victim``-th live worker
    (modulo the pool) dies.  Its unreceived results are dropped
    (``WITHHELD``), delivered after the death notice (``LATE`` — stale)
    or before it (``FIRST``).  ``notices`` is how many ``WorkerGone`` the
    master gets; ``beat`` adds a ``Heartbeat`` from the dead worker."""

    after: int
    victim: int
    results: str = WITHHELD
    notices: int = 1
    beat: bool = False


@dataclass(frozen=True)
class SubmitLost:
    """The ``after``-th submit finds its worker dead: ``WorkerLost``, and
    — as from a real transport — its ``WorkerGone`` notice as well."""

    after: int


@dataclass(frozen=True)
class UnknownGone:
    """After the ``after``-th submit, a ``WorkerGone`` for an id that was
    never enrolled (a worker that died before the enrollment snapshot)."""

    after: int


@dataclass(frozen=True)
class Join:
    """After the ``after``-th submit an elastic worker joins."""

    after: int


class ScriptedTransport(InlineTransport):
    """An inline pool that plays ``tape`` (events above).  A death that
    would leave the scheduler no worker is skipped unless ``respawn``
    says it will ask for a replacement: the tape scripts churn the
    policy survives, not the abort.  ``spawn_worker`` answers with the new id, or with None and a
    ``WorkerJoined`` when ``async_respawn``."""

    name = "scripted"

    def __init__(self, workers: int, tape, respawn: bool = False,
                 async_respawn: bool = False):
        super().__init__(workers)
        self._tape: dict[int, list] = {}
        for event in tape:
            self._tape.setdefault(event.after, []).append(event)
        self._respawn = respawn
        self._async_respawn = async_respawn
        self._next_id = workers
        self._ghosts = 0
        self.submits = 0
        #: Events that actually fired, for test-side assertions.
        self.played: list = []

    def submit(self, worker_id: int, message) -> None:
        self.submits += 1
        events = self._tape.pop(self.submits, ())
        lost = any(isinstance(event, SubmitLost) for event in events) \
            and worker_id in self._runtimes and self._may_lose_one(now=True)
        if lost:
            self._kill(worker_id, WITHHELD)
            self.played.append(SubmitLost(self.submits))
        elif worker_id in self._runtimes:
            super().submit(worker_id, message)
        # else: written to a worker whose death notice is still queued —
        # nobody answers, and the notice requeues the task.
        for event in events:
            if not isinstance(event, SubmitLost):
                self._play(event)
        if lost:
            raise WorkerLost(worker_id, "scripted: found dead at submit")

    def spawn_worker(self) -> int | None:
        worker_id = self._add_worker()
        if not self._async_respawn:
            return worker_id
        self._results.append(wire.WorkerJoined(worker_id))
        return None

    def _add_worker(self) -> int:
        worker_id, self._next_id = self._next_id, self._next_id + 1
        self._runtimes[worker_id] = WorkerRuntime(self._searcher)
        return worker_id

    def _may_lose_one(self, now: bool = False) -> bool:
        """Whether the pool the scheduler knows survives one more death.
        A queued notice is handled after every join queued before it; a
        ``WorkerLost`` is handled ``now``, before any of them."""
        known = len(self._runtimes)
        if now:
            known -= sum(isinstance(message, wire.WorkerJoined)
                         for message in self._results)
        return known > (0 if self._respawn else 1)

    def _kill(self, victim: int, results: str, notices: int = 1) -> None:
        del self._runtimes[victim]

        def unreceived(message) -> bool:
            return (isinstance(message, wire.TaskResult)
                    and message.worker_id == victim)

        stale = []
        if results != FIRST:
            stale = [message for message in self._results
                     if unreceived(message)]
            self._results = deque(message for message in self._results
                                  if not unreceived(message))
        self._results.extend(
            wire.WorkerGone(victim, "scripted") for _ in range(notices))
        if results == LATE:
            self._results.extend(stale)

    def _play(self, event) -> None:
        if isinstance(event, Kill):
            if not self._may_lose_one():
                return
            live = sorted(self._runtimes)
            victim = live[event.victim % len(live)]
            self._kill(victim, event.results, event.notices)
            if event.beat:
                self._results.append(wire.Heartbeat(victim))
        elif isinstance(event, UnknownGone):
            self._ghosts += 1
            self._results.append(
                wire.WorkerGone(10_000 + self._ghosts, "scripted: a ghost"))
        else:
            self._results.append(wire.WorkerJoined(self._add_worker()))
        self.played.append(event)


def enrolled_scheduler(scenario, live=(0, 1), explored: int = 1000):
    """A real ``_Scheduler`` over an (unstarted) inline pool with ``live``
    enrolled, and ``explored`` states behind it — by default past the
    fan-out phase, where a task carries one node."""
    scheduler = _Scheduler(scenario.make_searcher(),
                           InlineTransport(len(live)))
    scheduler.searcher._explored = range(explored)
    for worker_id in live:
        scheduler._enroll(worker_id)
    return scheduler
