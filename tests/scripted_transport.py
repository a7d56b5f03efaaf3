"""In-process transports for driving the real ``_Scheduler`` without
processes, pipes or a clock (DESIGN.md, "Fault tolerance and elasticity").

:class:`InlineTransport` answers a task the moment it is submitted, so a
run is the scheduler's own decisions and nothing else.
:class:`ScriptedTransport` adds an event tape keyed by submit count: the
failure schedules real processes only hit by luck — a result that
outraces, trails or never follows its worker's death notice, a death
reported twice, a death of a worker nobody enrolled, a submit that finds
its worker dead, a join mid-run, a worker that stops answering, one that
could not build its runtime, one its memory watchdog recycles, a
replacement that never joins — each happen exactly where the tape says.  Its time is virtual
(:meth:`ScriptedTransport.clock`, installed as the scheduler's clock): a
``recv`` with nothing to deliver moves it on by the timeout asked for, so
a task deadline expires without anyone sleeping.  :func:`enrolled_scheduler`
builds a scheduler over an inline pool for tests that call its methods
directly.
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


class Blocked(AssertionError):
    """The scheduler waits on a pool that will never say anything again:
    a real transport's ``recv`` would block for ever (no timeout) or time
    out for ever (:data:`ScriptedTransport.IDLE_LIMIT` in a row)."""


@dataclass(frozen=True)
class Kill:
    """After the ``after``-th submit the ``victim``-th live worker
    (modulo the pool) dies.  Its unreceived results are dropped
    (``WITHHELD``), delivered after the death notice (``LATE`` — stale
    messages from a retired worker) or before it (``FIRST``).
    ``notices`` is how many ``WorkerGone`` the master gets."""

    after: int
    victim: int
    results: str = WITHHELD
    notices: int = 1


@dataclass(frozen=True)
class Stall:
    """After the ``after``-th submit the ``victim``-th live worker
    (modulo the pool) stops answering, process and channel alive: the
    tasks it holds get no result and it gets no death notice until the
    scheduler kills it (``kill_worker``) — a hang only a deadline finds."""

    after: int
    victim: int


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


@dataclass(frozen=True)
class FailsToStart:
    """After the ``after``-th submit the ``victim``-th live worker (modulo
    the pool) reports it could not build its runtime: its one
    ``WorkerGone`` has ``started`` False and carries the traceback, and
    its unreceived results are dropped."""

    after: int
    victim: int


@dataclass(frozen=True)
class Recycles:
    """After the ``after``-th submit the ``victim``-th live worker (modulo
    the pool) is recycled by its memory watchdog: the results it sent
    come first, then its one ``WorkerGone``, ``recycled`` True.  A task
    submitted to it before the master reads that notice is never
    answered — the pipelined task a real recycling worker leaves
    unread."""

    after: int
    victim: int


@dataclass(frozen=True)
class NeverJoins:
    """From the ``after``-th submit on, the next replacement the
    scheduler asks for joins asynchronously — and never arrives."""

    after: int


#: The reason a :class:`FailsToStart` worker gives.
START_FAILURE = ("failed to start:\nTraceback (most recent call last):\n"
                 "RuntimeError: scripted start-up failure")
#: The reason a :class:`Recycles` worker's notice gives.
RECYCLED = "recycled by its memory watchdog"


class ScriptedTransport(InlineTransport):
    """An inline pool that plays ``tape`` (events above).  ``respawn``
    says whether it can grow: ``spawn_worker`` answers with the new id,
    or with None and a ``WorkerJoined`` when ``async_respawn`` — or,
    when it cannot, raises ``NotImplementedError``.  A death or stall
    that would leave the scheduler no answering worker and no
    replacement is skipped: the tape scripts churn the policy survives.
    Only a start-up failure (never replaced) and a replacement that
    never joins can empty the pool."""

    name = "scripted"
    #: Timeouts in a row, nothing delivered, before :class:`Blocked`.
    IDLE_LIMIT = 100

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
        #: Replacements still to be lost (:class:`NeverJoins`).
        self._lost_spawns = 0
        self._stalled: set[int] = set()
        self._idle = 0
        #: Virtual seconds since the pool started.
        self.now = 0.0
        self.submits = 0
        #: Events that actually fired, and ``(worker id, virtual time)``
        #: of every ``kill_worker``, for test-side assertions.
        self.played: list = []
        self.killed: list = []
        #: Results delivered after their worker's death notice.
        self.late = 0

    def clock(self) -> float:
        return self.now

    def recv(self, timeout=None):
        if self._results:
            self._idle = 0
            return self._results.popleft()
        if timeout is None:
            raise Blocked("recv with no timeout and nothing to deliver:"
                          " a real master would block for ever")
        self._idle += 1
        if self._idle > self.IDLE_LIMIT:
            raise Blocked(f"{self.IDLE_LIMIT} timeouts in a row with"
                          f" nothing delivered at t={self.now:.2f}s")
        self.now += timeout
        return None

    def kill_worker(self, worker_id: int) -> None:
        self.killed.append((worker_id, self.now))
        if worker_id in self._runtimes:
            self._kill(worker_id, LATE)

    def submit(self, worker_id: int, message) -> None:
        self.submits += 1
        events = self._tape.pop(self.submits, ())
        lost = any(isinstance(event, SubmitLost) for event in events) \
            and worker_id in self._runtimes and self._may_lose_one(now=True)
        if lost:
            self._kill(worker_id, WITHHELD)
            self.played.append(SubmitLost(self.submits))
        elif worker_id in self._runtimes and worker_id not in self._stalled:
            super().submit(worker_id, message)
        # else: written to a stalled worker, or to one whose death notice
        # is still queued — nobody answers; a deadline kill or the notice
        # requeues the task.
        for event in events:
            if not isinstance(event, SubmitLost):
                self._play(event)
        if lost:
            raise WorkerLost(worker_id, "scripted: found dead at submit")

    def spawn_worker(self) -> int | None:
        if not self._respawn:
            raise NotImplementedError("scripted: this pool cannot grow")
        if self._lost_spawns:
            self._lost_spawns -= 1
            return None
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
        known = len(self._answering())
        if now:
            known -= sum(isinstance(message, wire.WorkerJoined)
                         for message in self._results)
        return known > (0 if self._respawn else 1)

    def _answering(self) -> list[int]:
        return sorted(self._runtimes.keys() - self._stalled)

    def _kill(self, victim: int, results: str, notices: int = 1,
              started: bool = True, recycled: bool = False) -> None:
        del self._runtimes[victim]
        self._stalled.discard(victim)

        def unreceived(message) -> bool:
            return (isinstance(message, wire.TaskResult)
                    and message.worker_id == victim)

        stale = []
        if results != FIRST:
            stale = [message for message in self._results
                     if unreceived(message)]
            self._results = deque(message for message in self._results
                                  if not unreceived(message))
        reason = RECYCLED if recycled else \
            "scripted" if started else START_FAILURE
        self._results.extend(
            wire.WorkerGone(victim, reason, started, recycled)
            for _ in range(notices))
        if results == LATE:
            self._results.extend(stale)
            self.late += len(stale)

    def _play(self, event) -> None:
        if isinstance(event, (Kill, Stall, FailsToStart, Recycles)):
            # A start-up failure is never replaced: it may empty the pool.
            live = self._answering()
            if not live or (not isinstance(event, FailsToStart)
                            and not self._may_lose_one()):
                return
            victim = live[event.victim % len(live)]
            if isinstance(event, Stall):
                self._stalled.add(victim)
            elif isinstance(event, FailsToStart):
                self._kill(victim, WITHHELD, started=False)
            elif isinstance(event, Recycles):
                self._kill(victim, FIRST, recycled=True)
            else:
                self._kill(victim, event.results, event.notices)
        elif isinstance(event, NeverJoins):
            self._lost_spawns += 1
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
