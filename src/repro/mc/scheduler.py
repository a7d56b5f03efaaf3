"""The pool expander: the scheduler that puts workers behind the one
search loop (DESIGN.md, "Search engine", "Scheduler and transports" and
"Fault tolerance and elasticity").

:class:`~repro.mc.search.Searcher` owns the loop — the explored set, the
statistics, the checkpoint cut, the commit; :class:`ParallelSearcher`
only swaps what expands the frontier.  ``_Scheduler`` is that expander:
it keeps a frontier of **sibling groups** ``(parent trace,
[transitions])`` — trace-replay checkpoints; full
:class:`~repro.mc.system.System` objects never cross a process or socket
boundary — routes them to workers, and decodes each result off the wire
into one :meth:`Searcher.absorb <repro.mc.search.Searcher.absorb>` call,
which deduplicates the children against the global explored set *before*
the fresh ones are queued here again, so every reachable state is
expanded exactly once.  Workers (:mod:`repro.mc.worker`) pick up the
siblings they retained — or restore the group's parent by trace replay
and rebuild them — and expand every sibling with the loop's own per-node
body; results are merged as they arrive — no wave barrier; completed
tasks immediately refill the workers.

**Two records.**  What the scheduler knows by id is a row in one of two
tables: ``_workers`` (:class:`_Worker` — a retired worker's row stays,
``alive`` False: ids are never reused, and the row is what makes a
second death notice a no-op) and ``_tasks`` (:class:`_Task` — present
while in flight, absent once merged or requeued).  Groups no live worker
owns wait in the one ``_unowned`` deque.  Each lifecycle edge is written
in one method, which asserts the edge it takes:

=========================  ================================  =============
edge                       on                                written by
=========================  ================================  =============
worker (new) -> enrolled   ``start``, a synchronous          ``_enroll``
                           respawn, ``WorkerJoined``
worker enrolled -> retired ``WorkerGone``, a submit's        ``_retire``
                           ``WorkerLost``, a missed deadline
task queued -> dispatched  a live worker has capacity        ``_dispatch``
task dispatched -> merged  its ``TaskResult``                ``_merge``
task dispatched -> queued  its worker retires (a group past  ``_retire``
                           ``max_task_retries`` deaths is
                           quarantined: merged or abandoned)
=========================  ================================  =============

A result whose task has no row — it outraced its worker's death notice,
organic or a deadline kill — is stale and dropped, so every group is
merged **exactly once**: the state space stays bit-identical to serial
under churn.  The run only aborts — with a clean
:class:`~repro.mc.transport.TransportError` — when the live pool shrinks
below ``min_workers`` or more than ``max_worker_failures`` deaths
accumulate.  ``tests/test_scheduler_lifecycle.py`` drives the edges over
generated failure schedules in process; ``tests/test_search_structure.py``
holds the one-writer rule by AST.

**Affinity routing**: every group discovered by worker *w* has its
siblings retained in *w*'s memory, so each worker's row carries a
frontier queue; the scheduler prefers handing a worker its own groups,
and attaches the *handle* that names the retained siblings there — no
restore at all.  A group that reaches any other worker (or outlives its
owner, or a checkpoint) goes without one and is restored by trace replay.
An idle worker with an empty queue *steals* from the longest other
queue, so affinity never serializes the search
(``affinity_hits`` / ``affinity_misses`` count owner runs vs. the rest).
Affinity is how the ``dfs`` order routes: ``bfs`` and ``random``
frontiers pop from the unowned queue in frontier order (the policy the
in-process expander applies to nodes, here over groups), route
round-robin, and count every group as a miss.

**Adaptive batch sizing**: a task's node budget starts at
``BATCH_NODES`` (its group budget keeps the ``BATCH_GROUPS`` :
``BATCH_NODES`` ratio) and adapts per worker from observed task
round-trip times — fast ones grow the batch geometrically (amortizing
per-task overhead, the regime high-RTT socket workers live in), slow
ones shrink it back toward fine-grained load balancing (which also caps
how much work a dying worker can strand).  It never affects *what* is
explored, only how it is packed.

**Checkpointing**: the driver cuts a snapshot only when :meth:`drain
<_Scheduler.drain>` has merged every in-flight task, so no unit of work
can be half-counted, and :meth:`groups <_Scheduler.groups>` is then the
whole frontier; handles are never persisted.

Exactness contract: every (state, transition) pair
is executed and property-checked exactly once, so for an exhaustive
search ``unique_states``, ``transitions_executed``, ``revisited_states``
and ``quiescent_states`` all equal the serial searcher's — on every
transport and start method, and under any worker failure/join schedule
the policy survives.  The set of *violated properties* is likewise
identical.  Individual violation records can differ from serial DFS in
their messages and traces whenever a property reads execution *history*
(packet-fate ledger, packet-in logs): state matching keeps only the first
path that reaches each state, and which path wins is a search-order
artifact — serial DFS and BFS disagree on those records the same way.
Early-stopping runs are approximate: workers in flight when the stop
condition trips may have executed extra transitions — but what *is*
counted is committed (DESIGN.md, "Search engine": commit, then stop).
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import sys
import time
from collections import deque
from itertools import compress

from repro.config import ORDER_BFS, ORDER_DFS, TRANSPORT_LOCAL
from repro.mc.search import QuarantinedTask, Searcher
from repro.mc.store import unpack_digests
from repro.mc.transport import TransportError, WorkerLost, create_transport
from repro.mc.wire import (
    ExpandTask,
    Heartbeat,
    TaskResult,
    WorkerError,
    WorkerGone,
    WorkerJoined,
)


class ParallelSearcher(Searcher):
    """:class:`~repro.mc.search.Searcher` with ``config.workers`` workers
    behind it: the same driver, per-node body and commit, expanding
    through a transport instead of in process.  Spawn/socket workers are
    shipped ``scenario_spec`` to rebuild the initial System by registry
    name; without one only ``fork`` workers — which inherit the closures
    — are possible."""

    def _expander(self, strategy):
        transport = (create_transport(self.config, self.scenario_spec)
                     if self.config.workers > 1 else None)
        if transport is None:
            # One worker is no pool; or create_transport warned about why.
            return super()._expander(strategy)
        return _Scheduler(self, transport)


@dataclasses.dataclass(slots=True)
class _Worker:
    """One pool member's row in ``_Scheduler._workers``, born live."""

    #: Adaptive node budget (float so growth compounds).
    batch: float
    alive: bool = True
    #: Tasks in flight on it.
    load: int = 0
    #: EWMA of its per-task service time (feeds the deadline derivation)
    #: and the monotonic time of its last heartbeat; None until the first.
    rtt: float | None = None
    last_beat: float | None = None
    #: The ``(group, handle)`` entries it owns: a ``(trace, steps)``
    #: sibling group and where it retained the siblings (see ``_push``).
    #: Only DFS fills it.
    queue: deque = dataclasses.field(default_factory=deque)


@dataclasses.dataclass(slots=True)
class _Task:
    """One in-flight task's row in ``_Scheduler._tasks``."""

    worker: int
    groups: list
    #: Submit time and the worker's pipelining depth then: the RTT sample
    #: is normalized to per-task service time — counting the wait behind
    #: another task would stop batch growth at half the intended threshold.
    sent_at: float
    depth: int
    #: Absolute monotonic deadline; None with hang detection off.
    deadline: float | None


class _Scheduler:
    """The pool expander of one search run: a frontier of sibling groups
    routed to workers.  ``Searcher.run`` drives it; the explored set, the
    statistics and the commit (``Searcher.absorb``) are the searcher's."""

    #: Tasks kept in flight per worker (>1 hides result latency).
    PER_WORKER_INFLIGHT = 2

    #: Adaptive batching: a worker's task starts at BATCH_NODES nodes in
    #: at most BATCH_GROUPS sibling groups; the node budget grows while
    #: its task round trips finish under RTT_LOW seconds and shrinks
    #: while they exceed RTT_HIGH, between 1 and MAX_BATCH_NODES.  The
    #: asymmetric step (gentle growth, halving shrink) converges without
    #: oscillating.
    BATCH_NODES = 16
    BATCH_GROUPS = 8
    RTT_LOW = 0.010
    RTT_HIGH = 0.100
    BATCH_GROW = 1.5
    BATCH_SHRINK = 0.5
    MAX_BATCH_NODES = 512

    #: Hang detection (DESIGN.md, "Failure containment").  A task's hard
    #: deadline derives from the worker's EWMA task round-trip time:
    #: ``DEADLINE_RTT_FACTOR x rtt x PER_WORKER_INFLIGHT`` (the depth
    #: factor because a task can wait behind the others in the worker's
    #: queue), floored at DEADLINE_FLOOR seconds so early noisy samples
    #: never declare a healthy worker hung.  ``task_deadline`` pins the
    #: deadline instead; ``0`` disables detection.
    DEADLINE_FLOOR = 30.0
    DEADLINE_RTT_FACTOR = 50.0
    #: EWMA weight of a new RTT sample in the deadline estimator.
    RTT_EWMA = 0.3
    #: Fallback wall-clock allowance for one quarantine sandbox run when
    #: no explicit ``task_deadline`` is configured.
    QUARANTINE_DEADLINE = 30.0
    #: Seconds an asynchronously respawned worker (socket transport) gets
    #: to join before its seat stops counting toward ``min_workers``.
    RESPAWN_GRACE = 60.0

    def __init__(self, searcher: ParallelSearcher, transport):
        self.searcher = searcher
        self.config = searcher.config
        self.stats = searcher.stats
        self.transport = transport
        self.name, self.workers = transport.name, transport.workers
        #: Affinity routing only composes with DFS pops: BFS and random
        #: orders need one queue popped in frontier order (only ``_push``
        #: asks: off DFS no worker's queue is ever filled).
        self._affine = self.config.search_order == ORDER_DFS
        #: worker id -> its row, live or retired; task id -> its row
        #: while in flight (module docstring, "Two records").
        self._workers: dict[int, _Worker] = {}
        self._tasks: dict[int, _Task] = {}
        #: ``(group, handle)`` entries no live worker owns; off DFS, the
        #: whole frontier.
        self._unowned: deque = deque()
        self._pending_groups = 0
        #: Poison attribution: content key of a sibling group -> number of
        #: worker deaths that group was in flight for.
        self._poison: dict[bytes, int] = {}
        #: One deadline per replacement an *asynchronous* spawn_worker
        #: (the socket transport) was asked for, oldest first: a seat in
        #: the ``min_workers`` accounting until a worker joins or it expires.
        self._respawn_seats: deque[float] = deque()
        self._next_task_id = 0
        self._next_round_robin = 0

    # ------------------------------------------------------------------
    # The expander seam (driven by Searcher.run)
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.transport.start(self.searcher)
        # Enroll the pool the transport *actually* brought up: the
        # socket accept barrier can burn ids on workers that die
        # mid-handshake, so the live ids need not be 0..workers-1.
        for worker_id in self.transport.worker_ids():
            self._enroll(worker_id)

    def stop(self) -> None:
        self.transport.stop()

    def pending(self) -> bool:
        return bool(self._pending_groups or self._tasks)

    def pump(self) -> None:
        """Refill every worker with spare capacity, then take one message
        (or a deadline wakeup) off the transport."""
        self._dispatch()
        self._receive()

    def drain(self) -> None:
        """Absorb every in-flight result (worker churn included) so the
        master state is a consistent cut of the search.  Deadlines keep
        ticking here too — a worker that hangs while a checkpoint drains
        would otherwise stall the snapshot forever."""
        while self._tasks:
            self._receive()

    def groups(self) -> list:
        """Every queued sibling group, unowned queue first then per-owner
        queues in worker-id order — the checkpoint's frontier."""
        queues = [self._unowned,
                  *(self._workers[w].queue for w in sorted(self._workers))]
        return [group for queue in queues for group, _ in queue]

    def _receive(self) -> None:
        message = self.transport.recv(timeout=self._recv_timeout())
        if message is not None:
            self._handle(message)
        self._check_deadlines()

    def _handle(self, message) -> None:
        if isinstance(message, TaskResult):
            self._merge(message)
        elif isinstance(message, Heartbeat):
            worker = self._workers.get(message.worker_id)
            if worker is not None and worker.alive:
                worker.last_beat = time.monotonic()
        elif isinstance(message, WorkerGone):
            self._on_worker_gone(message.worker_id, message.reason)
        elif isinstance(message, WorkerJoined):
            self._on_worker_joined(message.worker_id)
        elif isinstance(message, WorkerError):
            # A task that *raised* inside the worker is a deterministic
            # bug, not churn: a retry would raise the same way, so surface
            # the traceback.  Model-handler exceptions only arrive here when
            # fail_fast asked for this abort — workers contain them as
            # ModelError counterexamples (see Searcher.expand_node).
            raise TransportError(
                f"worker {message.worker_id} failed on task"
                f" {message.task_id}:\n{message.error}")
        else:
            raise TransportError(f"unexpected transport message {message!r}")

    # ------------------------------------------------------------------
    # Worker churn
    # ------------------------------------------------------------------

    def _alive(self) -> list[int]:
        """Ids of the live pool, ascending."""
        return sorted(w for w, worker in self._workers.items()
                      if worker.alive)

    def _enroll(self, worker_id: int) -> None:
        """The edge into the live pool: a fresh id gets its row."""
        assert worker_id not in self._workers, (
            f"worker {worker_id} enrolled twice (ids are never reused)")
        self._workers[worker_id] = _Worker(float(self.BATCH_NODES))
        self.stats.worker_tasks.setdefault(worker_id, 0)

    def _retire(self, worker_id: int) -> list[tuple[tuple, int]]:
        """The edge out of the live pool: the worker's in-flight tasks
        lose their rows and its queue its owner.  Returns the ``(group,
        deaths)`` pairs that go to quarantine instead of to the fleet."""
        worker = self._workers.get(worker_id)
        if worker is None:
            # Never enrolled: it died between the transport's start() and
            # the enrollment snapshot.  That still shrank the pool and
            # must reach the policy — a 1-worker run would otherwise hang
            # in recv() forever — so it gets its row here, retired.
            worker = self._workers[worker_id] = _Worker(0.0)
        assert worker.alive, f"worker {worker_id} retired twice"
        worker.alive = False
        worker.load = 0
        stats = self.stats
        # Requeue in-flight sibling groups; with its row gone, a result
        # still in the pipe is stale.  Each group is charged one death
        # toward poison attribution; past ``max_task_retries`` it goes to
        # quarantine.
        poisoned: list[tuple[tuple, int]] = []
        for task_id in [t for t, task in self._tasks.items()
                        if task.worker == worker_id]:
            stats.tasks_retried += 1
            for group in self._tasks.pop(task_id).groups:
                stats.groups_reassigned += 1
                key = self._group_key(group)
                attempts = self._poison[key] = self._poison.get(key, 0) + 1
                if attempts > self.config.max_task_retries:
                    poisoned.append((group, attempts))
                else:
                    self._push(None, group)
        # Affinity repair: its replay cache and retained children are
        # gone, so its queued groups rejoin the unowned queue (dispatched
        # as affinity misses).  Handles naming it in other queues need no
        # sweep: ids are never reused, so ``_pack`` never matches them.
        stats.groups_reassigned += len(worker.queue)
        self._unowned.extend((group, None) for group, _ in worker.queue)
        worker.queue.clear()
        return poisoned

    def _on_worker_gone(self, worker_id: int, reason: str) -> None:
        """Retire a dead worker, replace it if asked to, and apply the
        ``min_workers`` / ``max_worker_failures`` policy."""
        known = self._workers.get(worker_id)
        if known is not None and not known.alive:
            return  # duplicate notice (submit failure + transport event)
        poisoned = self._retire(worker_id)
        stats = self.stats
        stats.worker_failures += 1
        # A tolerated death must still be *visible*: the reason can carry
        # a startup traceback or a connection error an operator needs.
        print(f"search worker {worker_id} died"
              f" ({len(self._alive())} worker(s) left); requeueing its work:"
              f" {reason}", file=sys.stderr, flush=True)
        if self.config.respawn_workers:
            # Autoscaler: replace it *before* the policy check, so a
            # synchronously respawned local worker keeps the pool at its
            # floor.  Deaths still count toward ``max_worker_failures``.
            self._respawn(worker_id)
        live = len(self._alive())
        failures_allowed = self.config.max_worker_failures
        if failures_allowed is not None \
                and stats.worker_failures > failures_allowed:
            raise TransportError(
                f"giving up after {stats.worker_failures} worker"
                f" failures (max_worker_failures={failures_allowed});"
                f" last failure: worker {worker_id}: {reason}")
        if live + len(self._respawn_seats) < self.config.min_workers:
            raise TransportError(
                f"worker pool shrank to {live} live worker(s),"
                f" below min_workers={self.config.min_workers}"
                f" ({stats.worker_failures} failure(s) total);"
                f" last failure: worker {worker_id}: {reason}")
        # Quarantine last, pool repaired and policy passed: the sandbox can
        # merge results (possibly stopping the search) and must not run if
        # the fleet is aborting anyway.
        for group, attempts in poisoned:
            self._quarantine(group, attempts)

    @staticmethod
    def _group_key(group) -> bytes:
        """Content identity of a sibling group, stable across requeues and
        re-batching (the same group object round-trips through the
        scheduler, so its pickled form is stable within a run)."""
        payload = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.blake2b(payload, digest_size=16).digest()

    # ------------------------------------------------------------------
    # Poison-task quarantine
    # ------------------------------------------------------------------

    def _quarantine(self, group, attempts: int) -> None:
        """A group has now been in flight for ``attempts`` worker deaths:
        stop feeding it to the fleet.  It gets one last run in a sandboxed
        one-shot worker (rlimits contain what killed the pool workers);
        a sandbox success merges normally — bit-identity to serial is
        preserved.  Any sandbox failure degrades gracefully: the group
        is abandoned and a :class:`~repro.mc.search.QuarantinedTask`
        diagnostic records what was given up, instead of the whole search
        aborting."""
        stats = self.stats
        trace, steps = group
        stats.tasks_quarantined += 1
        print(f"sibling group at trace length {len(trace)} survived"
              f" {attempts} worker death(s); quarantining it in a"
              f" sandboxed subprocess", file=sys.stderr, flush=True)
        out, failure = self._sandbox_expand(group)
        if out is not None:
            print("quarantined group completed in the sandbox;"
                  " merging its result", file=sys.stderr, flush=True)
            self._absorb(out, [group], None)
            return
        stats.quarantined_tasks.append(
            QuarantinedTask(trace, steps, attempts, failure))
        print(f"abandoning poison sibling group after {attempts}"
              f" attempt(s): {failure}\nthe rest of the state space is"
              f" still being explored", file=sys.stderr, flush=True)

    def _sandbox_expand(self, group):
        """Run one group on a sandbox: a local transport of one worker,
        started with rlimits.  It forks wherever the platform can, even
        under a spawn/socket master — a fork inherits the live searcher,
        so hand-built scenarios stay quarantinable.  Returns ``(out,
        "")`` on success or ``(None, why)`` on any failure."""
        allowance = self.config.task_deadline or self.QUARANTINE_DEADLINE
        sandbox = create_transport(
            dataclasses.replace(self.config, workers=1,
                                transport=TRANSPORT_LOCAL, start_method=None),
            self.searcher.scenario_spec,
            limits={"cpu": int(allowance) + 1,
                    "address_space": self.config.worker_memory_limit})
        if sandbox is None:
            return None, ("no sandbox available: the platform lacks 'fork'"
                          " and the scenario has no portable spec")
        try:
            sandbox.start(self.searcher)
            sandbox.submit(0, ExpandTask(0, [group]))
            deadline = time.monotonic() + allowance + 5.0
            while True:
                reply = sandbox.recv(
                    timeout=max(0.0, deadline - time.monotonic()))
                if not isinstance(reply, Heartbeat):
                    break
            if reply is None:
                sandbox.kill_worker(0)
                return None, (f"sandbox run exceeded its"
                              f" {allowance:.0f}s allowance")
            if isinstance(reply, TaskResult):
                return reply.out, ""
            if isinstance(reply, WorkerError):
                return None, f"sandbox run raised:\n{reply.error}"
            if isinstance(reply, WorkerGone):
                return None, f"sandbox run died ({reply.reason})"
            return None, f"sandbox sent an unexpected {reply!r}"
        finally:
            sandbox.stop()

    def _respawn(self, dead_worker_id: int) -> None:
        """Ask the transport for a replacement worker (``respawn_workers``).
        Local pools return the fresh id, enrolled at once; the socket
        transport spawns a subprocess that joins elastically and surfaces
        later as a :class:`~repro.mc.wire.WorkerJoined`.  A transport that
        cannot spawn (or a spawn that fails) logs and moves on — the
        failure policy then decides whether the shrunken pool survives."""
        try:
            new_id = self.transport.spawn_worker()
        except Exception as exc:  # noqa: BLE001 - any failure, policy decides
            print(f"could not respawn a replacement for dead worker"
                  f" {dead_worker_id}: {exc}", file=sys.stderr, flush=True)
            return
        self.stats.workers_respawned += 1
        if new_id is None:
            # Asynchronous join (socket): a seat toward min_workers until
            # a worker joins — or its own grace deadline declares it lost.
            self._respawn_seats.append(time.monotonic() + self.RESPAWN_GRACE)
            print(f"respawning a replacement for dead worker"
                  f" {dead_worker_id} (joins asynchronously)",
                  file=sys.stderr, flush=True)
        else:
            self._enroll(new_id)
            self.stats.workers += 1
            print(f"respawned worker {new_id} to replace dead worker"
                  f" {dead_worker_id}", file=sys.stderr, flush=True)

    def _on_worker_joined(self, worker_id: int) -> None:
        """Enroll an elastic joiner; the next ``_dispatch`` feeds it (an
        idle joiner steals immediately).  It takes the oldest respawn
        seat, if any is waiting."""
        if worker_id in self._workers:
            return
        if self._respawn_seats:
            self._respawn_seats.popleft()
        self._enroll(worker_id)
        self.stats.elastic_joins += 1
        self.stats.workers += 1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def push(self, group: tuple, systems=None) -> None:
        """Seed or resume the frontier: an unowned group, restored by
        replay (Systems never cross to a worker)."""
        self._push(None, group)

    def _push(self, owner: int | None, group: tuple,
              handle: tuple | None = None) -> None:
        """Queue ``group`` for ``owner``.  ``handle`` is ``(task id, node
        position, kid indices)`` when ``owner`` retained the group's
        siblings while expanding that task (``WorkerRuntime.expand``); it
        is only ever sent back to ``owner`` itself, and only while
        ``owner`` lives — a routing hint, never persisted."""
        worker = self._workers.get(owner)
        if worker is None or not worker.alive:
            worker = handle = None
        if handle is not None:
            handle = (owner, *handle)
        queue = worker.queue if worker and self._affine else self._unowned
        queue.append((group, handle))
        self._pending_groups += 1

    def _pop_group(self, queue: deque) -> tuple:
        """Pop per ``config.search_order`` — dfs from the end, bfs from the
        front, random via the searcher's seeded RNG (the policy the
        in-process expander applies to nodes)."""
        order = self.config.search_order
        if order == ORDER_DFS:
            return queue.pop()
        if order == ORDER_BFS:
            return queue.popleft()
        index = self.searcher._rng.randrange(len(queue))
        queue.rotate(-index)
        group = queue.popleft()
        queue.rotate(index)
        return group

    def _dispatch(self) -> None:
        """Hand groups to every worker with spare capacity."""
        while self._pending_groups:
            worker_id = self._pick_worker()
            if worker_id is None:
                return
            worker = self._workers[worker_id]
            assert worker.alive, f"dispatch to retired worker {worker_id}"
            groups, handles = self._pack(worker_id)
            task_id = self._next_task_id
            self._next_task_id += 1
            worker.load += 1
            now = time.monotonic()
            allowance = self._task_deadline(worker)
            self._tasks[task_id] = _Task(
                worker_id, groups, now, worker.load,
                now + allowance if allowance else None)
            try:
                self.transport.submit(
                    worker_id, ExpandTask(task_id, groups, handles))
            except WorkerLost as lost:
                # The task has its row, so retiring the worker requeues
                # it along with anything else the worker held.
                self._on_worker_gone(worker_id, lost.reason)

    def _pick_worker(self) -> int | None:
        """Next worker to feed: affine work first, then the least loaded
        (round-robin tie-break keeps spawn-order bias out)."""
        workers = self._workers
        pool = self._alive()
        spare = [w for w in pool
                 if workers[w].load < self.PER_WORKER_INFLIGHT]
        if not spare:
            return None
        affine = [w for w in spare if workers[w].queue]
        if affine:
            return min(affine, key=lambda w: workers[w].load)
        modulus = pool[-1] + 1
        choice = min(spare, key=lambda w: (
            workers[w].load, (w - self._next_round_robin) % modulus))
        self._next_round_robin = (choice + 1) % modulus
        return choice

    def _node_budget(self, worker_id: int) -> int:
        """Nodes to pack into one task for this worker: one while the
        explored set is small, so the search fans out across the pool
        instead of running serially inside one worker; after that the
        worker's RTT-adapted budget."""
        live = max(len(self._alive()), 1)
        if len(self.searcher._explored) < 4 * live:
            return 1
        adapted = max(1, int(self._workers[worker_id].batch))
        # Fair-share guard: an RTT-*grown* batch must never swallow so
        # much of the frontier that the rest of the pool idles — cap each
        # task at this worker's share of the pending groups (a proxy for
        # nodes), never below the BATCH_NODES seed: that only adds overhead.
        fair = self._pending_groups // (live * self.PER_WORKER_INFLIGHT)
        return max(1, min(adapted, max(self.BATCH_NODES, fair)))

    def _group_budget(self, node_budget: int) -> int:
        """Groups per task: the seed's groups:nodes ratio applied to the
        adapted node budget."""
        return max(1, round(node_budget * self.BATCH_GROUPS
                            / self.BATCH_NODES))

    def _observe_rtt(self, worker_id: int, rtt: float) -> None:
        worker = self._workers[worker_id]
        worker.rtt = (rtt if worker.rtt is None else
                      (1 - self.RTT_EWMA) * worker.rtt + self.RTT_EWMA * rtt)
        budget = worker.batch
        if rtt < self.RTT_LOW:
            budget = min(budget * self.BATCH_GROW,
                         float(self.MAX_BATCH_NODES))
        elif rtt > self.RTT_HIGH:
            budget = max(budget * self.BATCH_SHRINK, 1.0)
        worker.batch = budget

    def _pack(self, worker_id: int) -> list:
        """Pop up to the worker's group budget (node-budget bounded) for
        one task: its own groups first (affinity hits), then steals from
        the longest other queue (misses).  Returns the groups and their
        parallel wire handles (None when no group has one): a handle rides
        along only when ``worker_id`` is the worker that retained the
        siblings — on any route, stolen and round-robin ones included."""
        budget = self._node_budget(worker_id)
        group_budget = self._group_budget(budget)
        groups: list = []
        handles: list = []
        nodes = 0
        while self._pending_groups and len(groups) < group_budget \
                and nodes < budget:
            queue, owned = self._source_queue(worker_id)
            entry = self._pop_group(queue)
            group, handle = entry
            steps = group[1]
            take = len(steps) if steps is not None else 1
            if steps is not None and nodes + take > budget and groups:
                # Defer an oversized group rather than overshooting,
                # putting it back where the order's next pop finds it.
                if self.config.search_order == ORDER_BFS:
                    queue.appendleft(entry)
                else:
                    queue.append(entry)
                break
            self._pending_groups -= 1
            if owned:
                self.stats.affinity_hits += 1
            else:
                self.stats.affinity_misses += 1
            groups.append(group)
            handles.append(handle[1:] if handle is not None
                           and handle[0] == worker_id else None)
            nodes += take
        return groups, (handles if any(handles) else None)

    def _source_queue(self, worker_id: int) -> tuple[list, bool]:
        """``worker_id``'s own queue while it has entries, else the
        longest other one (unowned first, then enrollment order, on a
        tie) — and whether the pop is an affinity hit."""
        own = self._workers[worker_id].queue
        if own:
            return own, True
        queues = (self._unowned,
                  *(worker.queue for worker in self._workers.values()))
        return max((queue for queue in queues if queue), key=len), False

    # ------------------------------------------------------------------
    # Hang detection
    # ------------------------------------------------------------------

    def _task_deadline(self, worker: _Worker) -> float:
        """Seconds a freshly submitted task gets before its worker is
        declared hung; 0 disables (see the class constants)."""
        if self.config.task_deadline is not None:
            return self.config.task_deadline
        if worker.rtt is None:
            return self.DEADLINE_FLOOR
        return max(self.DEADLINE_FLOOR, self.DEADLINE_RTT_FACTOR
                   * worker.rtt * self.PER_WORKER_INFLIGHT)

    def _recv_timeout(self) -> float | None:
        """How long ``recv`` may block: until the nearest task deadline or
        the oldest respawn seat's, or forever when neither is armed."""
        armed = [task.deadline for task in self._tasks.values()
                 if task.deadline is not None]
        if self._respawn_seats:
            armed.append(self._respawn_seats[0])
        return max(0.05, min(armed) - time.monotonic()) if armed else None

    def _check_deadlines(self) -> None:
        """Forfeit respawn seats whose grace ran out, and declare workers
        with expired tasks hung: kill and retire.  Runs after every
        ``recv`` wakeup (results, heartbeats, and timeouts alike).  The
        kill routes the worker through the ordinary death path — requeue,
        poison attribution, respawn, policy; the transport's own later
        WorkerGone finds its row retired and its buffered results find no
        row in ``_tasks``, the stale-result rule any death relies on."""
        now = time.monotonic()
        seats = self._respawn_seats
        lost = 0
        while seats and seats[0] <= now:
            seats.popleft()
            lost += 1
        if lost:
            # Replacement(s) that never joined forfeit their seats: re-apply
            # the floor, so a fleet waiting on ghosts aborts, not hangs.
            live = len(self._alive())
            if live + len(seats) < self.config.min_workers:
                raise TransportError(
                    f"{lost} respawned replacement worker(s) never joined"
                    f" within {self.RESPAWN_GRACE:.0f}s and the pool"
                    f" ({live} live) is below"
                    f" min_workers={self.config.min_workers}")
        # The first expired task of each worker, in task order: retiring
        # the worker takes every row it holds.
        hung: dict[int, int] = {}
        for task_id, task in self._tasks.items():
            if task.deadline is not None and task.deadline <= now:
                hung.setdefault(task.worker, task_id)
        for worker_id, task_id in hung.items():
            beat = self._workers[worker_id].last_beat
            liveness = ("no heartbeat received" if beat is None
                        else f"last heartbeat {now - beat:.1f}s ago")
            self.stats.workers_hung += 1
            print(f"search worker {worker_id} declared hung: task"
                  f" {task_id} missed its deadline ({liveness});"
                  f" killing it", file=sys.stderr, flush=True)
            try:
                self.transport.kill_worker(worker_id)
                self.stats.deadline_kills += 1
            except Exception as exc:  # noqa: BLE001 - still requeue its work
                print(f"could not kill hung worker {worker_id}: {exc}",
                      file=sys.stderr, flush=True)
            self._on_worker_gone(
                worker_id,
                f"hung: task {task_id} exceeded its deadline ({liveness})")

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _merge(self, result: TaskResult) -> None:
        """Take one completed task's row out and fold its output into the
        search state."""
        task_id = result.task_id
        task = self._tasks.pop(task_id, None)
        if task is None:
            # A result that outraced its worker's death notice — organic
            # or a deadline kill: the task was already requeued, and
            # merging both copies would double-count — drop the stale one.
            return
        worker = self._workers[task.worker]
        assert worker.alive, f"task {task_id} merged from retired worker"
        worker.load -= 1
        self._observe_rtt(
            task.worker, (time.monotonic() - task.sent_at) / task.depth)
        self.stats.worker_tasks[task.worker] += 1
        self._absorb(result.out, task.groups, task.worker, task_id)

    def _absorb(self, out: dict, groups, worker_id: int | None,
                task_id: int | None = None) -> None:
        """Decode one expansion output off the wire and hand it to the
        search loop's commit (:meth:`Searcher.absorb`) — for pool task
        results and quarantine sandbox successes alike (``worker_id`` /
        ``task_id`` None for the sandbox: its one-shot process is gone,
        there is nowhere to route children back to)."""
        stats = self.stats
        stats.discover_packet_runs += out["discover_packet_runs"]
        stats.discover_stats_runs += out["discover_stats_runs"]
        stats.replayed_transitions += out["replayed"]
        stats.rebuilt_transitions += out["rebuilt"]
        stats.cache_hits += out["cache_hits"]
        stats.cache_misses += out["cache_misses"]
        stats.result_payload_bytes += out["result_bytes"]
        stats.add_hash_stats(out["hash_stats"])

        def node_trace(gi, si) -> tuple:
            trace, steps = groups[gi]
            return trace if si is None else trace + (steps[si],)

        # Wire violations carry their node as (gi, si) — and contained
        # model exceptions a 7th element, the worker-side traceback.
        violations = [
            (node_trace(record[3], record[4]), record[:3] + record[5:])
            for record in out["violations"]]
        children = out["children"]
        flags = iter(self.searcher.absorb(
            out["transitions"], out["quiescent"], violations,
            unpack_digests(out["digests"],
                           sum(len(kids) for _, _, kids in children))))
        for position, (gi, si, kids) in enumerate(children):
            picked = tuple(compress(range(len(kids)), flags))
            if picked:
                # The worker that expanded this node retained the children
                # it shipped — route the fresh ones back to it, with the
                # handle that names them there.
                self._push(worker_id,
                           (node_trace(gi, si),
                            [kids[index] for index in picked]),
                           (task_id, position, picked))
