"""The state-space search algorithm of Figure 5.

The searcher extends the basic model-checking loop with the two "discover"
mechanisms: on reaching a state whose *controller* state has not been seen
by a given client, it concolically executes the ``packet_in`` handler to
find the relevant packets for that client (one per handler code path) and
enables a ``send`` transition for each; likewise, a pending statistics reply
triggers concolic execution of the statistics handler to find representative
stats values (``discover_stats``).

Implementation note (documented in DESIGN.md): discovery runs *eagerly* when
a state is expanded rather than as an explicit stack transition.  The two
formulations explore the same reachable states — a discover transition
changes no system state, so as a stack entry it would only introduce
self-loop bookkeeping — and the eager form keeps the explored-state set free
of duplicate entries.  Discovery results are cached by (client, controller
state hash), exactly the ``client.packets[state(ctrl)]`` map of Figure 5.

There is one loop, and this module is it (DESIGN.md, "Search engine"):
:meth:`Searcher.run` drives an *expander* until nothing is pending,
snapshotting between expansions (and on SIGTERM) when ``checkpoint_dir``
is set; :meth:`Searcher.expand_node` is the per-node body and
:meth:`Searcher.absorb` the commit into the explored set.  The serial
engine is that loop over :class:`_InlineExpander`; the parallel engine
the same loop over the pool scheduler (:mod:`repro.mc.scheduler`), whose
workers call the same ``expand_node``.

The frontier holds the children themselves: each is a copy-on-write clone
of its parent (:meth:`System.clone <repro.mc.system.System.clone>`),
executed, checked and hashed once, and expanded as is.  Where no System
is at hand — a frontier resumed from a checkpoint here, a sibling group a
pool worker did not retain — the node is restored by deterministically
replaying its transition path from the initial state, the same mechanism
the paper uses to reproduce violations (Section 6).  State hashing
combines cached per-component digests, so expanding a state only
re-renders the switches/hosts the transition actually touched
(DESIGN.md, "Per-state hot path").
"""

from __future__ import annotations

import math
import random
import time
import traceback
from collections import deque
from itertools import compress

from repro.config import NiceConfig, ORDER_DFS, ORDER_RANDOM
from repro.errors import NiceError, PropertyViolation
from repro.mc import store as store_mod
from repro.mc import transitions as tk
from repro.mc.replay import replay_from
from repro.mc.strategies import Strategy, make_strategy
from repro.mc.system import System
from repro.mc.transitions import Transition
from repro.openflow.messages import StatsReply


class Violation:
    """One property violation plus the trace that deterministically
    reproduces it from the initial state."""

    def __init__(self, property_name: str, message: str,
                 trace: tuple[Transition, ...], state_hash: str):
        self.property_name = property_name
        self.message = message
        self.trace = trace
        self.state_hash = state_hash

    def __repr__(self):
        return (f"Violation({self.property_name}: {self.message!r},"
                f" trace length {len(self.trace)})")


#: Property name under which contained model exceptions are recorded.
MODEL_ERROR_PROPERTY = "ModelError"


class ModelError(Violation):
    """An exception that escaped a controller/host handler, recorded as a
    replayable counterexample (DESIGN.md, "Failure containment").

    The model under test is *expected* to be buggy — that is the point of
    model checking it — so an unhandled exception in its handlers is
    evidence about the model, not about the engine.  The trace replays the
    crash deterministically (``nice.replay`` re-raises the original
    exception at the final transition); ``details`` carries the formatted
    traceback from wherever the transition actually executed.  Engine
    errors (:class:`~repro.errors.NiceError`) are never contained."""

    def __init__(self, property_name, message, trace, state_hash,
                 details: str = ""):
        super().__init__(property_name, message, trace, state_hash)
        self.details = details

    def __repr__(self):
        return (f"ModelError({self.message!r},"
                f" trace length {len(self.trace)})")


class QuarantinedTask:
    """Structured diagnostic for a poison sibling group the search gave up
    executing (DESIGN.md, "Failure containment").

    Recorded when a group implicated in more worker deaths than
    ``_Scheduler.MAX_TASK_RETRIES`` *also* fails in the quarantine
    sandbox: the search degrades gracefully — every other branch of the
    state space is still explored — and this object preserves what was
    abandoned: the parent ``trace``, the sibling transitions
    (``siblings`` is None for an initial-state group), how many
    ``attempts`` were made, and the ``reason`` the last one failed
    (signal name, exit code, or timeout)."""

    def __init__(self, trace, siblings, attempts: int, reason: str):
        self.trace = trace
        self.siblings = siblings
        self.attempts = attempts
        self.reason = reason

    def __repr__(self):
        fanout = len(self.siblings) if self.siblings is not None else 1
        return (f"QuarantinedTask(trace length {len(self.trace)},"
                f" {fanout} sibling(s), {self.attempts} attempt(s):"
                f" {self.reason})")


class SearchStats:
    """Everything a search run measured.

    ``engine`` describes how the search actually ran — ``"serial"``, or
    ``"<transport>-<start method>"`` / ``"socket"`` for the parallel
    scheduler — so a caller (and ``nice run``) can see whether a
    ``workers=N`` request was honored.  The restoration counters
    (``cache_hits`` / ``cache_misses`` / ``replayed_transitions`` /
    ``rebuilt_transitions``) and the routing counters (``affinity_hits`` /
    ``affinity_misses``) are zero for serial runs; they measure work the
    serial engine does not do and are never counted in
    ``transitions_executed``.

    The churn counters (DESIGN.md, "Fault tolerance and elasticity")
    are likewise parallel-only: ``worker_failures`` counts
    workers that died mid-search, ``tasks_retried`` the in-flight tasks
    requeued because their worker died, ``groups_reassigned`` the sibling
    groups that lost their affinity owner (requeued in-flight work plus
    orphaned affinity queues), and ``elastic_joins`` the workers that
    connected mid-search.  ``worker_tasks`` maps worker id -> tasks
    merged from that worker; its values sum to every task the run merged,
    so per-worker shares (and whether an elastic joiner measurably
    received work) are auditable after the fact.
    """

    #: Counters of the deleted worker-side dedup pre-filter and of the
    #: deleted sharded-store Bloom filter.  Nothing sets them;
    #: ``bench/trace.py`` still reads them by ``getattr``, so they stay
    #: until a ``benchmark`` PR drops them together with the metrics they
    #: feed (``mc.worker.stub_ratio``, ``mc.worker.stub_fp``,
    #: ``mc.wire.bytes_saved``, ``mc.store.bloom_negatives``).
    bloom_prefilter_drops = bloom_prefilter_fp = result_bytes_saved = \
        store_bloom_negatives = 0

    def __init__(self):
        self.violations: list[Violation] = []
        self.transitions_executed = 0
        self.unique_states = 0
        self.revisited_states = 0
        self.quiescent_states = 0
        self.discover_packet_runs = 0
        self.discover_stats_runs = 0
        self.wall_time = 0.0
        self.terminated = "exhausted"
        #: How the search ran: "serial", "local-fork", "local-spawn",
        #: "socket".
        self.engine = "serial"
        #: Worker processes actually used (0 for serial).
        self.workers = 0
        #: Per-worker replay-cache counters, summed across workers.
        self.cache_hits = 0
        self.cache_misses = 0
        #: Restoration overhead: transitions re-executed to restore parent
        #: states, and to rebuild siblings from a restored parent.
        self.replayed_transitions = 0
        self.rebuilt_transitions = 0
        #: Scheduler routing: groups that ran on the worker whose cache
        #: holds their parent trace vs. groups routed elsewhere.
        self.affinity_hits = 0
        self.affinity_misses = 0
        #: Worker churn (see class docstring).
        self.worker_failures = 0
        self.tasks_retried = 0
        self.groups_reassigned = 0
        self.elastic_joins = 0
        #: worker id -> tasks merged from that worker.
        self.worker_tasks: dict[int, int] = {}
        #: Per-state hot path (DESIGN.md): component-digest cache hits and
        #: recomputes, bytes of canonical rendering actually hashed, and
        #: components lazily copied by copy-on-write clones.  Summed across
        #: workers for parallel runs.
        self.hash_hits = 0
        self.hash_misses = 0
        self.bytes_hashed = 0
        self.cow_copied = 0
        #: Explored-set state store (DESIGN.md, "State store and
        #: restartability"): which store served the run, lookups answered
        #: from memory, lookups that read a spilled shard file, and
        #: digests evicted from the resident set.
        self.store = "memory"
        self.store_hits = 0
        self.store_spill_reads = 0
        self.store_evictions = 0
        #: Pickled size of every merged task result's children payload —
        #: the per-child part of results (parallel runs only).
        self.result_payload_bytes = 0
        #: Master checkpointing: snapshots written (and the wall time they
        #: took), bytes actually written (hard-linked segments excluded —
        #: the incremental-snapshot savings), and — on a resumed run — the
        #: checkpoint the run started from.
        self.checkpoints_written = 0
        self.checkpoint_seconds = 0.0
        self.checkpoint_bytes_written = 0
        self.resumed_from: str | None = None
        #: Replacements requested for dead workers.
        self.workers_respawned = 0
        #: Failure containment (DESIGN.md, "Failure containment").
        #: ``workers_hung`` counts workers declared hung via the per-task
        #: deadline; ``deadline_kills`` the kills that followed (they can
        #: differ if a kill fails); ``tasks_quarantined`` the poison groups
        #: sent to the sandbox; ``model_errors`` the handler exceptions
        #: contained as replayable counterexamples (serial and parallel).
        self.workers_hung = 0
        self.deadline_kills = 0
        self.tasks_quarantined = 0
        self.model_errors = 0
        #: Poison groups abandoned after the sandbox also failed.
        self.quarantined_tasks: list[QuarantinedTask] = []

    def add_hash_stats(self, snapshot: tuple[int, int, int, int]) -> None:
        """Fold one ``HashStats.snapshot()`` (or a delta) into the totals."""
        hits, misses, bytes_hashed, cow_copied = snapshot
        self.hash_hits += hits
        self.hash_misses += misses
        self.bytes_hashed += bytes_hashed
        self.cow_copied += cow_copied

    @property
    def found_violation(self) -> bool:
        return bool(self.violations)

    def summary(self) -> str:
        lines = [
            f"engine               : {self.engine}"
            + (f" ({self.workers} workers)" if self.workers else ""),
            f"transitions executed : {self.transitions_executed}",
            f"unique states        : {self.unique_states}",
            f"revisited states     : {self.revisited_states}",
            f"quiescent states     : {self.quiescent_states}",
            f"discover_packets runs: {self.discover_packet_runs}",
            f"discover_stats runs  : {self.discover_stats_runs}",
            f"hot path             : {self.hash_hits} digest hits /"
            f" {self.hash_misses} misses, {self.bytes_hashed} B hashed,"
            f" {self.cow_copied} CoW copies",
            f"wall time            : {self.wall_time:.2f}s",
            f"terminated           : {self.terminated}",
            f"violations           : {len(self.violations)}",
        ]
        if self.store != "memory":
            lines.insert(-1, (
                f"state store          : {self.store},"
                f" {self.store_hits} memory hit(s),"
                f" {self.store_spill_reads} spill read(s),"
                f" {self.store_evictions} eviction(s)"
            ))
        if self.resumed_from:
            lines.insert(-1, f"resumed from         : {self.resumed_from}")
        if self.checkpoints_written:
            lines.insert(-1, (
                f"checkpoints          : {self.checkpoints_written}"
                f" written ({self.checkpoint_seconds:.2f}s,"
                f" {self.checkpoint_bytes_written} B)"
            ))
        if self.workers:
            lines.insert(-1, (
                f"restoration          : {self.replayed_transitions} replayed"
                f" + {self.rebuilt_transitions} rebuilt"
                f" (cache {self.cache_hits} hits / {self.cache_misses} misses,"
                f" affinity {self.affinity_hits}/"
                f"{self.affinity_hits + self.affinity_misses})"
            ))
            lines.insert(-1, (
                f"result payload       : {self.result_payload_bytes} B"
                f" shipped"
            ))
            lines.insert(-1, (
                f"fault tolerance      : {self.worker_failures} worker"
                f" failure(s), {self.tasks_retried} task(s) retried,"
                f" {self.groups_reassigned} group(s) reassigned,"
                f" {self.elastic_joins} elastic join(s),"
                f" {self.workers_respawned} respawned"
            ))
            if self.workers_hung or self.tasks_quarantined:
                lines.insert(-1, (
                    f"containment          : {self.workers_hung} worker(s)"
                    f" hung ({self.deadline_kills} deadline kill(s)),"
                    f" {self.tasks_quarantined} task(s) quarantined,"
                    f" {len(self.quarantined_tasks)} abandoned"
                ))
        if self.model_errors:
            lines.insert(-1,
                         f"model errors         : {self.model_errors}"
                         f" handler exception(s) contained")
        for diagnostic in self.quarantined_tasks[:5]:
            lines.append(f"  - quarantined: {diagnostic!r}")
        for violation in self.violations[:5]:
            lines.append(f"  - {violation.property_name}: {violation.message}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"SearchStats(transitions={self.transitions_executed},"
                f" unique={self.unique_states},"
                f" violations={len(self.violations)})")


class Searcher:
    """Figure 5's model-checking loop: the one driver (:meth:`run`), the
    one per-node body (:meth:`expand_node`) and the one commit
    (:meth:`absorb`) of every engine."""

    def __init__(self, system_factory, properties: list, config: NiceConfig,
                 strategy: Strategy | None = None, discoverer=None,
                 scenario_spec=None):
        """``system_factory`` builds and boots a fresh initial System;
        ``discoverer`` provides concolic discovery (None disables symbolic
        execution regardless of config); ``scenario_spec`` (a
        :class:`~repro.mc.wire.ScenarioSpec` or None) is the scenario's
        portable identity: stored into checkpoints so ``nice resume`` can
        rebuild the System by registry name, and shipped to spawn/socket
        workers so they can."""
        self.system_factory = system_factory
        self.properties = list(properties)
        self.config = config
        self.discoverer = discoverer
        self.scenario_spec = scenario_spec
        #: A loaded :class:`~repro.mc.store.Checkpoint` to continue from
        #: (set by ``nice.resume``), or None for a fresh search.
        self._resume = None
        self._use_se = bool(config.use_symbolic_execution and discoverer)
        self._strategy = strategy
        #: client.packets map of Figure 5: (host, ctrl_hash) -> [Packet].
        self._packet_cache: dict[tuple[str, str], list] = {}
        #: discover_stats cache: (switch, ctrl_hash) -> [stats dict].
        self._stats_cache: dict[tuple[str, str], list] = {}
        self._rng = random.Random(config.seed)
        #: Filled in by :meth:`run` (a worker's searcher only ever counts
        #: its discovery runs in ``stats``): the statistics, the explored
        #: set, and the pristine initial state restorations replay from.
        self.stats = SearchStats()
        self._explored = None
        self._initial: System | None = None

    # ------------------------------------------------------------------
    # The driver
    # ------------------------------------------------------------------

    def run(self) -> SearchStats:
        stats = self.stats = SearchStats()
        resume = self._resume
        start = time.perf_counter()
        initial = self._initial = self.system_factory()
        strategy = self._strategy or make_strategy(self.config, initial.app)
        for prop in self.properties:
            prop.reset(initial)
        expander = self._expander(strategy)
        stats.engine, stats.workers = expander.name, expander.workers
        try:
            if resume is None:
                # Before anything is opened: a search that ends at its
                # initial state has no store, no workers, no handler.
                self.absorb(0, 0, [
                    ((), found) for found in self._check(initial, None, [])],
                    ())
            explored = self._explored = store_mod.create_store(self.config)
            baseline = None
            if resume is None:
                explored.add(initial.state_hash())
                expander.push(((), None), [initial])
            else:
                resume.restore_stats(stats)
                # Preload the explored set; when the checkpoint's record
                # layout matches the store's, its path becomes the baseline
                # the next snapshot hard-links unchanged segments from.
                baseline = store_mod.restore_store(explored, resume)
                if resume.rng_state is not None:
                    self._rng.setstate(resume.rng_state)
                # Whatever held these nodes died with the previous run:
                # every checkpointed group restarts unowned, by replay.
                for group in resume.frontier:
                    expander.push(group)
            checkpointer = store_mod.Checkpointer(
                self.config, self.scenario_spec, explored, stats,
                previous=baseline)
            checkpointer.install()
            # start() is inside the try: a transport that fails to come up
            # (accept deadline, dead spawn) must still have stop() run so
            # no listener or half-started worker outlives the search.
            try:
                expander.start()
                pending, pump, due = \
                    expander.pending, expander.pump, checkpointer.due
                while pending():
                    if due():
                        # A snapshot captures a consistent cut: between
                        # node expansions, with nothing in flight (or
                        # resumed counters would double-count).
                        expander.drain()
                        checkpointer.write(expander.groups(),
                                           self._rng.getstate())
                        if checkpointer.sigterm:
                            stats.terminated = "sigterm"
                            break
                    else:
                        pump()
            finally:
                # Nested so an exception out of stop() (a transport
                # teardown bug, a signal mid-close) can never skip
                # restoring the previous SIGTERM handler — leaking the
                # checkpointer's flag-setting handler past the search
                # would swallow real SIGTERMs for the rest of the process.
                try:
                    expander.stop()
                finally:
                    checkpointer.restore()
                    checkpointer.sync()
                    stats.unique_states = len(explored)
                    explored.close()
        except _StopSearch:
            pass
        stats.wall_time = time.perf_counter() - start
        # Every System this process touched descends from `initial` by
        # clone, so its shared HashStats holds all the hashing done here;
        # a pool's workers ship theirs with each result.
        stats.add_hash_stats(initial._hash_stats.snapshot())
        return stats

    def _expander(self, strategy: Strategy):
        """What expands the frontier: this process — or a worker pool, in
        :class:`~repro.mc.scheduler.ParallelSearcher`."""
        return _InlineExpander(self, strategy)

    # ------------------------------------------------------------------
    # One node, one commit
    # ------------------------------------------------------------------

    def expand_node(self, system: System, strategy: Strategy, depth: int,
                    budget: float = math.inf):
        """Enumerate ``system``'s enabled transitions and clone, execute,
        property-check and hash one child per transition.

        Returns ``(steps, digests, built, violations, transitions,
        quiescent)``: the transition, digest and System of every child to
        commit, in step; :meth:`_check`'s violation records; the
        transitions executed; 1 for a quiescent node.  The child that
        trips a stop — a violation under ``stop_at_first_violation``, the
        ``budget``-th transition — is executed and counted, not committed."""
        config = self.config
        enabled = self._enabled(system, strategy)
        if not enabled:
            return (), (), (), self._check(system, None, [], True), 0, 1
        if config.max_depth is not None and depth >= config.max_depth:
            return (), (), (), (), 0, 0
        stop_first = config.stop_at_first_violation
        matching = config.state_matching
        steps, digests, built, violations = [], [], [], []
        executed = 0
        for transition in enabled:
            child = system.clone()
            executed += 1
            try:
                child.execute(transition)
                strategy.post_execute(child, transition)
            except Exception as exc:
                # Engine errors always propagate; an exception out of a
                # model handler becomes a counterexample (the crashed
                # child is discarded — it is not a state of the model).
                # The message is ``type: str(exc)``, identical wherever the
                # transition ran; the local traceback is the details.
                if isinstance(exc, NiceError):
                    raise
                violations.append(
                    (MODEL_ERROR_PROPERTY, f"{type(exc).__name__}: {exc}",
                     "", transition, traceback.format_exc()))
                child = None
            else:
                self._check(child, transition, violations)
            if (violations and stop_first) or executed >= budget:
                break
            if child is not None:
                # The digest feeds the explored-set dedup; without state
                # matching nothing would read it.
                steps.append(transition)
                digests.append(child.state_hash() if matching else None)
                built.append(child)
        return steps, digests, built, violations, executed, 0

    def absorb(self, transitions: int, quiescent: int, violations,
               digests) -> list:
        """Commit expanded nodes: count, record the ``(node trace,
        violation record)`` pairs, apply the budget, and — in a
        ``finally``, so the children always land before a stop unwinds —
        deduplicate their children's ``digests`` against the explored set
        in one batched append.  Returns one flag per digest, True for a
        fresh child: the expander's to queue."""
        stats = self.stats
        stats.transitions_executed += transitions
        stats.quiescent_states += quiescent
        try:
            for trace, found in violations:
                self._record(trace, *found)
            limit = self.config.max_transitions
            if limit is not None and stats.transitions_executed >= limit:
                stats.terminated = "max_transitions"
                raise _StopSearch()
        finally:
            # add_batch preserves order and in-batch duplicate semantics:
            # the frontier is what per-child adds built.
            flags = (self._explored.add_batch(digests)
                     if digests and self.config.state_matching
                     else [True] * len(digests))
            stats.revisited_states += flags.count(False)
        return flags

    def _record(self, trace, property_name: str, message: str, digest: str,
                transition, details: str | None = None) -> None:
        stats = self.stats
        if transition is not None:
            trace += (transition,)
        if details is None:
            stats.violations.append(
                Violation(property_name, message, trace, digest))
        else:
            stats.model_errors += 1
            stats.violations.append(
                ModelError(property_name, message, trace, digest, details))
        if self.config.stop_at_first_violation:
            stats.terminated = "first_violation"
            raise _StopSearch()

    def _check(self, system: System, transition, found: list,
               quiescent: bool = False) -> list:
        """Append every property's verdict on ``system`` — reached by
        ``transition``, or found quiescent — to ``found``, as
        ``(property, message, digest, transition)`` records (a contained
        model exception's has a fifth element, its traceback)."""
        for prop in self.properties:
            try:
                if quiescent:
                    prop.check_quiescent(system)
                else:
                    prop.check(system, transition)
            except PropertyViolation as violation:
                found.append((violation.property_name, violation.message,
                              system.state_hash(), transition))
        return found

    # ------------------------------------------------------------------
    # Enabled transitions (base + discovery)
    # ------------------------------------------------------------------

    def _enabled(self, system: System,
                 strategy: Strategy) -> list[Transition]:
        enabled = system.enabled_transitions()
        if self._use_se:
            # Figure 5's ``state(ctrl)``, the key of both discovery caches.
            ctrl_hash = system.controller_state_hash()
            enabled = self._add_symbolic_sends(system, enabled, ctrl_hash)
            enabled = self._substitute_stats(system, enabled, ctrl_hash)
        return strategy.filter(system, enabled)

    def _add_symbolic_sends(self, system, enabled, ctrl_hash):
        extra: list[Transition] = []
        for name in system._host_order:
            host = system.hosts[name]
            if not getattr(host, "symbolic_client", False):
                continue
            if not host.can_send_more(self.config.max_pkt_sequence):
                continue
            key = (name, ctrl_hash)
            if key not in self._packet_cache:
                switch_id, port = system.host_locations[name]
                packets = self.discoverer.discover_packets(
                    system.app, switch_id, port, system.topo, host
                )
                self._packet_cache[key] = packets
                self.stats.discover_packet_runs += 1
            for packet in self._packet_cache[key]:
                extra.append(
                    Transition(tk.HOST_SEND, name,
                               ("sym", packet.header_tuple()),
                               payload=packet)
                )
        return enabled + extra

    def _substitute_stats(self, system, enabled, ctrl_hash):
        """Replace plain delivery of a pending StatsReply with transitions
        carrying symbolically-discovered representative values."""
        out: list[Transition] = []
        for transition in enabled:
            if transition.kind != tk.CTRL_HANDLE:
                out.append(transition)
                continue
            switch = system.switches[transition.actor]
            if not switch.ofp_out or not isinstance(switch.ofp_out.peek(),
                                                    StatsReply):
                out.append(transition)
                continue
            key = (transition.actor, ctrl_hash)
            if key not in self._stats_cache:
                reply = switch.ofp_out.peek()
                variants = self.discoverer.discover_stats(
                    system.app, transition.actor, reply.stats
                )
                self._stats_cache[key] = variants
                self.stats.discover_stats_runs += 1
            variants = self._stats_cache[key]
            if not variants:
                out.append(transition)
                continue
            for index, stats in enumerate(variants):
                out.append(
                    Transition(tk.CTRL_STATS, transition.actor,
                               ("stats", index), payload=stats)
                )
        return out


class _InlineExpander:
    """The zero-worker expander: the frontier lives here and every node
    is expanded in this process, one per :meth:`pump` — with no pickling,
    digest packing or result message, the costs of the transport boundary
    (``WorkerRuntime.expand``).

    The frontier is a sequence of sibling groups ``[parent trace, steps,
    Systems | None]`` (no Systems: resumed from a checkpoint, restored by
    replay).  Flattened, it is Figure 5's node stack/queue: DFS takes the
    last step of the last group, BFS the first of the first, and the
    random order keeps groups of one, so its seeded draw over
    ``len(frontier)`` picks a node.  ``steps`` None is the single node
    *at* ``trace``: the initial state, or any node of an older serial
    checkpoint."""

    name = "serial"
    workers = 0

    def __init__(self, searcher: Searcher, strategy: Strategy):
        self.searcher = searcher
        self.strategy = strategy
        order = searcher.config.search_order
        self._random = order == ORDER_RANDOM
        # DFS pops the tail and BFS the head, both O(1) on a deque; the
        # random order needs positional pops, so it keeps a plain list.
        frontier = self._frontier = [] if self._random else deque()
        self._at = -1 if order == ORDER_DFS else 0
        #: Truthy while a node is left (bound: asked once per node).
        self.pending = frontier.__len__

    def start(self) -> None:
        """Nothing to bring up, to wait for, or to tear down."""

    drain = stop = start

    def groups(self) -> list:
        return [(trace, steps) for trace, steps, _ in self._frontier]

    def push(self, group, systems=None) -> None:
        trace, steps = group
        if steps is None or not self._random:
            self._frontier.append([trace, steps, systems])
        else:
            for index, step in enumerate(steps):
                self._frontier.append(
                    [trace, [step], systems and [systems[index]]])

    def pump(self) -> None:
        searcher, frontier, at = self.searcher, self._frontier, self._at
        index = (searcher._rng.randrange(len(frontier)) if self._random
                 else at)
        trace, steps, systems = frontier[index]
        if steps is None or len(steps) == 1:
            del frontier[index]
        system = systems.pop(at) if systems else None
        if steps is not None:
            trace += (steps.pop(at),)
        if system is None:
            # Trace-replay restoration (Section 6): clone the initial
            # state and deterministically re-execute the node's path.
            system = replay_from(searcher._initial.clone(), trace,
                                 self.strategy)
        limit = searcher.config.max_transitions
        kids, digests, built, violations, transitions, quiescent = \
            searcher.expand_node(
                system, self.strategy, len(trace),
                math.inf if limit is None
                else limit - searcher.stats.transitions_executed)
        fresh = searcher.absorb(
            transitions, quiescent,
            violations and [(trace, found) for found in violations], digests)
        if False in fresh:
            kids, built = (list(compress(kids, fresh)),
                           list(compress(built, fresh)))
        if kids:
            self.push((trace, kids), built)


class _StopSearch(Exception):
    """Internal: unwind the search loop."""
