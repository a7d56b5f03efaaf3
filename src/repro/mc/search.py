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

The frontier holds the children themselves: each is a copy-on-write clone
of its parent (:meth:`System.clone <repro.mc.system.System.clone>`),
executed, checked and hashed once, and popped as is.  Where no System is at
hand — a frontier resumed from a checkpoint here, a sibling group a worker
of :class:`~repro.mc.scheduler.ParallelSearcher` did not retain — the node
is restored by deterministically replaying its transition path from the
initial state, the same mechanism the paper uses to reproduce violations
(Section 6).  State hashing combines cached per-component digests, so
expanding a state only re-renders the switches/hosts the transition
actually touched (DESIGN.md, "Search engine" and "Per-state hot path").

The explored set lives behind a :class:`~repro.mc.store.StateStore`
(``NiceConfig.store`` — in-memory by default, or sharded with disk
spill), and with ``checkpoint_dir`` set the loop snapshots store +
frontier + stats between expansions (and on SIGTERM) so a killed search
resumes mid-flight via ``nice resume``, bit-identical to an
uninterrupted run — DESIGN.md, "State store and restartability".
"""

from __future__ import annotations

import random
import time
import traceback
from collections import deque

from repro.config import (
    NiceConfig,
    ORDER_BFS,
    ORDER_DFS,
    ORDER_RANDOM,
)
from repro.errors import NiceError, PropertyViolation, SearchError
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
                 trace: tuple[Transition, ...], state_hash: str,
                 transitions_at_detection: int):
        self.property_name = property_name
        self.message = message
        self.trace = trace
        self.state_hash = state_hash
        self.transitions_at_detection = transitions_at_detection

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
    errors (:class:`~repro.errors.NiceError`) are never contained, and
    ``fail_fast=True`` restores abort-on-exception for model code too."""

    def __init__(self, property_name, message, trace, state_hash,
                 transitions_at_detection, details: str = ""):
        super().__init__(property_name, message, trace, state_hash,
                         transitions_at_detection)
        self.details = details

    def __repr__(self):
        return (f"ModelError({self.message!r},"
                f" trace length {len(self.trace)})")


class QuarantinedTask:
    """Structured diagnostic for a poison sibling group the search gave up
    executing (DESIGN.md, "Failure containment").

    Recorded when a group implicated in ``max_task_retries`` worker deaths
    *also* fails in the quarantine sandbox (or quarantine is disabled):
    the search degrades gracefully — every other branch of the state space
    is still explored — and this object preserves what was abandoned:
    the parent ``trace``, the sibling transitions (``siblings`` is None
    for an initial-state group), how many ``attempts`` were made, and the
    ``reason`` the last one failed (signal name, exit code, or timeout)."""

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

    The churn counters (PR 4, DESIGN.md "Fault tolerance and
    elasticity") are likewise parallel-only: ``worker_failures`` counts
    workers that died mid-search, ``tasks_retried`` the in-flight tasks
    requeued because their worker died, ``groups_reassigned`` the sibling
    groups that lost their affinity owner (requeued in-flight work plus
    orphaned affinity queues), and ``elastic_joins`` the workers that
    connected mid-search.  ``worker_tasks`` maps worker id -> tasks
    merged from that worker; its values sum to every task the run merged,
    so per-worker shares (and whether an elastic joiner measurably
    received work) are auditable after the fact.
    """

    #: Counters of the deleted worker-side dedup pre-filter.  Nothing sets
    #: them; ``bench/trace.py`` still reads them by ``getattr``, so they
    #: stay until a ``benchmark`` PR drops them together with the metrics
    #: they feed (``mc.worker.stub_ratio``, ``mc.worker.stub_fp``,
    #: ``mc.wire.bytes_saved``).
    bloom_prefilter_drops = bloom_prefilter_fp = result_bytes_saved = 0

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
        #: Lookups the sharded store's per-shard Bloom filters answered
        #: (definite negatives that skipped the index/disk probe).
        self.store_bloom_negatives = 0
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
        #: Autoscaler (``respawn_workers``): replacements requested for
        #: dead workers.
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
                f" {self.store_evictions} eviction(s),"
                f" {self.store_bloom_negatives} bloom negative(s)"
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
    """Figure 5's model-checking loop."""

    def __init__(self, system_factory, properties: list, config: NiceConfig,
                 strategy: Strategy | None = None, discoverer=None,
                 scenario_spec=None):
        """``system_factory`` builds and boots a fresh initial System;
        ``discoverer`` provides concolic discovery (None disables symbolic
        execution regardless of config); ``scenario_spec`` (a
        :class:`~repro.mc.wire.ScenarioSpec` or None) is the scenario's
        portable identity, stored into checkpoints so ``nice resume`` can
        rebuild the System by registry name."""
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
        #: Pristine initial state kept for trace-replay restoration.
        self._initial: System | None = None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SearchStats:
        result = SearchStats()
        resume = self._resume
        start = time.perf_counter()
        initial = self.system_factory()
        self._initial = initial
        strategy = self._strategy or make_strategy(self.config, initial.app)
        for prop in self.properties:
            prop.reset(initial)
        if resume is None:
            try:
                self._check_properties(initial, None, result, ())
            except _StopSearch:
                result.wall_time = time.perf_counter() - start
                result.add_hash_stats(initial._hash_stats.snapshot())
                return result

        explored = store_mod.create_store(self.config)
        # Frontier entries are (system | None, trace): a resumed node has
        # no live system and is restored by replay on pop.  DFS pops the
        # tail and BFS the head, both O(1) on a deque; the random order
        # needs positional pops, so it keeps a plain list.
        frontier_type = (list if self.config.search_order == ORDER_RANDOM
                         else deque)
        baseline = None
        if resume is not None:
            resume.restore_stats(result)
            # Preload the explored set (with the checkpoint's Bloom
            # summaries when compatible); when the checkpoint's record
            # layout matches the store's, its path becomes the baseline
            # the next snapshot hard-links unchanged segments from.
            baseline = store_mod.restore_store(explored, resume)
            if resume.rng_state is not None:
                self._rng.setstate(resume.rng_state)
            frontier = frontier_type(self._resume_nodes(resume.frontier))
        else:
            explored.add(initial.state_hash())
            frontier = frontier_type([(initial, ())])
        checkpointer = store_mod.Checkpointer(
            self.config, self.scenario_spec, explored, result,
            previous=baseline)
        checkpointer.install()
        try:
            while frontier:
                if checkpointer.due():
                    # Between node expansions every structure is
                    # consistent: snapshot the frontier as single-node
                    # sibling groups (the scheduler's wire form, so a
                    # serial checkpoint resumes on any transport).
                    checkpointer.write(
                        [(trace, None) for _, trace in frontier],
                        self._rng.getstate())
                    if checkpointer.sigterm:
                        result.terminated = "sigterm"
                        raise _StopSearch()
                system, trace = self._pop(frontier)
                if system is None:
                    system = self._restore(trace, strategy)
                enabled = self._enabled(system, strategy, result)
                if not enabled:
                    result.quiescent_states += 1
                    self._check_quiescent(system, result, trace)
                    continue
                if (self.config.max_depth is not None
                        and len(trace) >= self.config.max_depth):
                    continue
                # One expansion = one batched store append: children are
                # collected (digests computed at the same per-child point
                # as before) and committed through add_batch in a finally,
                # so the children executed before a mid-expansion stop
                # still land exactly as per-child adds did.
                batch: list = []
                try:
                    for transition in enabled:
                        child = system.clone()
                        child_trace = trace + (transition,)
                        try:
                            child.execute(transition)
                            strategy.post_execute(child, transition)
                        except Exception as exc:
                            # Engine errors always propagate; model-handler
                            # exceptions become counterexamples unless
                            # fail_fast restores abort-on-exception.
                            if isinstance(exc, NiceError) \
                                    or self.config.fail_fast:
                                raise
                            result.transitions_executed += 1
                            self._record_model_error(exc, child_trace, result)
                            continue
                        result.transitions_executed += 1
                        self._check_properties(child, transition, result,
                                               child_trace)
                        if (self.config.max_transitions is not None
                                and result.transitions_executed
                                >= self.config.max_transitions):
                            result.terminated = "max_transitions"
                            raise _StopSearch()
                        batch.append(
                            (child, child_trace,
                             child.state_hash()
                             if self.config.state_matching else None)
                        )
                finally:
                    self._commit_batch(batch, explored, frontier, result)
        except _StopSearch:
            pass
        finally:
            checkpointer.restore()
            checkpointer.sync()
            result.unique_states = len(explored)
            explored.close()
        result.wall_time = time.perf_counter() - start
        # Every system in a serial run descends from `initial` by clone, so
        # the shared HashStats object holds the whole run's counters.
        result.add_hash_stats(initial._hash_stats.snapshot())
        return result

    def _commit_batch(self, batch, explored, frontier, result) -> None:
        """Deduplicate one expansion's children against the explored set
        as a single batched append; frontier order and revisit counts are
        identical to the per-child form (add_batch preserves order and
        in-batch duplicate semantics)."""
        if not batch:
            return
        if not self.config.state_matching:
            for node, child_trace, _ in batch:
                frontier.append((node, child_trace))
            return
        for new, (node, child_trace, _) in zip(
                explored.add_batch([digest for _, _, digest in batch]),
                batch):
            if new:
                frontier.append((node, child_trace))
            else:
                result.revisited_states += 1

    @staticmethod
    def _resume_nodes(groups):
        """Checkpointed sibling groups -> serial frontier nodes, in
        checkpoint order.  ``(trace, None)`` is the single node *at*
        ``trace``; ``(trace, steps)`` fans out one node per sibling —
        the same expansion :meth:`WorkerRuntime.expand` applies, so a
        checkpoint written by the parallel scheduler resumes serially."""
        for trace, steps in groups:
            if steps is None:
                yield (None, trace)
            else:
                for step in steps:
                    yield (None, trace + (step,))

    def _restore(self, trace, strategy: Strategy) -> System:
        """Trace-replay checkpoint restoration (Section 6): clone the initial
        state and deterministically re-execute the node's transition path."""
        return replay_from(self._initial.clone(), trace, strategy)

    def _pop(self, frontier):
        if self.config.search_order == ORDER_DFS:
            return frontier.pop()
        if self.config.search_order == ORDER_BFS:
            # O(1) on the deque frontier; list.pop(0) was O(n) per pop.
            return frontier.popleft()
        if self.config.search_order == ORDER_RANDOM:
            index = self._rng.randrange(len(frontier))
            return frontier.pop(index)
        raise SearchError(f"unknown search order {self.config.search_order!r}")

    # ------------------------------------------------------------------
    # Enabled transitions (base + discovery)
    # ------------------------------------------------------------------

    def _enabled(self, system: System, strategy: Strategy,
                 result: SearchStats) -> list[Transition]:
        enabled = system.enabled_transitions()
        if self._use_se:
            enabled = self._add_symbolic_sends(system, enabled, result)
            enabled = self._substitute_stats(system, enabled, result)
        return strategy.filter(system, enabled)

    def _add_symbolic_sends(self, system, enabled, result):
        ctrl_hash = system.controller_state_hash()
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
                result.discover_packet_runs += 1
            for packet in self._packet_cache[key]:
                extra.append(
                    Transition(tk.HOST_SEND, name,
                               ("sym", packet.header_tuple()),
                               payload=packet)
                )
        return enabled + extra

    def _substitute_stats(self, system, enabled, result):
        """Replace plain delivery of a pending StatsReply with transitions
        carrying symbolically-discovered representative values."""
        ctrl_hash = system.controller_state_hash()
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
                result.discover_stats_runs += 1
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

    # ------------------------------------------------------------------
    # Property checking
    # ------------------------------------------------------------------

    def _check_properties(self, system, transition, result, trace) -> None:
        for prop in self.properties:
            try:
                prop.check(system, transition)
            except PropertyViolation as violation:
                self._record(violation, system, result, trace)

    def _check_quiescent(self, system, result, trace) -> None:
        for prop in self.properties:
            try:
                prop.check_quiescent(system)
            except PropertyViolation as violation:
                self._record(violation, system, result, trace)

    def _record(self, violation: PropertyViolation, system, result, trace):
        result.violations.append(
            Violation(violation.property_name, violation.message, trace,
                      system.state_hash(), result.transitions_executed)
        )
        if self.config.stop_at_first_violation:
            result.terminated = "first_violation"
            raise _StopSearch()

    def _record_model_error(self, exc: Exception, trace, result) -> None:
        """Contain an exception that escaped a model handler: record it as
        a replayable :class:`ModelError` counterexample (the crashed child
        state is discarded — it is not a state of the model).  The message
        is ``type: str(exc)`` — identical however the transition executed,
        so serial and every transport agree on the recorded violation; the
        engine-specific traceback goes into ``details``."""
        result.model_errors += 1
        result.violations.append(
            ModelError(MODEL_ERROR_PROPERTY,
                       f"{type(exc).__name__}: {exc}", trace, "",
                       result.transitions_executed,
                       details=traceback.format_exc())
        )
        if self.config.stop_at_first_violation:
            result.terminated = "first_violation"
            raise _StopSearch()


class _StopSearch(Exception):
    """Internal: unwind the search loop."""
