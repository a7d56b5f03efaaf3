"""The transport-agnostic scheduler: spawn workers, socket workers,
affinity routing, replay-cache instrumentation, and honest fallbacks.

Acceptance contract (ISSUE 2): an exhaustive search through the *socket*
transport on localhost (2+ workers) and through the *spawn* local
transport reports ``unique_states``, ``transitions_executed`` and violated
properties identical to the serial engine.  The scheduler and worker
runtime are shared by every transport, so these tests close the loop the
fork-only suite (``tests/test_parallel_search.py``) opened.
"""

from __future__ import annotations

import gc
import itertools
import pickle
import socket as socket_mod
import threading
import warnings
from collections import OrderedDict

import pytest

import gc_probe
from contract import counters, exhaustive, requires_fork, violated_properties
from fault_helpers import small_tasks
from repro import nice, scenarios
from repro.config import NiceConfig
from repro.mc import scheduler as scheduler_mod
from repro.mc import store as store_mod
from repro.mc import wire
from repro.mc.scheduler import ParallelSearcher, _Scheduler
from repro.mc.transport import create_transport
from repro.mc.transport.socket import parse_address, run_worker
from repro.mc.worker import GC_YOUNG_THRESHOLD, WorkerRuntime, _serve
from repro.nice import Scenario
from repro.properties.base import Property
from repro.scenarios import with_config
from scripted_transport import InlineTransport


@pytest.fixture(scope="module")
def serial_direct_path():
    return exhaustive(scenarios.pyswitch_direct_path())


def hand_built_scenario() -> Scenario:
    """A Scenario assembled without the registry: no portable spec, so
    only fork workers (closure inheritance) can serve it."""
    template = scenarios.pyswitch_direct_path()
    return Scenario(template.topo, template.app_factory,
                    template.hosts_factory, template.properties,
                    template.config, name="hand-built")


# ----------------------------------------------------------------------
# Acceptance: spawn and socket explore the identical state space
# ----------------------------------------------------------------------

class TestSpawnTransport:
    def test_exhaustive_search_matches_serial(self, serial_direct_path):
        parallel = exhaustive(scenarios.pyswitch_direct_path(),
                              workers=2, start_method="spawn")
        assert parallel.engine == "local-spawn"
        assert parallel.workers == 2
        assert counters(parallel) == counters(serial_direct_path)
        assert violated_properties(parallel) == \
            violated_properties(serial_direct_path)


class TestSocketTransport:
    def test_exhaustive_search_matches_serial(self, serial_direct_path):
        parallel = exhaustive(scenarios.pyswitch_direct_path(),
                              workers=2, transport="socket")
        assert parallel.engine == "socket"
        assert parallel.workers == 2
        assert counters(parallel) == counters(serial_direct_path)
        assert violated_properties(parallel) == \
            violated_properties(serial_direct_path)

    @pytest.mark.slow
    def test_first_violation_mode(self):
        result = nice.run(with_config(scenarios.pyswitch_direct_path(),
                                      workers=2, transport="socket"))
        assert result.found_violation
        assert result.terminated == "first_violation"
        assert violated_properties(result) == ["StrictDirectPaths"]

    def test_externally_started_workers_on_a_chosen_address(
            self, serial_direct_path):
        """``spawn_socket_workers=False``: the master only listens, on
        ``worker_address``, for workers somebody else started — here two
        ``nice worker`` loops begun before it, retrying until it is up."""
        with socket_mod.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            address = "127.0.0.1:%d" % probe.getsockname()[1]
        scenario = with_config(
            scenarios.pyswitch_direct_path(), stop_at_first_violation=False,
            workers=2, transport="socket", worker_address=address,
            spawn_socket_workers=False)
        transport = create_transport(scenario.config, scenario.spec)
        assert transport.address == address and not transport.spawn_workers
        fleet = [threading.Thread(target=run_worker, args=(address,),
                                  kwargs=dict(retries=8), daemon=True)
                 for _ in range(2)]
        for worker in fleet:
            worker.start()
        parallel = nice.run(scenario)
        for worker in fleet:
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert parallel.engine == "socket" and parallel.workers == 2
        assert counters(parallel) == counters(serial_direct_path)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7000") == ("127.0.0.1", 7000)
        assert parse_address("7000") == ("127.0.0.1", 7000)
        assert parse_address(":7000") == ("127.0.0.1", 7000)
        with pytest.raises(ValueError):
            parse_address("nope")


# ----------------------------------------------------------------------
# Honest fallbacks: a workers>0 request that cannot be honored warns
# ----------------------------------------------------------------------

class TestFallbackWarnings:
    @requires_fork
    def test_spawn_without_spec_falls_back_to_fork_with_warning(self):
        scenario = hand_built_scenario()
        with pytest.warns(RuntimeWarning, match="no portable spec"):
            result = exhaustive(scenario, workers=2, start_method="spawn")
        assert result.engine == "local-fork"

    def test_no_fork_no_spec_runs_serial_with_warning(self, monkeypatch):
        monkeypatch.setattr(
            "repro.mc.transport.multiprocessing.get_all_start_methods",
            lambda: ["spawn"])
        scenario = hand_built_scenario()
        with pytest.warns(RuntimeWarning, match="cannot be honored"):
            result = exhaustive(scenario, workers=2)
        assert result.engine == "serial"
        assert result.workers == 0

    @requires_fork
    def test_socket_without_spec_falls_back_to_local(self):
        scenario = hand_built_scenario()
        with pytest.warns(RuntimeWarning, match="socket"):
            result = exhaustive(scenario, workers=2, transport="socket")
        assert result.engine == "local-fork"

    @requires_fork
    def test_registry_scenarios_honor_workers_without_warning(
            self, recwarn, serial_direct_path):
        result = exhaustive(scenarios.pyswitch_direct_path(), workers=2)
        assert result.engine == "local-fork"
        assert counters(result) == counters(serial_direct_path)
        assert not [w for w in recwarn if issubclass(w.category,
                                                     RuntimeWarning)]

    #: ``(transport, start_method, platform forks, portable spec) ->
    #: (engine | None, warned)``: what the six hand-written fallback
    #: branches decided, recorded cell by cell before they became one
    #: rule — fork before spawn, the request if it can be met, one
    #: warning whenever it is not.
    DECISIONS = {
        ("local", None, True, True): ("local-fork", False),
        ("local", None, True, False): ("local-fork", False),
        ("local", None, False, True): ("local-spawn", False),
        ("local", None, False, False): (None, True),
        ("local", "fork", True, True): ("local-fork", False),
        ("local", "fork", True, False): ("local-fork", False),
        ("local", "fork", False, True): ("local-spawn", True),
        ("local", "fork", False, False): (None, True),
        ("local", "spawn", True, True): ("local-spawn", False),
        ("local", "spawn", True, False): ("local-fork", True),
        ("local", "spawn", False, True): ("local-spawn", False),
        ("local", "spawn", False, False): (None, True),
        ("socket", None, True, True): ("socket", False),
        ("socket", None, True, False): ("local-fork", True),
        ("socket", None, False, True): ("socket", False),
        ("socket", None, False, False): (None, True),
        ("socket", "fork", True, True): ("socket", False),
        ("socket", "fork", True, False): ("local-fork", True),
        ("socket", "fork", False, True): ("socket", False),
        ("socket", "fork", False, False): (None, True),
        ("socket", "spawn", True, True): ("socket", False),
        ("socket", "spawn", True, False): ("local-fork", True),
        ("socket", "spawn", False, True): ("socket", False),
        ("socket", "spawn", False, False): (None, True),
    }

    def test_every_cell_decides_as_it_always_did(self, monkeypatch):
        spec = scenarios.ping_experiment(pings=1).spec
        assert set(self.DECISIONS) == set(itertools.product(
            ("local", "socket"), (None, "fork", "spawn"),
            (True, False), (True, False)))
        for cell, (engine, warned) in self.DECISIONS.items():
            transport, method, fork_ok, portable = cell
            monkeypatch.setattr(
                "repro.mc.transport.multiprocessing.get_all_start_methods",
                lambda: ["fork", "spawn"] if fork_ok else ["spawn"])
            config = NiceConfig(workers=2, transport=transport,
                                start_method=method)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                built = create_transport(config, spec if portable else None)
            assert (built and built.name, bool(caught)) \
                == (engine, warned), cell
            assert len(caught) <= 1, cell  # the one warning
            for warning in caught:
                # It names what was asked for and what runs instead.
                message = str(warning.message)
                assert "cannot be honored" in message, cell
                assert (f"transport={transport!r}" in message) \
                    == (transport == "socket"), cell
                runs = (f"{engine.split('-')[1]!r} workers" if engine
                        else "serial engine")
                assert runs in message, cell


# ----------------------------------------------------------------------
# Restoration: counters, eviction correctness, affinity payoff
# ----------------------------------------------------------------------

class TestReplayCache:
    """Restoration-work measurements hold every task at BATCH_NODES
    (``static_batches``): the fair share grows tasks with the frontier
    until replay all but disappears, which is its point but not these
    tests'.

    Counter contract (DESIGN.md, "Restoration counters"): ``cache_hits``
    counts retained children picked up by handle plus ``base_for``
    restorations that started from a cached system, ``cache_misses`` the
    ``base_for`` restorations replayed in full from the initial state;
    ``rebuilt_transitions`` / ``replayed_transitions`` count only steps
    actually re-executed."""

    @pytest.fixture
    def static_batches(self, monkeypatch):
        small_tasks(monkeypatch.setattr, nodes=_Scheduler.BATCH_NODES)

    def test_cache_counters_exposed_in_stats(self, serial_direct_path,
                                             static_batches):
        result = exhaustive(scenarios.pyswitch_direct_path(), workers=2)
        # Most nodes come back to the worker that retained them; a
        # handful of steals pay a replay and a rebuild.
        assert result.cache_hits > result.unique_states // 2
        assert result.cache_hits > 10 * result.cache_misses
        assert result.rebuilt_transitions < result.unique_states // 4
        assert result.replayed_transitions > 0
        assert "cache" in result.summary()
        assert result.result_payload_bytes > 0
        assert "result payload" in result.summary()

    def test_correct_after_heavy_eviction(self, serial_direct_path,
                                          static_batches):
        """worker_cache_size=1 leaves no room to retain a child and
        forces near-constant replay-cache eviction; the search must still
        be exact, just slower (every node rebuilt, mostly full replays)."""
        result = exhaustive(scenarios.pyswitch_direct_path(), workers=2,
                            worker_cache_size=1)
        assert counters(result) == counters(serial_direct_path)
        assert violated_properties(result) == \
            violated_properties(serial_direct_path)
        assert result.cache_misses > result.cache_hits
        assert result.rebuilt_transitions == result.unique_states - 1

    @pytest.mark.parametrize("order", ["bfs", "random"])
    def test_non_dfs_orders_still_exact(self, order):
        """bfs/random frontiers pop globally (no affinity) but must keep
        the exact-equality contract."""
        serial = exhaustive(scenarios.pyswitch_direct_path(),
                            search_order=order)
        parallel = exhaustive(scenarios.pyswitch_direct_path(),
                              search_order=order, workers=2)
        assert counters(parallel) == counters(serial)
        assert parallel.affinity_hits == 0

    def test_adaptive_batching_matches_static_results(
            self, serial_direct_path):
        """Batch sizing repacks tasks, never changes what is explored:
        results equal the static baseline (and serial)."""
        adaptive = exhaustive(scenarios.pyswitch_direct_path(), workers=2)
        assert counters(adaptive) == counters(serial_direct_path)
        assert violated_properties(adaptive) == \
            violated_properties(serial_direct_path)


# ----------------------------------------------------------------------
# One stop rule: what is counted is committed, on every engine
# ----------------------------------------------------------------------

class _RejectsTheInitialState(Property):
    name = "RejectsTheInitialState"

    def check(self, system, transition) -> None:
        if transition is None:
            self.violation("the initial state itself is bad")


class TestStopRule:
    """``Searcher.absorb`` commits in a ``finally`` (DESIGN.md, "Search
    engine": commit, then stop).  On :class:`InlineTransport`, so the
    task a stop lands in is the same every run."""

    @staticmethod
    def _inline_pool(monkeypatch):
        started = []

        class Recording(InlineTransport):
            def start(self, searcher) -> None:
                started.append(self)
                super().start(searcher)

        monkeypatch.setattr(
            scheduler_mod, "create_transport",
            lambda config, spec: Recording(config.workers))
        return started

    @pytest.mark.parametrize("limit", [50, 333])
    def test_budget_stop_commits_every_counted_child(self, limit,
                                                     monkeypatch):
        """A pool's workers expand whole nodes, so every transition a
        merged result counts has a child in that result — and the stop
        must not unwind before those children reach the explored set.
        Serially the budget is applied per child: the one that trips it
        is executed and counted, never committed."""
        scenario = with_config(
            scenarios.ping_experiment(pings=2), max_transitions=limit,
            stop_at_first_violation=False)
        serial = nice.run(scenario)
        assert serial.terminated == "max_transitions"
        assert serial.transitions_executed == limit
        assert serial.unique_states - 1 + serial.revisited_states \
            == serial.transitions_executed - 1
        assert self._inline_pool(monkeypatch) == []
        pool = nice.run(with_config(scenario, workers=2))
        assert pool.engine == "inline"
        assert pool.terminated == "max_transitions"
        assert pool.transitions_executed >= limit
        assert pool.unique_states - 1 + pool.revisited_states \
            == pool.transitions_executed

    def test_initial_state_stop_is_the_same_on_every_engine(
            self, monkeypatch):
        """A search that ends at its initial state brought nothing up:
        no store, no worker — and still reports the hashing it did."""
        started = self._inline_pool(monkeypatch)
        stores = []
        create_store = store_mod.create_store
        monkeypatch.setattr(
            store_mod, "create_store",
            lambda config: stores.append(create_store(config)) or stores[-1])
        template = scenarios.ping_experiment(pings=1)
        for workers, engine in ((0, "serial"), (2, "inline")):
            scenario = with_config(
                Scenario(template.topo, template.app_factory,
                         template.hosts_factory,
                         [_RejectsTheInitialState()], template.config),
                workers=workers, stop_at_first_violation=True)
            stats = nice.run(scenario)
            assert stats.engine == engine
            assert stats.terminated == "first_violation"
            assert [v.property_name for v in stats.violations] \
                == ["RejectsTheInitialState"]
            assert stats.violations[0].trace == ()
            assert stats.transitions_executed == stats.unique_states == 0
            assert stats.hash_misses > 0
        assert started == [] and stores == []


# ----------------------------------------------------------------------
# base_for counter contract
# ----------------------------------------------------------------------

class TestBaseForAccounting:
    """DESIGN.md, "Restoration counters": every restoration bumps exactly
    one of cache_hits / cache_misses.  ``base_for`` — the fallback for
    groups whose retained children cannot be picked up by handle — counts
    a hit whenever *any* cached entry provided the clone source (the root
    entry ``()`` included) and a miss only for the fall-through full
    replay from the initial state; ``replayed`` counts exactly the suffix
    it re-executed.  (The other kind of restoration, a retained child
    picked up as is, is a hit that re-executes nothing:
    ``tests/test_retention.py``.)"""

    class _FakeSystem:
        def clone(self):
            return self

    def _runtime(self, cached=()):
        runtime = WorkerRuntime.__new__(WorkerRuntime)
        runtime.cache = OrderedDict(
            (trace, self._FakeSystem()) for trace in cached)
        runtime.initial = self._FakeSystem()
        runtime._replay = lambda system, trace, k: system
        return runtime

    @staticmethod
    def _counters():
        return {"cache_hits": 0, "cache_misses": 0, "replayed": 0}

    def test_exact_hit_replays_nothing(self):
        runtime = self._runtime(cached=[("a", "b")])
        out = self._counters()
        runtime.base_for(("a", "b"), out)
        assert (out["cache_hits"], out["cache_misses"]) == (1, 0)
        assert out["replayed"] == 0

    def test_ancestor_hit_replays_the_suffix(self):
        runtime = self._runtime(cached=[("a",)])
        out = self._counters()
        runtime.base_for(("a", "b", "c"), out)
        assert (out["cache_hits"], out["cache_misses"]) == (1, 0)
        assert out["replayed"] == 2

    def test_root_entry_restore_of_a_deep_trace_is_a_hit(self):
        runtime = self._runtime(cached=[()])
        out = self._counters()
        runtime.base_for(("a", "b", "c"), out)
        assert (out["cache_hits"], out["cache_misses"]) == (1, 0)
        assert out["replayed"] == 3

    def test_root_trace_restore_with_cached_root_is_a_hit(self):
        runtime = self._runtime(cached=[()])
        out = self._counters()
        runtime.base_for((), out)
        assert (out["cache_hits"], out["cache_misses"]) == (1, 0)
        assert out["replayed"] == 0

    def test_cold_cache_is_a_miss_with_full_replay(self):
        runtime = self._runtime(cached=[])
        out = self._counters()
        runtime.base_for(("a", "b"), out)
        assert (out["cache_hits"], out["cache_misses"]) == (0, 1)
        assert out["replayed"] == 2

    def test_hits_plus_misses_equals_restorations(self):
        runtime = self._runtime(cached=[(), ("a",)])
        out = self._counters()
        for trace in [(), ("a",), ("a", "b"), ("x", "y"), ("a", "b")]:
            runtime.base_for(trace, out)
        assert out["cache_hits"] + out["cache_misses"] == 5


# ----------------------------------------------------------------------
# Churn stats: fault-tolerance counters sum correctly across workers
# ----------------------------------------------------------------------

class TestChurnStats:
    """The retry/reassignment/elastic-join counters of ISSUE 4.  The
    chaos suite (tests/test_fault_tolerance.py) drives them to nonzero
    values; here the plumbing contract is pinned for ordinary runs:
    zeros, a complete per-worker task ledger, and a summary line."""

    @pytest.fixture(scope="class")
    def parallel_run(self):
        return exhaustive(scenarios.pyswitch_direct_path(), workers=2)

    def test_no_churn_counts_zero(self, parallel_run):
        assert parallel_run.worker_failures == 0
        assert parallel_run.tasks_retried == 0
        assert parallel_run.groups_reassigned == 0
        assert parallel_run.elastic_joins == 0

    def test_worker_tasks_ledger_is_complete(self, parallel_run):
        """Every configured worker has a ledger entry and every merged
        task is attributed to exactly one worker, so the per-worker
        shares sum to the whole run."""
        assert set(parallel_run.worker_tasks) == {0, 1}
        total = sum(parallel_run.worker_tasks.values())
        assert total > 0
        # Two workers on a nontrivial scenario: both must have worked.
        assert all(n > 0 for n in parallel_run.worker_tasks.values())

    def test_summary_renders_fault_tolerance_line(self, parallel_run):
        summary = parallel_run.summary()
        assert "fault tolerance" in summary
        assert "0 worker failure(s)" in summary
        assert "0 elastic join(s)" in summary

    def test_serial_runs_have_no_churn_stats(self, serial_direct_path):
        assert serial_direct_path.worker_tasks == {}
        assert "fault tolerance" not in serial_direct_path.summary()


# ----------------------------------------------------------------------
# Scenario registry and specs
# ----------------------------------------------------------------------

class TestScenarioRegistry:
    def test_builders_are_registered(self):
        assert {"ping", "pyswitch-mobile", "pyswitch-direct-path",
                "pyswitch-loop", "loadbalancer",
                "energy-te"} <= set(scenarios.REGISTRY)

    def test_builders_stamp_a_portable_spec(self):
        scenario = scenarios.ping_experiment(pings=3)
        assert scenario.spec is not None
        assert scenario.spec.name == "ping"
        assert scenario.spec.kwargs == {"pings": 3}
        assert wire.spec_is_portable(scenario.spec)

    def test_with_config_carries_the_spec_forward(self):
        scenario = with_config(scenarios.pyswitch_direct_path(), workers=2)
        assert scenario.spec is not None
        assert scenario.spec.config.workers == 2
        assert scenario.spec.config is scenario.config

    def test_spec_rebuilds_an_identical_initial_state(self):
        scenario = scenarios.pyswitch_direct_path()
        rebuilt = scenario.spec.build()
        assert rebuilt.config == scenario.config
        assert rebuilt.system_factory().state_hash() == \
            scenario.system_factory().state_hash()

    def test_hand_built_scenario_has_no_spec(self):
        scenario = hand_built_scenario()
        assert scenario.spec is None
        assert not wire.spec_is_portable(scenario.spec)

    def test_searcher_from_spec_is_serial(self):
        searcher = wire.searcher_from_spec(
            with_config(scenarios.pyswitch_direct_path(), workers=4).spec)
        assert type(searcher).__name__ == "Searcher"
        assert not isinstance(searcher, ParallelSearcher)


# ----------------------------------------------------------------------
# The worker message loop (one for every transport)
# ----------------------------------------------------------------------

class TestWorkerServeLoop:
    @staticmethod
    def _runtime():
        """``make_runtime`` for ``_serve``: one prebuilt runtime."""
        runtime = WorkerRuntime(wire.searcher_from_spec(
            scenarios.ping_experiment(pings=1).spec))
        return lambda: runtime

    def test_expands_and_stops(self):
        """A worker speaks only to answer: one reply for the one task,
        nothing unasked and nothing after the Shutdown."""
        inbox = iter([wire.ExpandTask(3, [((), None)]), wire.Shutdown(),
                      wire.ExpandTask(4, [((), None)])])
        sent = []
        _serve(self._runtime(), 5, lambda: next(inbox), sent.append)
        result, = sent
        assert isinstance(result, wire.TaskResult)
        assert (result.task_id, result.worker_id) == (3, 5)

    def test_a_runtime_that_cannot_be_built_is_reported_not_raised(self):
        """The one start-up failure report of every transport: a
        ``WorkerError`` with no task id — then nothing more.  The worker
        answers no task but reads until the master hangs up, so a task
        submitted before the master read the report finds the channel
        open, and the report, not a failed submit, is the death the
        master hears of."""
        def cannot_build():
            raise KeyError("scenario 'nope' is not in the registry")

        inbox = iter([wire.ExpandTask(3, [((), None)]), None])
        sent = []
        _serve(cannot_build, 4, lambda: next(inbox), sent.append)
        error, = sent
        assert isinstance(error, wire.WorkerError)
        assert (error.task_id, error.worker_id) == (None, 4)
        assert "KeyError" in error.error and "nope" in error.error
        assert next(inbox, "drained") == "drained"

    def test_unexpected_message_is_rejected_on_every_transport(self):
        with pytest.raises(ConnectionError, match="unexpected message"):
            _serve(self._runtime(), 0,
                   lambda: wire.Hello(), lambda reply: None)

    def test_send_failure_and_hangup_are_clean_exits(self):
        def broken_pipe(reply):
            raise BrokenPipeError

        def hung_up():
            raise ConnectionResetError

        runtime = self._runtime()
        _serve(runtime, 0, lambda: wire.ExpandTask(1, [((), None)]),
               broken_pipe)
        _serve(runtime, 0, hung_up, broken_pipe)

    @pytest.fixture
    def odd_thresholds(self):
        """Collector thresholds no code sets, so "the caller's are back"
        cannot be mistaken for "the defaults are back"."""
        before = gc.get_threshold()
        gc.set_threshold(1234, 7, 9)
        yield (1234, 7, 9)
        gc.set_threshold(*before)

    @staticmethod
    def _exits(seen):
        """Every way out of ``_serve`` once the runtime is built, as
        ``name -> (recv, send)``; ``seen`` collects the thresholds in
        force when the loop asks for a message."""
        def hung_up():
            seen.append(gc.get_threshold())
            raise ConnectionResetError

        def broken_pipe(reply):
            raise BrokenPipeError

        def scripted(*messages):
            inbox = iter(messages)

            def recv():
                seen.append(gc.get_threshold())
                return next(inbox)
            return recv

        task = wire.ExpandTask(1, [((), None)])
        return {
            "shutdown": (scripted(task, wire.Shutdown()), lambda reply: None),
            "eof": (scripted(None), lambda reply: None),
            "recv OSError": (hung_up, lambda reply: None),
            "send OSError": (scripted(task), broken_pipe),
            "unexpected message": (scripted(wire.Hello()),
                                   lambda reply: None),
        }

    @pytest.mark.parametrize("exit_by", [
        "shutdown", "eof", "recv OSError", "send OSError",
        "unexpected message"])
    def test_collector_policy_holds_while_serving_and_not_after(
            self, exit_by, odd_thresholds):
        """The young generation is task-sized from the first message to
        the last, and the caller — this process — has its own thresholds
        back whichever way the loop ends."""
        seen = []
        recv, send = self._exits(seen)[exit_by]
        try:
            _serve(self._runtime(), 0, recv, send)
        except ConnectionError:
            assert exit_by == "unexpected message"
        assert seen and set(seen) == {
            (GC_YOUNG_THRESHOLD,) + odd_thresholds[1:]}
        assert gc.get_threshold() == odd_thresholds

    def test_start_up_failure_leaves_the_collector_alone(
            self, odd_thresholds):
        def cannot_build():
            raise KeyError("nope")

        _serve(cannot_build, 0, lambda: None, lambda reply: None)
        assert gc.get_threshold() == odd_thresholds


POOL_ENGINES = [
    pytest.param(dict(start_method="fork"), marks=requires_fork, id="fork"),
    pytest.param(dict(start_method="spawn"), id="spawn"),
    pytest.param(dict(transport="socket"), id="socket"),
]


@pytest.mark.parametrize("engine", POOL_ENGINES)
def test_collector_policy_is_in_force_in_every_pool_worker(
        engine, tmp_path, monkeypatch):
    """``_serve`` is where the policy is set, and every transport's
    worker runs ``_serve``: inside ``WorkerRuntime.expand`` a fork child,
    a spawned child and a ``nice worker`` subprocess all read the
    task-sized young generation (the quarantine sandbox, the fourth way
    in, is probed by ``tests/test_hostile.py::TestQuarantine``)."""
    gc_probe.install(monkeypatch, tmp_path)
    before = gc.get_threshold()
    stats = exhaustive(scenarios.ping_experiment(pings=2), workers=2,
                       **engine)
    assert stats.terminated == "exhausted"
    assert gc.get_threshold() == before  # the master is not a worker
    records = gc_probe.read(tmp_path)
    assert [record["worker_id"] for record in records] == [0, 1]
    for record in records:
        assert record["threshold_in_expand"] == \
            [GC_YOUNG_THRESHOLD, *before[1:]], record
        assert not record["quarantine"]


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------

class TestWireFraming:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket_mod.socketpair()
        with left, right:
            task = wire.ExpandTask(7, [((), None)])
            wire.send_msg(left, task)
            wire.send_msg(left, wire.Shutdown())
            received = wire.recv_msg(right)
            assert isinstance(received, wire.ExpandTask)
            assert received.task_id == 7
            assert received.groups == [((), None)]
            assert isinstance(wire.recv_msg(right), wire.Shutdown)

    def test_handles_cross_the_wire(self):
        left, right = socket_mod.socketpair()
        with left, right:
            wire.send_msg(left, wire.ExpandTask(
                8, [(("a",), ["b", "c"]), ((), None)],
                handles=[(7, 2, (0, 3)), None]))
            received = wire.recv_msg(right)
            assert received.handles == [(7, 2, (0, 3)), None]

    def test_worst_case_handles_leave_the_socket_buffer_to_the_groups(self):
        """A submit that outlasts ``FRAME_TIMEOUT`` costs a worker, so
        what a task frame carries besides its groups stays small beside a
        socket buffer: the largest task ``_pack`` can emit names
        MAX_BATCH_NODES siblings — worst case one group each, late in a
        long run (big task ids and node positions)."""
        handles = [(10 ** 9 + node, 60_000 + node, (250,))
                   for node in range(_Scheduler.MAX_BATCH_NODES)]
        frame = len(pickle.dumps(wire.ExpandTask(10 ** 9, [], handles),
                                 protocol=pickle.HIGHEST_PROTOCOL))
        assert frame <= (8 << 10) + 512  # a few ints per group

    def test_eof_at_frame_boundary_is_none(self):
        left, right = socket_mod.socketpair()
        with right:
            left.close()
            assert wire.recv_msg(right) is None

    def test_config_knob_validation(self):
        with pytest.raises(ValueError):
            NiceConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            NiceConfig(start_method="forkserver")
        with pytest.raises(ValueError):
            NiceConfig(worker_cache_size=0)
