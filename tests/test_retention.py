"""Retained children and their handles (ISSUE 12, protocol v5).

A worker keeps the children it ships and the scheduler sends the
address back with the sibling group — ``(task id, node position, kid
indices)`` — so the worker picks the children up instead of rebuilding
them.  Which children it keeps is a local guess (``WorkerRuntime.seen``:
not the ones whose digest it has hashed before) that nothing verifies,
and handles are hints: every way one can fail to resolve (eviction, a
steal, a dead or respawned owner, a resumed frontier, a child the guess
declined, a sandbox) must fall back to trace restoration and land on
the serial state space.  Unit tests pin the worker-side store and the
counter contract; the end-to-end half runs the hot path and every forced
fallback on the fork, spawn and socket transports.
"""

from __future__ import annotations

from collections import deque

import pytest

from checkpoint_helpers import Interrupted, interrupt_after
from contract import counters, requires_fork, violated_properties
from fault_helpers import ChaosTransport, install, saturated_hint
from repro import nice, scenarios
from repro.mc.scheduler import _Scheduler
from repro.mc.store import pack_digest, unpack_digests
from repro.mc.transitions import Transition
from repro.mc.transport import create_transport
from repro.mc.wire import searcher_from_spec
from repro.mc.worker import WorkerRuntime
from repro.scenarios import with_config
from scripted_transport import enrolled_scheduler

ENGINES = [
    pytest.param(dict(start_method="fork"), marks=requires_fork, id="fork"),
    pytest.param(dict(start_method="spawn"), id="spawn"),
    pytest.param(dict(transport="socket"), id="socket"),
]

#: One node per task (as in the chaos suite): many tasks, so many
#: handles cross the wire and a kill strands real work.
small_tasks = pytest.mark.usefixtures("small_tasks")


def _ping(**overrides):
    return with_config(scenarios.ping_experiment(pings=2),
                       stop_at_first_violation=False, **overrides)


@pytest.fixture(scope="module")
def serial_ping():
    return nice.run(_ping())


def assert_matches_serial(stats, serial_ping):
    assert counters(stats) == counters(serial_ping)
    assert violated_properties(stats) == violated_properties(serial_ping)


def _runtime(**overrides) -> WorkerRuntime:
    return WorkerRuntime(searcher_from_spec(_ping(**overrides).spec))


def _root_group(runtime, task_id):
    """Expand the initial state as ``task_id`` and return its result
    plus the sibling group and handle the scheduler would send back."""
    out = runtime.expand([((), None)], task_id=task_id)
    (_, _, steps), = out["children"]
    return out, ((), steps), (task_id, 0, tuple(range(len(steps))))


def _shipped(out) -> list:
    """Every kid's digest, in kid order — as the master reads them."""
    return unpack_digests(
        out["digests"], sum(len(kids) for _, _, kids in out["children"]))


# ----------------------------------------------------------------------
# One result layout, whoever built it
# ----------------------------------------------------------------------

RESULT_KEYS = {"children", "digests", "quiescent", "violations",
               "transitions", "replayed", "rebuilt", "cache_hits",
               "cache_misses", "discover_packet_runs",
               "discover_stats_runs", "hash_stats", "result_bytes"}


def assert_the_one_layout(out, matching) -> int:
    """``children`` name bare transitions, ``digests`` is one blob of a
    16-byte record per kid in kid order — empty without state matching.
    Returns the number of kids."""
    assert set(out) == RESULT_KEYS
    kids = 0
    for gi, si, steps in out["children"]:
        assert type(gi) is int and (si is None or type(si) is int)
        assert steps and all(type(step) is Transition for step in steps)
        kids += len(steps)
    assert type(out["digests"]) is bytes
    assert len(out["digests"]) == (16 * kids if matching else 0)
    digests = _shipped(out)
    assert len(digests) == kids
    assert all(len(digest) == 32 if matching else digest is None
               for digest in digests)
    return kids


class TestOneResultLayout:
    @pytest.mark.parametrize("matching", [True, False],
                             ids=["state-matching", "no-digests"])
    @pytest.mark.parametrize("overrides", ENGINES)
    def test_pool_workers_and_the_sandbox_answer_alike(
            self, overrides, matching, monkeypatch):
        """Every result the master merges — from pool workers on each
        transport, and from a quarantine sandbox asked directly — has
        the same keys and the same ``children`` / ``digests`` shapes."""
        absorbed = []
        absorb = _Scheduler._absorb

        def spy(scheduler, out, groups, worker_id, task_id=None):
            absorbed.append(assert_the_one_layout(out, matching))
            return absorb(scheduler, out, groups, worker_id, task_id)

        monkeypatch.setattr(_Scheduler, "_absorb", spy)
        scenario = _ping(workers=2, state_matching=matching,
                         max_transitions=200, **overrides)
        stats = nice.run(scenario)
        assert stats.terminated == "max_transitions"
        assert len(absorbed) > 2 and sum(absorbed) > 50
        scheduler = _Scheduler(scenario.make_searcher(), create_transport(
            scenario.config, scenario.spec))
        out, failure = scheduler._sandbox_expand(((), None))
        assert not failure
        assert assert_the_one_layout(out, matching) > 0

    def test_records_round_trip_in_order(self):
        digests = [f"{i:032x}" for i in (0, 1, 2 ** 127, 2 ** 128 - 1)]
        blob = b"".join(map(pack_digest, digests))
        assert len(blob) == 4 * 16
        assert unpack_digests(blob, 4) == digests
        assert unpack_digests(b"", 3) == [None, None, None]
        with pytest.raises(ValueError, match="of one width"):
            unpack_digests(blob[:-1], 4)
        with pytest.raises(ValueError, match="do not hold 0 digests"):
            unpack_digests(blob, 0)  # digests for children nobody shipped
        with pytest.raises(ValueError):
            pack_digest("state-one")  # hex or nothing


# ----------------------------------------------------------------------
# The retained child is the serial loop's frontier entry
# ----------------------------------------------------------------------

class TestRetainedChild:
    def test_is_what_the_serial_loop_would_have_enqueued(self):
        runtime = _runtime()
        out, (_, steps), _ = _root_group(runtime, task_id=3)
        kept = runtime.retained.nodes[3, 0]
        assert sorted(kept) == list(range(len(steps)))  # all first seen
        hash_stats = runtime.initial._hash_stats
        for index, step in enumerate(steps):
            serial = runtime.initial.clone()
            serial.execute(step)
            runtime.strategy.post_execute(serial, step)
            digest = _shipped(out)[index]
            assert serial.state_hash() == digest
            # Re-hashing the retained child digests nothing: warm cache.
            misses = hash_stats.misses
            assert kept[index].state_hash() == digest
            assert hash_stats.misses == misses

    def test_copy_on_write_isolation_from_its_siblings(self):
        runtime = _runtime()
        _, (_, steps), _ = _root_group(runtime, task_id=0)
        kept = runtime.retained.nodes[0, 0]
        assert len(kept) >= 2
        first, second = kept[0], kept[1]
        before = (first.state_hash(), second.state_hash(),
                  runtime.initial.state_hash())
        first.execute(first.enabled_transitions()[0])
        assert first.state_hash() != before[0]
        assert (second.state_hash(), runtime.initial.state_hash()) \
            == before[1:]
        moved = first.state_hash()
        second.execute(second.enabled_transitions()[0])
        assert second.state_hash() != before[1]
        assert (first.state_hash(), runtime.initial.state_hash()) \
            == (moved, before[2])


# ----------------------------------------------------------------------
# Worker side: pick-up, fallback, bound, counters
# ----------------------------------------------------------------------

class TestHandlePickup:
    def test_own_handle_skips_the_rebuild_and_is_consumed(self):
        runtime = _runtime()
        _, group, handle = _root_group(runtime, task_id=0)
        out = runtime.expand([group], task_id=1, handles=[handle])
        assert out["rebuilt"] == out["replayed"] == out["cache_misses"] == 0
        assert out["cache_hits"] == len(group[1])
        assert (0, 0) not in runtime.retained.nodes  # popped on use
        # Picked-up nodes never enter the trace-keyed replay cache.
        assert all(len(trace) != 1 for trace in runtime.cache)

    def test_fallbacks_expand_to_the_same_children(self):
        """No handle, a stale handle, a handle naming a task this worker
        never ran (another worker's, or a dead incarnation's): all miss,
        rebuild from the parent, and ship what the pick-up ships."""
        reference = _runtime()
        _, group, handle = _root_group(reference, task_id=0)
        expected = _shipped(
            reference.expand([group], task_id=1, handles=[handle]))
        for bad in (None, [None], [(99, 0, handle[2])],
                    [(0, 5, handle[2])]):
            runtime = _runtime()
            _root_group(runtime, task_id=0)
            out = runtime.expand([group], task_id=1, handles=bad)
            assert _shipped(out) == expected
            assert out["rebuilt"] == len(group[1])
            # One base_for restoration served the whole group.
            assert out["cache_hits"] + out["cache_misses"] == 1

    def test_partly_retained_group_rebuilds_only_the_missing(self):
        """A child the hint declined can be fresh (a Bloom false
        positive): its group arrives with a handle naming a kid the store
        does not hold."""
        reference = _runtime()
        _, group, handle = _root_group(reference, task_id=0)
        expected = _shipped(
            reference.expand([group], task_id=1, handles=[handle]))
        runtime = _runtime()
        _root_group(runtime, task_id=0)
        del runtime.retained.nodes[0, 0][1]
        runtime.retained.systems -= 1
        out = runtime.expand([group], task_id=1, handles=[handle])
        assert _shipped(out) == expected
        assert out["rebuilt"] == 1
        assert out["cache_hits"] + out["cache_misses"] == len(group[1])

    def test_unlisted_siblings_are_shed_with_the_pickup(self):
        """Kids the master found to be revisits are not in the handle;
        taking the node drops them instead of leaving them to age out."""
        runtime = _runtime()
        _, (trace, steps), (task_id, position, kids) = \
            _root_group(runtime, task_id=0)
        before = runtime.retained.systems
        out = runtime.expand([(trace, steps[:1])], task_id=1,
                             handles=[(task_id, position, kids[:1])])
        assert out["rebuilt"] == 0
        assert (0, 0) not in runtime.retained.nodes
        retained_by_task_1 = sum(
            len(kept) for node, kept in runtime.retained.nodes.items()
            if node[0] == 1)
        assert runtime.retained.systems == retained_by_task_1
        assert before == len(steps)

    def test_sandbox_expansion_retains_nothing(self):
        runtime = _runtime()
        out = runtime.expand([((), None)])  # quarantine: task_id=None
        assert out["children"]
        assert runtime.retained.systems == 0 and not runtime.retained.nodes

    def test_revisits_are_shipped_but_not_retained(self):
        """The hint: a digest this worker has hashed before is a revisit
        the master will drop.  Shipped all the same — in full, identical
        digests — because only the master's store decides."""
        runtime = _runtime()
        first = runtime.expand([((), None)], task_id=0)
        assert sorted(runtime.retained.nodes[0, 0]) == \
            list(range(len(first["children"][0][2])))
        again = runtime.expand([((), None)], task_id=1)
        assert not any(node[0] == 1 for node in runtime.retained.nodes)
        for out in (first, again):
            assert all(transition is not None
                       for _, _, kids in out["children"]
                       for transition in kids)
            assert all(_shipped(out))
        assert (first["children"], first["digests"]) \
            == (again["children"], again["digests"])

    @pytest.mark.parametrize("knobs", [dict(state_matching=False)],
                             ids=["no-digests"])
    def test_without_a_hint_everything_is_retained(self, knobs):
        runtime = _runtime(**knobs)
        assert runtime.seen is None
        for task_id in (0, 1):
            out = runtime.expand([((), None)], task_id=task_id)
            assert len(runtime.retained.nodes[task_id, 0]) == \
                len(out["children"][0][2])

    def test_saturated_hint_keeps_a_handful_then_nothing(self, monkeypatch):
        """Every kept child flips at least one bit of its worker's hint,
        so an 8-bit hint keeps 8 children at most — whatever ships."""
        saturated_hint(monkeypatch.setattr)
        runtime = _runtime()
        assert len(runtime.seen.data) == 1
        frontier, shipped = deque([((), None)]), 0
        for task_id in range(12):  # no handles: nothing is taken back
            trace, steps = frontier.popleft()
            out = runtime.expand([(trace, steps)], task_id=task_id)
            for _, si, kids in out["children"]:
                shipped += len(kids)
                parent = trace if si is None else trace + (steps[si],)
                frontier.append((parent, kids))
        assert shipped > 16
        assert 0 < runtime.retained.systems <= 8


class TestSharedBound:
    def test_both_stores_stay_inside_worker_cache_size(self):
        runtime = _runtime(worker_cache_size=6)
        _, group, handle = _root_group(runtime, task_id=0)
        frontier = [(group, None)]  # no handles: fill the replay cache too
        for task_id in range(1, 12):
            if not frontier:
                break
            (trace, steps), _ = frontier.pop()
            out = runtime.expand([(trace, steps)], task_id=task_id)
            assert len(runtime.cache) + runtime.retained.systems <= 6
            assert runtime.retained.systems <= 3
            assert runtime.retained.systems == sum(
                len(kept) for kept in runtime.retained.nodes.values())
            for _, si, kids in out["children"]:
                frontier.append(((trace + (steps[si],), kids), None))

    def test_cache_size_one_retains_nothing(self):
        runtime = _runtime(worker_cache_size=1)
        _, group, handle = _root_group(runtime, task_id=0)
        assert runtime.retained.systems == 0
        out = runtime.expand([group], task_id=1, handles=[handle])
        assert out["rebuilt"] == len(group[1])  # every handle evicted

    def test_memory_watchdog_sheds_retained_children_too(self, capsys):
        runtime = _runtime(worker_memory_limit=1)  # always over the limit
        _root_group(runtime, task_id=0)
        assert runtime.retained.systems and runtime.cache
        assert runtime.should_recycle(0) is True
        assert runtime.retained.systems == 0 and not runtime.cache
        assert "retained children" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Scheduler side: who gets a handle, and what is persisted
# ----------------------------------------------------------------------

class TestHandleRouting:
    @staticmethod
    def _scheduler(affine=True, live=(0, 1)):
        return enrolled_scheduler(
            _ping(search_order="dfs" if affine else "bfs"), live)

    def test_handle_goes_to_its_owner_only(self):
        sched = self._scheduler()
        group = (("a",), ["b", "c"])
        sched._push(0, group, (7, 2, (0, 3)))
        assert sched._pack(1) == ([group], None)  # a steal: no handle
        sched._push(0, group, (7, 2, (0, 3)))
        assert sched._pack(0) == ([group], [(7, 2, (0, 3))])

    def test_round_robin_routes_still_reach_the_owner(self):
        sched = self._scheduler(affine=False)
        group = (("a",), ["b"])
        sched._push(1, group, (4, 0, (1,)))
        assert not sched._workers[1].queue  # no per-owner queues
        assert sched._pack(1) == ([group], [(4, 0, (1,))])

    def test_dead_owner_means_no_handle(self):
        sched = self._scheduler(live=(1,))
        group = (("a",), ["b"])
        sched._push(0, group, (4, 0, (1,)))  # worker 0 is gone
        assert sched._unowned == deque([(group, None)])

    def test_frontier_persists_plain_groups(self):
        """Checkpoints keep the ``(trace, steps)`` format: handles name
        worker memory that a resumed run does not have."""
        sched = self._scheduler()
        sched._push(None, ((), None))
        sched._push(1, (("a",), ["b"]), (4, 0, (1,)))
        sched._push(0, (("c",), ["d"]), (5, 1, (0,)))
        assert sched.groups() == [
            ((), None), (("c",), ["d"]), (("a",), ["b"])]


# ----------------------------------------------------------------------
# End to end: the hot path and every forced fallback, on every transport
# ----------------------------------------------------------------------

class TestEndToEnd:
    @pytest.mark.parametrize("overrides", ENGINES)
    def test_hot_path_is_bit_identical(self, overrides, serial_ping):
        stats = nice.run(_ping(workers=2, **overrides))
        assert_matches_serial(stats, serial_ping)
        # Nearly every node was picked up, not rebuilt.
        assert stats.cache_hits > stats.unique_states // 2
        assert stats.rebuilt_transitions < stats.unique_states // 4

    @pytest.mark.parametrize("overrides", ENGINES)
    @pytest.mark.parametrize("fallback", [
        pytest.param(dict(worker_cache_size=1), id="evicted"),
        pytest.param(dict(search_order="bfs"), id="bfs"),
    ])
    @small_tasks
    def test_forced_fallbacks_are_bit_identical(self, fallback, overrides,
                                                serial_ping):
        serial = serial_ping
        if "search_order" in fallback:
            serial = nice.run(_ping(**fallback))
        stats = nice.run(_ping(workers=2, **fallback, **overrides))
        assert_matches_serial(stats, serial)
        if "worker_cache_size" in fallback:
            # Nothing can be retained: every non-root node is rebuilt.
            assert stats.rebuilt_transitions == stats.unique_states - 1

    @small_tasks
    @requires_fork
    def test_saturated_hint_is_bit_identical(self, serial_ping,
                                             monkeypatch):
        """Fork only: the pin is a class attribute, which spawned and
        socket workers import afresh — there the every-handle-misses
        path is the ``evicted`` leg above."""
        saturated_hint(monkeypatch.setattr)
        stats = nice.run(_ping(workers=2, start_method="fork"))
        assert_matches_serial(stats, serial_ping)
        # Each worker keeps 8 children at most; past that first handful
        # nothing is retained and every handle misses.
        assert stats.rebuilt_transitions >= stats.unique_states - 1 - 16

    @small_tasks
    @pytest.mark.parametrize("overrides", ENGINES)
    def test_death_of_an_owner_misses_and_never_aliases(
            self, overrides, serial_ping, monkeypatch):
        """Worker 0 dies owning retained children and queued handles; a
        respawned worker takes a fresh id.  The orphaned groups must
        rebuild wherever they land — on the survivor or the newcomer —
        and never resolve against someone else's store."""
        wrappers = []

        def wrap(transport):
            wrappers.append(ChaosTransport(transport, {9: 0}))
            return wrappers[0]

        install(monkeypatch, wrap)
        stats = nice.run(_ping(workers=2, **overrides))
        assert wrappers and wrappers[0].killed == [0]
        assert_matches_serial(stats, serial_ping)
        assert stats.worker_failures == 1 and stats.workers_respawned == 1
        assert stats.rebuilt_transitions > 0  # the orphans fell back

    @small_tasks
    def test_resumed_frontier_carries_no_handles(self, serial_ping,
                                                 tmp_path, monkeypatch):
        interrupt_after(monkeypatch, 150)
        with pytest.raises(Interrupted):
            nice.run(_ping(workers=2, checkpoint_interval=60,
                           checkpoint_dir=str(tmp_path / "c")))
        monkeypatch.undo()
        _, stats = nice.resume(tmp_path / "c")
        assert stats.workers == 2
        assert_matches_serial(stats, serial_ping)
        assert stats.rebuilt_transitions > 0  # the checkpointed groups
        assert stats.cache_hits > 0           # ... then retention again
