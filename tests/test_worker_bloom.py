"""Worker-side Bloom dedup pre-filter (ISSUE 10, protocol v4).

The scheduler broadcasts per-shard Bloom summaries of the master's
explored set; workers stub out children whose digest the summary may
hold (parking the full transition in a bounded cache) and the master
verifies every stub against the authoritative store, hydrating the rare
false positive with a by-digest fetch.  This suite covers the pieces in
isolation — summary delta/apply round-trips, the packed result encoding,
the parked-cache bound, the ``base_for`` counter contract — and then the
whole pipeline end-to-end: the explored state space must be
bit-identical to the serial engine with the pre-filter on, off, and
*saturated* (a deliberately tiny bitset that turns almost every fresh
child into a false-positive stub, forcing hydration round-trips on the
hot path), including under a worker death that takes its parked
children with it.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from contract import counters, requires_fork, violated_properties
from fault_helpers import ChaosTransport, install
from repro import nice, scenarios
from repro.mc.scheduler import _Scheduler
from repro.mc.store import BloomFilter, DedupSummary, ShardedStore
from repro.mc.worker import WorkerRuntime, _Retained
from repro.mc.wire import BloomSummary
from repro.scenarios import with_config

KNOBS = dict(stop_at_first_violation=False, batch_groups=1, batch_nodes=1,
             adaptive_batching=False)

ENGINES = [
    pytest.param(dict(start_method="fork"), marks=requires_fork,
                 id="fork"),
    pytest.param(dict(start_method="spawn"), id="spawn"),
    pytest.param(dict(transport="socket"), id="socket"),
]


def _hex(i: int) -> str:
    import hashlib
    return hashlib.md5(str(i).encode()).hexdigest()


def _ping(**overrides):
    return with_config(scenarios.ping_experiment(pings=2),
                       **{**KNOBS, **overrides})


@pytest.fixture(scope="module")
def serial_ping():
    return nice.run(_ping())


def assert_matches_serial(stats, serial_ping):
    assert counters(stats) == counters(serial_ping)
    assert violated_properties(stats) == violated_properties(serial_ping)


# ----------------------------------------------------------------------
# Summary delta/apply round-trip
# ----------------------------------------------------------------------

class TestDedupSummary:
    def test_delta_ships_only_dirty_shards_and_clears(self):
        master = DedupSummary(1 << 12, shards=4)
        for i in range(50):
            master.add(_hex(i))
        first = master.delta()
        assert first  # something grew
        assert master.delta() == []  # dirty set consumed
        master.add(_hex(999))
        second = master.delta()
        assert len(second) <= len(first)

    def test_apply_reproduces_membership(self):
        master = DedupSummary(1 << 12, shards=4)
        replica = DedupSummary(1 << 12, shards=4)
        digests = [_hex(i) for i in range(200)]
        for digest in digests:
            master.add(digest)
        replica.apply(master.delta())
        # A Bloom filter never answers a false negative: every digest
        # the master holds must probe positive on the replica.
        assert all(replica.probably_contains(d) for d in digests)

    def test_incremental_deltas_accumulate(self):
        master = DedupSummary(1 << 12, shards=2)
        replica = DedupSummary(1 << 12, shards=2)
        for start in (0, 100, 200):
            batch = [_hex(i) for i in range(start, start + 100)]
            for digest in batch:
                master.add(digest)
            replica.apply(master.delta())
            assert all(replica.probably_contains(d) for d in batch)

    def test_apply_ignores_foreign_shards(self):
        replica = DedupSummary(1 << 12, shards=2)
        replica.apply([(7, bytes((1 << 12) >> 3))])  # out of range: no-op
        assert not replica.probably_contains(_hex(1))

    def test_unpackable_digest_probes_negative(self):
        summary = DedupSummary(1 << 12, shards=2)
        assert summary.probably_contains("") is False
        assert summary.probably_contains(None) is False

    def test_store_export_matches_worker_summary(self, tmp_path):
        """The master exports deltas straight from its store; a worker
        replica built from them must cover every stored digest."""
        store = ShardedStore(shards=4, directory=str(tmp_path / "s"))
        store.enable_summary(1 << 12, 4)
        digests = [_hex(i) for i in range(300)]
        store.add_batch(digests)
        replica = DedupSummary(1 << 12, shards=4)
        replica.apply(store.bloom_delta())
        assert all(replica.probably_contains(d) for d in digests)
        assert store.bloom_delta() == []  # drained
        store.close()

    def test_apply_summary_rebuilds_on_shape_change(self):
        runtime = WorkerRuntime.__new__(WorkerRuntime)
        runtime.summary = DedupSummary(1 << 12, shards=2)
        old = runtime.summary
        runtime.apply_summary(BloomSummary(shards=4, bits=1 << 10,
                                           deltas=[]))
        assert runtime.summary is not old
        assert runtime.summary.shards == 4
        assert runtime.summary.budget == 1 << 10
        assert runtime.summary.bits == DedupSummary(1 << 10, shards=4).bits

    def test_chunked_slices_apply_like_whole_bitsets(self):
        """``(shard, offset, chunk)`` slices — the size-capped broadcast
        form — must reassemble to exactly the whole-bitset state."""
        master = DedupSummary(1 << 12, shards=2)
        for i in range(200):
            master.add(_hex(i))
        replica = DedupSummary(1 << 12, shards=2)
        for shard, data in master.delta():
            for offset in range(0, len(data), 16):
                replica.apply([(shard, offset, data[offset:offset + 16])])
        assert all(replica.probably_contains(_hex(i)) for i in range(200))
        assert [bytes(f.data) for f in replica.filters] == \
            [bytes(f.data) for f in master.filters]


# ----------------------------------------------------------------------
# Budget-capped broadcast: one message never outgrows a pipe buffer
# ----------------------------------------------------------------------

class TestSummaryBroadcastBudget:
    """A summary message bigger than a pipe's unread capacity blocks the
    master in ``submit`` — forever, against a worker that died between
    the submit-time liveness check and the write (the deadlock the
    fault-tolerance suite hung on).  ``_summary_for`` must therefore cap
    every message at SUMMARY_BUDGET bitset bytes and resume shipping
    where it left off on the next dispatch."""

    @staticmethod
    def _scheduler(payload):
        sched = _Scheduler.__new__(_Scheduler)
        sched._summary_shards = len(payload)
        sched._summary_bits = sum(len(d) for d in payload.values()) * 8
        sched._summary_versions = dict.fromkeys(payload, 1)
        sched._summary_payload = dict(payload)
        sched._worker_synced = {}
        sched._worker_pending = {}
        return sched

    def test_budget_caps_each_message_and_sync_converges(self):
        shard_bytes = _Scheduler.SUMMARY_BUDGET // 2
        payload = {s: bytes([s]) * shard_bytes for s in range(5)}
        sched = self._scheduler(payload)
        got: dict[int, bytearray] = {}
        rounds = 0
        while (message := sched._summary_for(0)) is not None:
            rounds += 1
            assert sum(len(chunk) for _, _, chunk in message.deltas) \
                <= _Scheduler.SUMMARY_BUDGET
            for shard, offset, chunk in message.deltas:
                buf = got.setdefault(shard, bytearray(shard_bytes))
                buf[offset:offset + len(chunk)] = chunk
        assert rounds >= 3  # 5 half-budget shards cannot fit two messages
        assert {s: bytes(b) for s, b in got.items()} == payload

    def test_oversized_shard_ships_in_slices(self):
        big = bytes(range(256)) * (_Scheduler.SUMMARY_BUDGET * 3 // 256)
        sched = self._scheduler({0: big})
        rebuilt = bytearray(len(big))
        while (message := sched._summary_for(0)) is not None:
            for _, offset, chunk in message.deltas:
                assert len(chunk) <= _Scheduler.SUMMARY_BUDGET
                rebuilt[offset:offset + len(chunk)] = chunk
        assert bytes(rebuilt) == big

    def test_worst_case_task_frame_fits_a_pipe_buffer(self):
        """Protocol v5 adds handles to the frame a summary can ride on.
        The largest task ``_pack`` can emit names MAX_BATCH_NODES
        siblings — worst case one group each, late in a long run (big
        task ids and node positions) — and with a budget-filling summary
        on top the frame must still leave most of the 64 KiB pipe buffer
        to the groups themselves."""
        import pickle

        from repro.mc.wire import ExpandTask

        sched = self._scheduler({0: b"\xff" * _Scheduler.SUMMARY_BUDGET})
        summary = sched._summary_for(0)
        handles = [(10 ** 9 + node, 60_000 + node, (250,))
                   for node in range(_Scheduler.MAX_BATCH_NODES)]
        alone = len(pickle.dumps(handles, protocol=pickle.HIGHEST_PROTOCOL))
        assert alone <= 8 << 10  # a few ints per group
        frame = len(pickle.dumps(ExpandTask(10 ** 9, [], summary, handles),
                                 protocol=pickle.HIGHEST_PROTOCOL))
        assert frame <= (_Scheduler.SUMMARY_BUDGET + (8 << 10) + 512)
        assert frame < (64 << 10) // 2

    def test_version_bump_mid_broadcast_reships_the_shard(self):
        size = _Scheduler.SUMMARY_BUDGET * 2
        sched = self._scheduler({0: b"a" * size})
        assert sched._summary_for(0) is not None  # first half, version 1
        sched._summary_versions[0] = 2  # the shard grows mid-broadcast
        sched._summary_payload[0] = b"b" * size
        while sched._summary_for(0) is not None:
            pass
        # Completing at the stale version forced a fresh full pass.
        assert sched._worker_synced[0][0] == 2


# ----------------------------------------------------------------------
# Packed result encoding (compact on the worker, inflate on the master)
# ----------------------------------------------------------------------

def _out(children):
    return {"children": [(gi, si, list(kids))
                         for gi, si, kids in children]}


class TestCompactInflate:
    def test_round_trip_restores_every_kid(self):
        kids_a = [("t1", _hex(1)), (None, _hex(2)), ("t2", _hex(3))]
        kids_b = [(None, _hex(2)), ("t3", _hex(4))]
        out = _out([(0, None, kids_a), (1, 2, kids_b)])
        WorkerRuntime._compact_digests(out)
        packed = out["kid_digests"]
        assert packed[0] == "hex" and packed[1] == 16
        assert len(packed[2]) == 5 * 16
        # Stubs collapse to a bare None slot, full kids keep transitions.
        assert out["children"][0][2][1] is None
        assert out["children"][0][2][0] == ("t1", None)
        _Scheduler._inflate_digests(out)
        assert out["children"] == [(0, None, kids_a), (1, 2, kids_b)]
        assert "kid_digests" not in out

    def test_ascii_digests_round_trip(self):
        kids = [("t", "state-one"), (None, "state-two")]
        out = _out([(0, 0, kids)])
        WorkerRuntime._compact_digests(out)
        assert out["kid_digests"][0] == "ascii"
        _Scheduler._inflate_digests(out)
        assert out["children"] == [(0, 0, kids)]

    def test_mixed_widths_fall_back_to_inline(self):
        kids = [("t", "ab"), (None, "abcd")]
        out = _out([(0, 0, kids)])
        WorkerRuntime._compact_digests(out)
        assert "kid_digests" not in out
        assert out["children"] == [(0, 0, kids)]  # untouched

    def test_unencodable_digest_falls_back_to_inline(self):
        kids = [("t", "ok-digest"), (None, "bad☃digest")]
        out = _out([(0, 0, kids)])
        WorkerRuntime._compact_digests(out)
        assert "kid_digests" not in out
        assert out["children"] == [(0, 0, kids)]

    def test_inflate_without_blob_is_a_no_op(self):
        kids = [("t", _hex(1)), (None, _hex(2))]
        out = _out([(0, 0, kids)])
        _Scheduler._inflate_digests(out)
        assert out["children"] == [(0, 0, kids)]


# ----------------------------------------------------------------------
# base_for counter contract (ISSUE 10 bugfix)
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
# Parked-children cache
# ----------------------------------------------------------------------

class TestParkedCache:
    def _runtime(self):
        runtime = WorkerRuntime.__new__(WorkerRuntime)
        runtime.parked = OrderedDict()
        runtime.retained = _Retained()  # a missing fetch drops from it
        return runtime

    def test_fetch_returns_exactly_the_requested_ordinals(self):
        runtime = self._runtime()
        runtime.park(7, ["t0", "t1", "t2"])
        assert runtime.fetch_children(7, [0, 2]) == {0: "t0", 2: "t2"}
        # The fetch consumed the entry: the task is merged after it.
        assert runtime.fetch_children(7, [0]) is None

    def test_eviction_answers_missing(self):
        runtime = self._runtime()
        for task_id in range(WorkerRuntime.MAX_PARKED + 3):
            runtime.park(task_id, ["t"])
        assert len(runtime.parked) == WorkerRuntime.MAX_PARKED
        assert runtime.fetch_children(0, [0]) is None  # evicted (oldest)
        assert runtime.fetch_children(
            WorkerRuntime.MAX_PARKED + 2, [0]) == {0: "t"}

    def test_out_of_range_ordinal_answers_missing(self):
        runtime = self._runtime()
        runtime.park(1, ["t0"])
        assert runtime.fetch_children(1, [5]) is None


# ----------------------------------------------------------------------
# End-to-end exactness (the acceptance contract)
# ----------------------------------------------------------------------

class TestEndToEnd:
    @pytest.mark.parametrize("overrides", ENGINES)
    def test_prefilter_is_bit_identical(self, overrides, serial_ping):
        stats = nice.run(_ping(workers=2, **overrides))
        assert_matches_serial(stats, serial_ping)

    @pytest.mark.parametrize("overrides", ENGINES)
    def test_disabled_prefilter_is_bit_identical(self, overrides,
                                                 serial_ping):
        stats = nice.run(_ping(workers=2, store_bloom_broadcast=False,
                               **overrides))
        assert_matches_serial(stats, serial_ping)
        assert stats.bloom_prefilter_drops == 0
        assert stats.result_bytes_saved == 0

    def test_saturated_summary_forces_hydration_and_stays_exact(
            self, serial_ping):
        """An 8-bit bitset saturates almost immediately, so nearly every
        child — fresh ones included — crosses as a stub and the master's
        verification walk must hydrate the fresh ones.  The hostile case
        for the stub/hydrate protocol, on the hot path of every task."""
        stats = nice.run(_ping(workers=2, store_bloom_bits=8))
        assert_matches_serial(stats, serial_ping)
        assert stats.bloom_prefilter_drops > 0
        assert stats.bloom_prefilter_fp > 0  # hydration round-trips ran

    def test_prefilter_reports_savings_on_revisits(self, serial_ping):
        stats = nice.run(_ping(workers=2))
        assert_matches_serial(stats, serial_ping)
        if stats.bloom_prefilter_drops:
            assert stats.result_bytes_saved > 0
        assert stats.result_payload_bytes > 0


# ----------------------------------------------------------------------
# Chaos: a worker dies holding parked bloom-positive children
# ----------------------------------------------------------------------

class TestChaosWithParkedChildren:
    def test_death_holding_parked_children_stays_exact(self, serial_ping,
                                                       monkeypatch):
        """The saturated summary guarantees the victim worker has stubs
        parked (and the master hydration fetches in flight) when it is
        killed: its tasks requeue, the parked transitions are gone, and
        re-expansion plus master-side dedup must still land on the
        serial state space."""
        wrappers = []

        def wrap(transport):
            chaos = ChaosTransport(transport, {5: 0})
            wrappers.append(chaos)
            return chaos

        install(monkeypatch, wrap)
        stats = nice.run(_ping(workers=2, store_bloom_bits=8))
        assert wrappers and wrappers[0].killed == [0]
        assert_matches_serial(stats, serial_ping)
        assert stats.bloom_prefilter_drops > 0
