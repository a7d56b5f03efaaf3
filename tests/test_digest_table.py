"""The explored set's one index, ``mc/store.py``'s :class:`DigestTable`,
under both stores (DESIGN.md, "State store and restartability").

A ``hypothesis`` model test holds each store to a Python ``set``: adds,
lookups and batches over digests that often share their 48-bit key,
through every growth of the table, then a snapshot and its resume.  A
deterministic walk checks membership at each growth boundary up to 2 048
entries, and a ``tracemalloc`` guard holds what an explored state costs
in memory: the point of keeping records and entry numbers in flat
arrays rather than a dict of strings (~120 B a state) or of ints (~85 B
a digest).
"""

from __future__ import annotations

import gc
import hashlib
import tempfile
import time
import weakref
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import NiceConfig
from repro.mc.search import SearchStats
from repro.mc.store import (
    MemoryStore,
    ShardedStore,
    restore_store,
    validate_checkpoint,
    write_checkpoint,
)


def _hex(i: int) -> str:
    return hashlib.md5(str(i).encode()).hexdigest()


def _store(kind: str, directory: Path, shards: int = 4,
           budget: int = 1_000_000):
    if kind == "memory":
        return MemoryStore()
    return ShardedStore(shards=shards, memory_budget=budget,
                        directory=str(directory))


#: 48-bit keys (12 hex characters) that many digests share: an all-zero
#: key, keys one bit apart and an all-ones key collide in the table's
#: low bits as well as in full.
SHARED_KEYS = ["000000000000", "000000000001", "010000000000",
               "ffffffffffff"]
KEY = st.one_of(st.sampled_from(SHARED_KEYS),
                st.from_regex(r"[0-9a-f]{12}", fullmatch=True))
DIGEST = st.builds(lambda key, tail: f"{key}{tail:020x}",
                   KEY, st.integers(0, 40))
OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), DIGEST),
    st.tuples(st.just("in"), DIGEST),
    st.tuples(st.just("batch"), st.lists(DIGEST, max_size=25)),
), max_size=120)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(kind=st.sampled_from(["memory", "sharded"]),
       shards=st.sampled_from([1, 3, 4]),
       budget=st.sampled_from([1, 7, 1_000_000]),
       preloaded=st.lists(DIGEST, max_size=40), ops=OPS, probe=DIGEST)
def test_a_store_is_a_set(kind, shards, budget, preloaded, ops, probe):
    """Every answer is the set's, in order and across a snapshot: the
    resumed store holds the same digests, the memory store's records in
    insertion order."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = _store(kind, root / "a", shards, budget)
        model: dict[str, None] = dict.fromkeys(preloaded)
        store.preload(preloaded)
        assert len(store) == len(model)
        for op, arg in ops:
            if op == "add":
                assert store.add(arg) == (arg not in model)
                model[arg] = None
            elif op == "in":
                assert (arg in store) == (arg in model)
            else:
                fresh = []
                for digest in arg:
                    fresh.append(digest not in model)
                    model[digest] = None
                assert store.add_batch(arg) == fresh
            assert len(store) == len(model)
        path, _ = write_checkpoint(
            root / "c", spec=None, config=NiceConfig(), stats=SearchStats(),
            frontier=[], rng_state=None, store=store)
        store.close()
        checkpoint = validate_checkpoint(path)
        if kind == "memory":
            assert list(checkpoint.iter_digests()) == list(model)
        else:
            assert sorted(checkpoint.iter_digests()) == sorted(model)
        resumed = _store(kind, root / "b", shards, budget)
        restore_store(resumed, checkpoint)
        assert len(resumed) == len(model)
        assert all(digest in resumed for digest in model)
        assert (probe in resumed) == (probe in model)
        assert resumed.add(probe) == (probe not in model)
        resumed.close()


@pytest.mark.parametrize("kind", ["memory", "sharded"])
def test_membership_holds_across_every_growth(kind, tmp_path):
    """Right after each regrowth (8 cells, doubling once half full, to
    8 192) every digest added so far is found and a new one is not —
    including digests of one shared key, whose probe order is their
    entry order.  (With a resident budget of 1 every sharded digest but
    the newest has spilled into the table.)"""
    store = _store(kind, tmp_path / "s", budget=1)
    table = store._table
    digests, grown = [], []
    while table.entries < 2048:
        i = len(digests)
        digest = (SHARED_KEYS[0] + _hex(i)[:20] if i % 7 == 0
                  else _hex(i))
        mask = table.mask
        assert store.add(digest)
        digests.append(digest)
        if table.mask != mask:
            grown.append(table.mask + 1)
            assert all(digest in store for digest in digests)
            assert SHARED_KEYS[0] + "f" * 20 not in store
            assert _hex(-1) not in store
    assert grown == [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
    assert len(store) == len(digests)
    store.close()


def _traced_bytes_per_digest(store, count: int) -> float:
    """Bytes the store holds, per digest, after taking ``count`` new
    digests: allocations made while it took them and still alive, the
    digest strings it keeps included (the ones it drops are freed)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            store.add(_hex(i))
        if isinstance(store, ShardedStore):
            store.flush()  # the tail buffers are bounded, not the index
        return (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()


def test_an_explored_state_costs_under_40_bytes(tmp_path):
    """At 50 000 digests the memory store holds its 16 B records, an
    8-16 B cell each and a fixed front of recent digest strings; the
    sharded store's index (resident budget 1, tails flushed) a 12 B
    prefix-and-slot pair and a cell each.  A dict of hex strings held
    ~120 B a state, a dict of int prefixes ~85 B a digest."""
    count = 50_000
    memory = _traced_bytes_per_digest(MemoryStore(), count)
    assert memory < 40, f"memory store: {memory:.1f} B per state"
    sharded = ShardedStore(shards=16, memory_budget=1,
                           directory=str(tmp_path / "s"))
    index = _traced_bytes_per_digest(sharded, count)
    sharded.close()
    assert index < 40, f"sharded index: {index:.1f} B per digest"


def test_a_record_narrower_than_a_key_is_its_own_key():
    """Digests of three bytes: the key is the whole record, and the
    memory store's regrowth reads it from the log by slicing."""
    store = MemoryStore()
    digests = [f"{i * 2654435761 % (1 << 24):06x}" for i in range(300)]
    assert store.add_batch(digests) == [True] * 300
    assert store._table.mask + 1 == 1024
    assert all(digest in store for digest in digests)
    assert not store.add(digests[7]) and "ffffff" not in store


@pytest.mark.parametrize("kind", ["memory", "sharded"])
def test_a_store_is_freed_by_its_last_reference(kind, tmp_path):
    """No reference cycle holds a store, its log or its table: a short
    search's store goes with its searcher, not at the next full
    collection (``table2_sweep`` runs 88 of them in one process)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        store = _store(kind, tmp_path / "s", budget=4)
        store.add_batch(_hex(i) for i in range(100))
        freed = weakref.ref(store)
        store.close()
        del store
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_a_sharded_insert_costs_the_same_past_the_budget(tmp_path):
    """Evicting the coldest resident digest is O(1): past the budget an
    insert also spills one digest into the table, a few µs, never a walk
    of the resident set.  (A plain dict's front fills with the deleted
    slots its evictions leave, and each eviction walked them: 52x the
    in-budget cost at this size.)"""
    budget, total = 50_000, 300_000
    digests = [_hex(i) for i in range(total)]
    store = _store("sharded", tmp_path, shards=16, budget=budget)
    began = time.process_time()
    for digest in digests[:budget]:
        store.add(digest)
    filled = time.process_time()
    for digest in digests[budget:]:
        store.add(digest)
    done = time.process_time()
    store.close()
    assert store.counters()["evictions"] == total - budget
    before = (filled - began) / budget
    after = (done - filled) / (total - budget)
    assert after <= 5 * before, (
        f"{after * 1e6:.1f} µs an insert past the budget,"
        f" {before * 1e6:.1f} µs within it")
