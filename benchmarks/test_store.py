"""Explored-set state store overhead (DESIGN.md, "State store and
restartability").

Measures what the sharded, disk-spilling store costs relative to the
in-memory baseline on the pyswitch-direct-path workload — the headline
assertion: end-to-end search wall time with ``store="sharded"`` stays
within **1.15x** of the in-memory store (override the ceiling with
``NICE_STORE_OVERHEAD_CEIL``; the record-format-v2 fast path ratcheted
this down from the original 1.3x).  A second configuration squeezes the
resident set to a tiny memory budget so the disk-spill lookup path is
actually exercised (asserted via the eviction/spill counters), and a
micro-benchmark times raw insert/lookup throughput of both stores, with
a floor on sharded insert rate: by default a ratio to the memory store's
rate measured in the same fixture, so a slow or loaded box moves both
sides; ``NICE_STORE_INSERT_FLOOR`` (the nightly ``hotpath`` job pins
1.1 M/s — 4x what the pre-v2 store managed) makes it absolute.  A
checkpoint section snapshots a grown store twice and asserts the second
snapshot writes the new records plus ``meta.pkl`` and nothing else —
O(new states), not O(all states) — and a checkpointed run of the
spilling search holds the checkpointer to the same sum end to end.

Everything lands in ``BENCH_store.json`` (at the repository root under
``NICE_BENCH_RECORD=1``, see ``conftest.py``); the
nightly ``hotpath`` CI job runs this file and uploads the artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time

import pytest

from repro import nice, scenarios
from repro.config import NiceConfig
from repro.mc import store as store_mod
from repro.mc.search import SearchStats
from repro.mc.store import (
    MemoryStore,
    ShardedStore,
    list_checkpoints,
    validate_checkpoint,
    write_checkpoint,
)
from repro.scenarios import with_config

from .conftest import print_table

#: Store configurations under measurement.
CONFIGS = {
    "memory": {},
    "sharded": dict(store="sharded"),
    # A budget far below the state count forces evictions and disk
    # probes — the spill path a RAM-bound search would live in.
    "sharded-spill": dict(store="sharded", store_shards=8,
                          store_memory_budget=64),
}

REPEATS = 5
MICRO_OPS = 20_000


def _one_run(overrides):
    scenario = scenarios.pyswitch_direct_path()
    return nice.run(with_config(scenario, stop_at_first_violation=False,
                                **overrides))


def _micro(make_store, n: int) -> dict:
    """Raw insert/lookup throughput, best of REPEATS fresh stores (the
    floor assertion needs a stable number, not one noisy sample)."""
    digests = [hashlib.md5(str(i).encode()).hexdigest() for i in range(n)]
    best_insert = best_lookup = 0.0
    for _ in range(REPEATS):
        store = make_store()
        add = store.add
        start = time.perf_counter()
        for digest in digests:
            add(digest)
        best_insert = max(best_insert, n / (time.perf_counter() - start))
        start = time.perf_counter()
        for digest in digests:
            assert digest in store
        best_lookup = max(best_lookup, n / (time.perf_counter() - start))
        store.close()
    return {"inserts_per_s": best_insert, "lookups_per_s": best_lookup}


def _checkpoint_bench(base_states: int = 50_000,
                      new_states: int = 2_000) -> dict:
    """Snapshot a populated store, grow it, snapshot again with the
    first snapshot as the hard-link baseline; report both snapshots'
    written bytes."""
    digests = [hashlib.md5(str(i).encode()).hexdigest()
               for i in range(base_states + new_states)]
    with tempfile.TemporaryDirectory(prefix="nice-bench-ckpt-") as tmp:
        root = pathlib.Path(tmp)
        store = ShardedStore(shards=8, directory=str(root / "store"))
        config = NiceConfig(checkpoint_dir=str(root / "c"))
        store.add_batch(digests[:base_states])
        first = write_checkpoint(root / "c", spec=None, config=config,
                                 stats=SearchStats(), frontier=[],
                                 rng_state=None, store=store)
        full = validate_checkpoint(first)
        store.add_batch(digests[base_states:])
        second = write_checkpoint(root / "c", spec=None, config=config,
                                  stats=SearchStats(), frontier=[],
                                  rng_state=None, store=store,
                                  previous=first)
        delta = validate_checkpoint(second)
        new_segment_bytes = sum(
            info["bytes"] for name, info in delta.file_info.items()
            if name.startswith("states-")
            and not (first / name).exists())
        store.close()
    return {
        "base_states": base_states,
        "new_states": new_states,
        "record_width": full.record_width,
        "full_bytes_written": full.bytes_written,
        "delta_bytes_written": delta.bytes_written,
        "delta_new_record_bytes": new_segment_bytes,
        "delta_meta_bytes": delta.file_info["meta.pkl"]["bytes"],
    }


def _checkpointed_search(interval: int = 200) -> dict:
    """The spilling search again, checkpointed every ``interval`` states.
    Every snapshot is kept (retention would prune all but two) so each
    one's ``meta.pkl`` can be counted."""
    with tempfile.TemporaryDirectory(prefix="nice-bench-ckpt-") as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(store_mod, "CHECKPOINT_KEEP", 1 << 30)
        stats = _one_run(dict(CONFIGS["sharded-spill"], checkpoint_dir=tmp,
                              checkpoint_interval=interval))
        snapshots = [validate_checkpoint(path)
                     for path in list_checkpoints(tmp)]
    return {
        "checkpoint_interval": interval,
        "unique_states": stats.unique_states,
        "checkpoints_written": stats.checkpoints_written,
        "checkpoint_bytes_written": stats.checkpoint_bytes_written,
        "snapshots_kept": len(snapshots),
        "record_bytes": snapshots[-1].states * snapshots[-1].record_width,
        "meta_bytes": sum(snapshot.file_info["meta.pkl"]["bytes"]
                          for snapshot in snapshots),
    }


@pytest.fixture(scope="module")
def store_results(bench_output):
    best: dict[str, tuple[float, object]] = {
        name: (float("inf"), None) for name in CONFIGS
    }
    # Interleave configurations across the repeats so ambient load hits
    # every configuration's samples alike (same policy as the hot-path
    # benchmark).
    for _ in range(REPEATS):
        for name, overrides in CONFIGS.items():
            result = _one_run(overrides)
            if result.wall_time < best[name][0]:
                best[name] = (result.wall_time, result)
    searches = {}
    for name in CONFIGS:
        wall, stats = best[name]
        searches[name] = {
            "wall_time": wall,
            "transitions": stats.transitions_executed,
            "unique_states": stats.unique_states,
            "store_hits": stats.store_hits,
            "store_spill_reads": stats.store_spill_reads,
            "store_evictions": stats.store_evictions,
        }
    micro = {
        "memory": _micro(MemoryStore, MICRO_OPS),
        "sharded": _micro(lambda: ShardedStore(shards=16), MICRO_OPS),
        "sharded-spill": _micro(
            lambda: ShardedStore(shards=16,
                                 memory_budget=MICRO_OPS // 100),
            MICRO_OPS),
    }
    payload = {
        "benchmark": "store",
        "repeats": REPEATS,
        "micro_ops": MICRO_OPS,
        "configs": {name: dict(overrides)
                    for name, overrides in CONFIGS.items()},
        "searches": searches,
        "micro": micro,
        "checkpoint": _checkpoint_bench(),
        "checkpointed_search": _checkpointed_search(),
    }
    bench_output("store").write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_store_report(store_results, bench_output):
    baseline = store_results["searches"]["memory"]["wall_time"]
    rows = []
    for name, r in store_results["searches"].items():
        micro = store_results["micro"][name]
        rows.append([
            name,
            f"{r['transitions']} / {r['unique_states']}",
            f"{r['wall_time']:.3f}s",
            f"{r['wall_time'] / baseline:.2f}x",
            f"{r['store_spill_reads']}/{r['store_evictions']}",
            f"{micro['inserts_per_s'] / 1e3:.0f}k/{micro['lookups_per_s'] / 1e3:.0f}k",
        ])
    print_table(
        "Explored-set store on pyswitch-direct-path",
        ["store", "transitions / unique", "time", "vs memory",
         "spill reads/evictions", "micro ins/lkp per s"],
        rows,
    )
    ckpt = store_results["checkpoint"]
    search = store_results["checkpointed_search"]
    print(f"\ncheckpoint: full snapshot {ckpt['full_bytes_written']} B, "
          f"delta snapshot {ckpt['delta_bytes_written']} B "
          f"(+{ckpt['new_states']} states)")
    print(f"checkpointed sharded-spill search: "
          f"{search['checkpoints_written']} snapshots, "
          f"{search['checkpoint_bytes_written']} B written = "
          f"{search['record_bytes']} B of records + "
          f"{search['meta_bytes']} B of meta.pkl")
    print(f"wrote {bench_output('store')}")


def test_state_space_identical_across_stores(store_results):
    reference = store_results["searches"]["memory"]
    for name, r in store_results["searches"].items():
        assert r["transitions"] == reference["transitions"], (
            f"{name}: store changed the transition count")
        assert r["unique_states"] == reference["unique_states"], (
            f"{name}: store changed the explored state space")


def test_sharded_overhead_within_bound(store_results):
    """The acceptance gate: sharded lookup/insert overhead <= 1.15x the
    in-memory store, end-to-end on pyswitch-direct-path (ratcheted from
    1.3x by the record-format-v2 fast path)."""
    ceiling = float(os.environ.get("NICE_STORE_OVERHEAD_CEIL", "1.15"))
    searches = store_results["searches"]
    ratio = (searches["sharded"]["wall_time"]
             / searches["memory"]["wall_time"])
    assert ratio <= ceiling, (
        f"sharded store costs {ratio:.2f}x the in-memory baseline on"
        f" pyswitch-direct-path (ceiling {ceiling:.2f}x)")


#: Default floor on the sharded/memory micro insert rate ratio.  Healthy
#: readings on the reference box span 0.10-0.24 (the memory store's 2 ms
#: loop swings 4.9-10.4 M/s with the box, the sharded store's 0.8-1.4);
#: the pre-v2 store this guards against read a quarter of today's.
INSERT_RATIO_FLOOR = 0.06


def test_sharded_micro_insert_floor(store_results):
    """Raw sharded insert throughput must not fall behind the memory
    store's, measured side by side, by more than it does today.  The
    absolute 1.1 M/s contract (4x the pre-v2 ASCII-record store) holds
    where timing is trustworthy: the nightly ``hotpath`` job pins
    ``NICE_STORE_INSERT_FLOOR``."""
    micro = store_results["micro"]
    rate = micro["sharded"]["inserts_per_s"]
    if "NICE_STORE_INSERT_FLOOR" in os.environ:
        floor = float(os.environ["NICE_STORE_INSERT_FLOOR"])
        assert rate >= floor, (
            f"sharded micro insert rate {rate / 1e6:.2f} M/s is below the"
            f" {floor / 1e6:.2f} M/s floor")
        return
    ratio = rate / micro["memory"]["inserts_per_s"]
    assert ratio >= INSERT_RATIO_FLOOR, (
        f"sharded micro insert rate is {ratio:.2f}x the memory store's"
        f" ({rate / 1e6:.2f} M/s; floor {INSERT_RATIO_FLOOR:.2f}x)")


def test_checkpoint_delta_is_o_new_states(store_results):
    """Snapshot cost scales with states added since the previous
    snapshot: the delta snapshot's newly written record bytes are
    exactly the new records, and they and ``meta.pkl`` are all it
    writes (the remainder is hard links)."""
    ckpt = store_results["checkpoint"]
    assert ckpt["delta_new_record_bytes"] == \
        ckpt["new_states"] * ckpt["record_width"]
    assert ckpt["delta_bytes_written"] == \
        ckpt["delta_new_record_bytes"] + ckpt["delta_meta_bytes"]


def test_checkpointed_search_writes_records_and_meta_only(store_results):
    """End to end, through the Checkpointer: every record is written by
    one snapshot, and besides the records only the ``meta.pkl``s are."""
    search = store_results["checkpointed_search"]
    assert search["checkpoints_written"] == search["snapshots_kept"] > 1
    assert search["record_bytes"] > 0
    assert search["checkpoint_bytes_written"] <= \
        search["record_bytes"] + search["meta_bytes"]


def test_spill_path_exercised(store_results):
    tight = store_results["searches"]["sharded-spill"]
    assert tight["store_evictions"] > 0, \
        "the tiny memory budget should evict digests to disk"
    assert tight["store_spill_reads"] > 0, \
        "revisited states should be answered from spilled shards"
    roomy = store_results["searches"]["sharded"]
    assert roomy["store_evictions"] == 0, \
        "the default budget should keep every digest resident here"


def test_bench_file_written(store_results, bench_output):
    data = json.loads(bench_output("store").read_text())
    assert data["benchmark"] == "store"
    assert set(data["searches"]) == set(CONFIGS)
    assert "delta_bytes_written" in data["checkpoint"]
    assert "checkpoint_bytes_written" in data["checkpointed_search"]
