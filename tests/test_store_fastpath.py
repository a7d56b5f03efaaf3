"""Store fast path (ISSUE 9): batched appends, packed v2 records, and
O(new-states) checkpoint compaction.

Unit coverage for the machinery the differential/crash suites exercise
end-to-end: add_batch semantics and the flush-on-checkpoint ordering of
the tail buffers, exact membership when digests share an index prefix,
the mixed-scheme guard on lookups as well as inserts, hard-link
compaction across snapshot generations (including survival of retention
pruning), what a resume accepts from builds before the engine knobs and
the store's Bloom files were deleted (and the one format it reads), and
the Checkpointer's counter rollback when a snapshot fails mid-write.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import time
from types import SimpleNamespace

import pytest

from checkpoint_helpers import Interrupted, crash_run, interrupt_after
from contract import counters, violated_properties
from repro import cli, nice, scenarios
from repro.config import NiceConfig
from repro.mc import store as store_mod
from repro.mc.search import SearchStats
from repro.mc.store import (
    CheckpointError,
    Checkpointer,
    Lineage,
    MemoryStore,
    ShardedStore,
    list_checkpoints,
    load_latest_checkpoint,
    restore_store,
    validate_checkpoint,
    write_checkpoint,
)
from repro.scenarios import _ping_is_same_flow, with_config

#: One-node tasks for the parallel legs, as in the chaos suite.
pytestmark = pytest.mark.usefixtures("small_tasks")

KNOBS = dict(stop_at_first_violation=False)

WIDTH = 16  # packed md5 record bytes


def _hex(i: int) -> str:
    return hashlib.md5(str(i).encode()).hexdigest()


def _digests(n: int) -> list[str]:
    return [_hex(i) for i in range(n)]


def _digest_of(path) -> str:
    """The manifest's checksum of the whole file at ``path``."""
    return store_mod._blake2b(path, path.stat().st_size).hexdigest()


def _shard0_digest(i: int, shards: int = 4) -> str:
    """A digest whose first six record bytes are zero — always shard 0,
    whatever the shard count."""
    return "000000000000" + _hex(i)[:20]


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
# Batched appends
# ----------------------------------------------------------------------

class TestAddBatch:
    def test_flags_are_per_digest_in_order(self, tmp_path):
        store = ShardedStore(shards=2, directory=str(tmp_path / "s"))
        a, b = _hex(1), _hex(2)
        assert store.add_batch([a, b, a, b, _hex(3)]) == \
            [True, True, False, False, True]
        assert len(store) == 3
        store.close()

    def test_batch_routes_through_instance_add(self, tmp_path):
        """The crash harness monkeypatches ``add`` on the instance;
        batching must not tunnel past that seam."""
        store = ShardedStore(shards=2, directory=str(tmp_path / "s"))
        seen = []
        real_add = store.add
        store.add = lambda digest: (seen.append(digest), real_add(digest))[1]
        store.add_batch(_digests(5))
        assert seen == _digests(5)
        store.close()

    def test_tails_buffer_until_checkpoint_flushes(self, tmp_path):
        """Appends land in tail buffers (one write per 64 KiB run, not
        per state); a snapshot flushes every tail first, so the
        checkpoint holds all records including the buffered ones."""
        store = ShardedStore(shards=4, directory=str(tmp_path / "s"))
        store.add_batch(_digests(50))
        assert sum(store._flushed) == 0  # nothing hit disk yet
        write_checkpoint(tmp_path / "c", spec=None,
                         config=NiceConfig(checkpoint_dir=str(tmp_path)),
                         stats=SearchStats(), frontier=[], rng_state=None,
                         store=store)
        assert sum(store._flushed) == 50 * WIDTH
        loaded = load_latest_checkpoint(tmp_path / "c")
        assert sorted(loaded.iter_digests()) == sorted(_digests(50))
        assert loaded.record_width == WIDTH
        store.close()


# ----------------------------------------------------------------------
# The index is exact: a shared 48-bit prefix goes to the records
# ----------------------------------------------------------------------

def _entries_of_key(store, digest) -> list:
    """The entries the sharded store's table holds under ``digest``'s
    48-bit key (spilled digests), in probe order."""
    key = int.from_bytes(bytes.fromhex(digest)[:6], "little")
    table = store._table
    cell, found = key & table.mask, []
    while table.cells[cell]:
        entry = table.cells[cell] - 1
        if store._prefixes[entry] == key:
            found.append(entry)
        cell = (cell + 1) & table.mask
    return found


class TestSamePrefix:
    def test_membership_is_exact_under_prefix_collisions(self, tmp_path):
        store = ShardedStore(shards=2, memory_budget=5,
                             directory=str(tmp_path / "s"))
        batch = _digests(100)
        store.add_batch(batch)
        store.flush()
        assert all(digest in store for digest in batch)
        held = batch[0]  # long evicted: on disk only
        reads = store.counters()["spill_reads"]
        # An unknown prefix is a definitive miss without any read ...
        assert "f" * 32 not in store
        assert store.counters()["spill_reads"] == reads
        # ... a present prefix over an absent record costs exactly one.
        assert held[:12] + "f" * 20 not in store
        assert store.counters()["spill_reads"] == reads + 1
        # Two *stored* digests sharing a prefix: once both have spilled,
        # two entries of one key along its probe, in spill order.
        twin = held[:12] + "e" * 20
        assert store.add(twin)
        store.add_batch(_hex(i) for i in range(100, 110))  # evicts both
        store.flush()
        entries = _entries_of_key(store, held)
        assert len(entries) == 2 and entries[0] < entries[1]
        assert held in store and twin in store
        assert not store.add(held) and not store.add(twin)
        assert held[:12] + "f" * 20 not in store
        assert len(store) == 111
        store.close()


# ----------------------------------------------------------------------
# Mixed hash modes (satellite: lookups must be as strict as inserts)
# ----------------------------------------------------------------------

class TestMixedWidthGuard:
    @pytest.mark.parametrize("foreign,is_hex", [
        ("b" * 64, True), ("not-hex", False), ("z" * 32, False)],
        ids=["wider", "not-hex", "not-hex-same-width"])
    def test_lookup_raises_like_add(self, foreign, is_hex, tmp_path):
        """One record encoding — packed lowercase hex of one width: a
        digest that is anything else is a second scheme, refused on the
        way in and on the way to a lookup alike, first digest included."""
        store = ShardedStore(directory=str(tmp_path / "s"))
        if not is_hex:
            with pytest.raises(ValueError, match="two digest schemes"):
                store.add(foreign)
            assert len(store) == 0 and store.record_width() == 0
        store.add("a" * 32)
        with pytest.raises(ValueError, match="two digest schemes"):
            store.add(foreign)
        with pytest.raises(ValueError, match="two digest schemes"):
            foreign in store
        assert len(store) == 1 and store.record_width() == 16
        store.close()

    def test_memory_store_rejects_mixed_widths_on_add(self, tmp_path):
        """The memory store's log is fixed-width too: a second width is
        refused on arrival, as the sharded store refuses it, and the
        snapshot holds the one scheme's records."""
        store = MemoryStore()
        store.add("a" * 32)
        with pytest.raises(ValueError, match="two digest schemes"):
            store.add("b" * 64)
        with pytest.raises(ValueError, match="two digest schemes"):
            "b" * 64 in store
        assert len(store) == 1 and store.record_width() == 16
        write_checkpoint(
            tmp_path, spec=None, config=NiceConfig(), stats=SearchStats(),
            frontier=[], rng_state=None, store=store)
        assert (tmp_path / "states-0000-0000.bin").read_bytes() == \
            b"\xaa" * 16

    def test_the_record_bytes_are_the_ones_every_build_wrote(self, tmp_path):
        """Literals recorded at the commit before the second record
        encoding was deleted: for a fixed digest list, each store's
        record files (blake2b-16 of their bytes) and what the manifest
        says of them: the bytes of a format-3 log are a format-2
        snapshot's record file, shard by shard.  The memory store's one
        file was ``states-0000.bin`` until it wrote segments; its bytes
        are the same."""
        recorded = {
            MemoryStore: {
                "states-0000-0000.bin": "b3251294848cd1eb37129648c13939dc"},
            ShardedStore: {
                "states-0000-0000.bin": "b2b0c54339a71cee51a1ecb2605ef44a",
                "states-0001-0000.bin": "ba22e96ead09b56e3d4c7e811d22b288",
                "states-0002-0000.bin": "5863d757b672de512d78adca074ee98b",
                "states-0003-0000.bin": "7ab677a1fcc9962853b6034485fcdef4"},
        }
        for kind, files in recorded.items():
            root = tmp_path / kind.kind
            store = kind() if kind is MemoryStore else ShardedStore(
                shards=4, directory=str(root / "s"))
            store.add_batch(_digests(40))
            snapshot, _ = write_checkpoint(
                root / "c", spec=None, config=NiceConfig(),
                stats=SearchStats(), frontier=[], rng_state=None,
                store=store)
            manifest = json.loads((snapshot / "MANIFEST.json").read_text())
            assert {key: manifest[key] for key in (
                "format", "states", "record_width", "record_encoding",
                "record_files", "store")} == {
                "format": 3, "states": 40, "record_width": 16,
                "record_encoding": "hex", "record_files": list(files),
                "store": kind.kind}
            assert {name: _digest_of(root / "c" / name)
                    for name in files} == files
            store.close()


# ----------------------------------------------------------------------
# One append-only log per shard
# ----------------------------------------------------------------------

def _as_format_2(snapshot, whole_log: bool = False) -> None:
    """Rewrite ``snapshot`` as a format-2 build left it: each log's
    prefix as two segments of the snapshot's own, ``states-SSSS-0000.bin``
    and ``-0001`` — or, with ``whole_log``, the memory store's records in
    one ``states-0000.bin``, as the builds before segments wrote them."""
    manifest = json.loads((snapshot / "MANIFEST.json").read_text())
    records = {}
    for name in manifest["record_files"]:
        data = (snapshot.parent / name).read_bytes()[
            :manifest["files"].pop(name)["bytes"]]
        half = len(data) // WIDTH // 2 * WIDTH
        records[name] = data[:half]
        records[name.replace("-0000.bin", "-0001.bin")] = data[half:]
    if whole_log and records:
        records = {"states-0000.bin": b"".join(records.values())}
    for name, data in records.items():
        (snapshot / name).write_bytes(data)
        manifest["files"][name] = {"bytes": len(data),
                                   "blake2b": _digest_of(snapshot / name)}
    manifest.update(format=2, record_files=list(records))
    (snapshot / "MANIFEST.json").write_text(json.dumps(manifest))


def _as_format_2_lineage(directory, whole_log: bool = False) -> None:
    """Every snapshot of ``directory`` as format 2, and no log left at
    its root: what a format-2 build's lineage holds."""
    for snapshot in directory.glob("ckpt-*"):
        _as_format_2(snapshot, whole_log)
    for log in directory.glob("states-*"):
        log.unlink()


def _logs(directory) -> dict:
    """The lineage root's logs: ``{name: size}``."""
    return {path.name: path.stat().st_size
            for path in directory.glob("states-*")}


class TestCompaction:
    def _write(self, root, store, lineage):
        path, _ = write_checkpoint(
            root, spec=None, config=NiceConfig(checkpoint_dir=str(root)),
            stats=SearchStats(), frontier=[], rng_state=None,
            store=store, lineage=lineage)
        return path

    def test_a_snapshot_appends_to_the_grown_shards_only(self, tmp_path):
        store = ShardedStore(shards=4, memory_budget=16,
                             directory=str(tmp_path / "s"))
        lineage = Lineage()
        store.add_batch(_digests(200))
        first = self._write(tmp_path / "c", store, lineage)
        full_bytes = validate_checkpoint(first).bytes_written
        before = _logs(tmp_path / "c")
        # Grow shard 0 only; shards 1-3 must ride along untouched.
        extra = [_shard0_digest(i) for i in range(10)]
        store.add_batch(extra)
        second = self._write(tmp_path / "c", store, lineage)
        after = _logs(tmp_path / "c")
        assert sorted(after) == sorted(before) == [
            f"states-{shard:04d}-0000.bin" for shard in range(4)]
        assert after == {**before, "states-0000-0000.bin":
                         before["states-0000-0000.bin"] + len(extra) * WIDTH}
        # O(new states): the second snapshot writes exactly the grown
        # shard's appended records + the meta blob.
        loaded_second = validate_checkpoint(second)
        meta_bytes = loaded_second.file_info["meta.pkl"]["bytes"]
        assert loaded_second.bytes_written == \
            meta_bytes + len(extra) * WIDTH
        assert loaded_second.bytes_written < full_bytes
        assert sorted(os.listdir(second)) == ["MANIFEST.json", "meta.pkl"]
        loaded = load_latest_checkpoint(tmp_path / "c")
        assert sorted(loaded.iter_digests()) == sorted(_digests(200) + extra)
        # The older snapshot's prefix is still its own.
        assert sorted(validate_checkpoint(first).iter_digests()) == \
            sorted(_digests(200))
        store.close()

    def test_a_memory_lineage_writes_only_its_new_records(self, tmp_path):
        """The memory store's log is one append-only shard: its second
        snapshot appends the records added since plus ``meta.pkl``, a
        third with nothing new writes ``meta.pkl`` alone, and the log
        still grows after each (no view of it outlives a snapshot)."""
        store = MemoryStore()
        lineage = Lineage()
        store.add_batch(_digests(200))
        first = self._write(tmp_path / "c", store, lineage)
        assert validate_checkpoint(first).bytes_written == \
            200 * WIDTH + (first / "meta.pkl").stat().st_size
        store.add_batch(_digests(250))
        second = self._write(tmp_path / "c", store, lineage)
        loaded = validate_checkpoint(second)
        assert [path.name for path in loaded.record_files] == [
            "states-0000-0000.bin"]
        assert loaded.file_info["states-0000-0000.bin"]["bytes"] == \
            250 * WIDTH
        assert loaded.bytes_written == \
            50 * WIDTH + loaded.file_info["meta.pkl"]["bytes"]
        assert list(loaded.iter_digests()) == _digests(250)
        assert list(validate_checkpoint(first).iter_digests()) == \
            _digests(200)
        third = self._write(tmp_path / "c", store, lineage)
        loaded = validate_checkpoint(third)
        assert loaded.bytes_written == loaded.file_info["meta.pkl"]["bytes"]
        assert list(loaded.iter_digests()) == _digests(250)
        assert store.add(_hex(250)) and len(store) == 251

    def test_pruning_keeps_the_logs_kept_snapshots_name(self, tmp_path):
        """CHECKPOINT_KEEP drops old snapshots, never a log a kept one
        names: a second run in the same directory starts generation 1
        beside generation 0, whose logs go once no kept snapshot names
        them."""
        root = tmp_path / "c"
        store = ShardedStore(shards=2, directory=str(tmp_path / "s"))
        lineage = Lineage()
        store.add_batch(_digests(100))
        self._write(root, store, lineage)
        for start in (100, 110, 120):  # two prunes
            store.add_batch([_hex(i) for i in range(start, start + 10)])
            self._write(root, store, lineage)
        snapshots = sorted(root.glob("ckpt-*"))
        assert len(snapshots) == store_mod.CHECKPOINT_KEEP
        loaded = validate_checkpoint(snapshots[-1])  # checksums intact
        assert sorted(loaded.iter_digests()) == sorted(_digests(130))
        rerun = MemoryStore()
        rerun.add_batch(_digests(5))
        again = Lineage()
        self._write(root, rerun, again)
        assert again.generation == 1
        assert sorted(_logs(root)) == [
            "states-0000-0000.bin", "states-0000-0001.bin",
            "states-0001-0000.bin"]
        self._write(root, rerun, again)
        assert sorted(_logs(root)) == ["states-0000-0001.bin"]
        assert list(load_latest_checkpoint(root).iter_digests()) == \
            _digests(5)
        store.close()

    def test_an_adopted_lineage_appends_on_the_first_resumed_snapshot(
            self, tmp_path):
        store = ShardedStore(shards=4, memory_budget=16,
                             directory=str(tmp_path / "a"))
        store.add_batch(_digests(300))
        self._write(tmp_path / "c", store, Lineage())
        store.close()
        before = _logs(tmp_path / "c")

        fresh = ShardedStore(shards=4, memory_budget=16,
                             directory=str(tmp_path / "b"))
        ckpt = load_latest_checkpoint(tmp_path / "c")
        lineage = restore_store(fresh, ckpt)
        assert lineage.root == (tmp_path / "c").resolve()
        assert len(fresh) == 300
        assert all(digest in fresh for digest in _digests(300))
        fresh.add_batch(_digests(310))
        second = validate_checkpoint(self._write(tmp_path / "c", fresh,
                                                 lineage))
        assert second.bytes_written == \
            10 * WIDTH + second.file_info["meta.pkl"]["bytes"]
        assert sorted(_logs(tmp_path / "c")) == sorted(before)
        assert sum(_logs(tmp_path / "c").values()) == 310 * WIDTH
        fresh.close()

    def test_a_foreign_layout_is_not_adopted(self, tmp_path):
        """A checkpoint whose shards hold other bytes than the preloaded
        store's (another shard count) is no lineage to append to: the
        next snapshot starts a new generation and writes every record."""
        store = ShardedStore(shards=4, directory=str(tmp_path / "a"))
        store.add_batch(_digests(300))
        self._write(tmp_path / "c", store, Lineage())
        store.close()
        for fresh in (MemoryStore(), ShardedStore(
                shards=2, directory=str(tmp_path / "b"))):
            lineage = restore_store(fresh, load_latest_checkpoint(
                tmp_path / "c"))
            assert lineage.root is None and lineage.prefixes == {}
            assert len(fresh) == 300
            fresh.close()

    @pytest.mark.parametrize("store", ["memory", "sharded"])
    def test_a_snapshot_is_two_files_over_one_log_per_shard(
            self, store, tmp_path, monkeypatch):
        """The shape, on a checkpointed ``ping`` run of either store:
        snapshot k's directory holds ``meta.pkl`` and the manifest only,
        the lineage root at most one log per shard, and the manifest's
        size does not grow with k."""
        monkeypatch.setattr(store_mod, "CHECKPOINT_KEEP", 1 << 30)
        shards = 1 if store == "memory" else 4
        root = tmp_path / "c"
        stats = nice.run(_ping(store=store, store_shards=shards,
                               checkpoint_dir=str(root),
                               checkpoint_interval=25))
        snapshots = list_checkpoints(root)
        assert len(snapshots) == stats.checkpoints_written > 15
        for snapshot in snapshots:
            assert sorted(os.listdir(snapshot)) == \
                ["MANIFEST.json", "meta.pkl"]
        assert sorted(_logs(root)) == [
            f"states-{shard:04d}-0000.bin" for shard in range(shards)]
        manifests = [len((snapshot / "MANIFEST.json").read_bytes())
                     for snapshot in snapshots]
        # Digits of growing counts aside, every manifest is as long: one
        # more entry per snapshot would add ~90 bytes each time.
        assert max(manifests) - min(manifests) < 32
        assert max(manifests) < 512 + 128 * shards

    # -- a memory-store search, resumed ---------------------------------

    @pytest.fixture
    def memory_lineage(self, tmp_path, monkeypatch):
        """A memory-store search's checkpoints, a snapshot every 60
        states, cut at 150."""
        interrupt_after(monkeypatch, 150)
        with pytest.raises(Interrupted):
            nice.run(_ping(checkpoint_dir=str(tmp_path / "c"),
                           checkpoint_interval=60))
        monkeypatch.undo()
        return tmp_path / "c"

    @staticmethod
    def _first_resumed_snapshot(directory, monkeypatch):
        """Resume ``directory`` and cut it again once it wrote one more
        snapshot: ``(the snapshot it resumed, that one)``."""
        adopted = sorted(directory.glob("ckpt-*"))[-1]
        interrupt_after(monkeypatch, validate_checkpoint(adopted).states + 90)
        with pytest.raises(Interrupted):
            nice.resume(directory)
        monkeypatch.undo()
        kept, first_resumed = sorted(directory.glob("ckpt-*"))
        assert kept == adopted
        return adopted, first_resumed

    @staticmethod
    def _assert_appends_only_new_records(adopted, first_resumed):
        """``first_resumed`` names longer prefixes of ``adopted``'s logs,
        and the records appended to them and ``meta.pkl`` are all it
        wrote."""
        old, new = validate_checkpoint(adopted), validate_checkpoint(
            first_resumed)
        assert [path.name for path in new.record_files] == \
            [path.name for path in old.record_files] != []
        assert new.bytes_written == \
            (new.states - old.states) * WIDTH \
            + new.file_info["meta.pkl"]["bytes"]
        assert list(new.iter_digests())[:old.states] == \
            list(old.iter_digests())

    def test_a_resumed_memory_run_appends_to_the_adopted_log(
            self, memory_lineage, serial_ping, monkeypatch):
        adopted, first_resumed = self._first_resumed_snapshot(
            memory_lineage, monkeypatch)
        self._assert_appends_only_new_records(adopted, first_resumed)
        _, stats = nice.resume(memory_lineage)
        assert_matches_serial(stats, serial_ping)

    def test_a_moved_lineage_appends_only_its_new_records(
            self, memory_lineage, serial_ping, monkeypatch, tmp_path):
        """Nothing in a snapshot names the lineage's path: moved between
        two resumes, the first snapshot of the second appends to the
        moved logs, and the search ends where the unmoved one does."""
        self._first_resumed_snapshot(memory_lineage, monkeypatch)
        moved = tmp_path / "moved" / "lineage"
        moved.parent.mkdir()
        os.rename(memory_lineage, moved)
        logs = _logs(moved)
        adopted, first_resumed = self._first_resumed_snapshot(
            moved, monkeypatch)
        self._assert_appends_only_new_records(adopted, first_resumed)
        assert sorted(_logs(moved)) == sorted(logs)
        assert not memory_lineage.exists()
        _, stats = nice.resume(moved)
        assert_matches_serial(stats, serial_ping)

    def test_a_resume_into_another_directory_writes_every_record(
            self, memory_lineage, serial_ping, tmp_path, monkeypatch):
        """The logs it resumed from are another lineage's: its first
        snapshot writes a log of its own, and the original stays as it
        was."""
        monkeypatch.setattr(store_mod, "CHECKPOINT_KEEP", 1 << 30)
        before = {path: path.read_bytes()
                  for path in memory_lineage.rglob("*") if path.is_file()}
        other = tmp_path / "other"
        _, stats = nice.resume(memory_lineage, checkpoint_dir=str(other))
        assert_matches_serial(stats, serial_ping)
        first = validate_checkpoint(list_checkpoints(other)[0])
        assert first.bytes_written == first.states * WIDTH \
            + first.file_info["meta.pkl"]["bytes"]
        assert sorted(_logs(other)) == ["states-0000-0000.bin"]
        assert {path: path.read_bytes() for path in memory_lineage.rglob("*")
                if path.is_file()} == before

    def test_a_snapshot_names_no_path(self, memory_lineage, monkeypatch):
        """Not the lineage's absolute path, in any byte of ``meta.pkl``
        or a manifest — of a first run nor of a resumed one."""
        self._first_resumed_snapshot(memory_lineage, monkeypatch)
        paths = {str(memory_lineage).encode(),
                 str(memory_lineage.resolve()).encode()}
        for snapshot in memory_lineage.glob("ckpt-*"):
            for name in ("meta.pkl", "MANIFEST.json"):
                data = (snapshot / name).read_bytes()
                assert not any(path in data for path in paths)

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "workers2"])
    @pytest.mark.parametrize("whole_log", [False, True],
                             ids=["segments", "states-0000"])
    def test_a_format_2_memory_checkpoint_resumes(
            self, memory_lineage, serial_ping, workers, whole_log):
        _as_format_2_lineage(memory_lineage, whole_log)
        _, stats = nice.resume(memory_lineage, workers=workers)
        assert stats.workers == workers
        assert_matches_serial(stats, serial_ping)

    def test_a_format_2_checkpoint_starts_a_new_generation(
            self, memory_lineage, serial_ping, monkeypatch):
        """A format-2 snapshot's record files are its own: the first
        snapshot of its resume writes every record into a log of its
        own, and the format-2 snapshot still validates beside it."""
        _as_format_2_lineage(memory_lineage, whole_log=True)
        adopted, first_resumed = self._first_resumed_snapshot(
            memory_lineage, monkeypatch)
        loaded = validate_checkpoint(first_resumed)
        assert [path.name for path in loaded.record_files] == [
            "states-0000-0000.bin"]
        assert loaded.bytes_written == loaded.states * WIDTH \
            + loaded.file_info["meta.pkl"]["bytes"]
        assert validate_checkpoint(adopted).format == 2
        _, stats = nice.resume(memory_lineage)
        assert_matches_serial(stats, serial_ping)


# ----------------------------------------------------------------------
# Resume across the deleted engine knobs and Bloom files; one readable
# format
# ----------------------------------------------------------------------

def _plant_in_pickled_config(snapshot, **stale) -> None:
    """Rewrite the snapshot's ``meta.pkl`` with ``stale`` attributes in
    its config's instance ``__dict__`` — where a pickle written before
    those fields were deleted carries them — and re-seal the manifest."""
    meta = pickle.loads((snapshot / "meta.pkl").read_bytes())
    vars(meta["config"]).update(stale)
    (snapshot / "meta.pkl").write_bytes(
        pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL))
    manifest = json.loads((snapshot / "MANIFEST.json").read_text())
    manifest["files"]["meta.pkl"] = {
        "bytes": (snapshot / "meta.pkl").stat().st_size,
        "blake2b": _digest_of(snapshot / "meta.pkl")}
    (snapshot / "MANIFEST.json").write_text(json.dumps(manifest))


def _add_bloom_files(snapshot) -> None:
    """Make ``snapshot`` what the build before the sharded store lost
    its Bloom filter wrote: a 128 KiB ``bloom-NNNN.bin`` per populated
    shard, listed under ``files`` and ``summary_files`` and counted in
    ``bytes_written``, and ``store_bloom_bits`` in the pickled config."""
    _plant_in_pickled_config(snapshot, store_bloom_bits=1 << 20)
    manifest = json.loads((snapshot / "MANIFEST.json").read_text())
    shards = sorted({name[:len("states-0000")]
                     for name in manifest["record_files"]})
    manifest["summary_files"] = [
        shard.replace("states", "bloom") + ".bin" for shard in shards]
    for index, name in enumerate(manifest["summary_files"]):
        (snapshot / name).write_bytes(bytes([index + 1]) * (1 << 17))
        manifest["files"][name] = {
            "bytes": 1 << 17,
            "blake2b": _digest_of(snapshot / name)}
        manifest["bytes_written"] += 1 << 17
    (snapshot / "MANIFEST.json").write_text(json.dumps(manifest))


class TestResumeAcrossDeletedKnobs:
    @pytest.fixture
    def interrupted(self, tmp_path, monkeypatch):
        """A checkpoint directory of a search cut at 150 states."""
        scenario = _ping(checkpoint_dir=str(tmp_path / "c"),
                         checkpoint_interval=60, store="sharded",
                         store_shards=4, store_memory_budget=32)
        interrupt_after(monkeypatch, 150)
        with pytest.raises(Interrupted):
            nice.run(scenario)
        monkeypatch.undo()
        return tmp_path / "c"

    @pytest.mark.parametrize("knob,value", [
        ("hash_mode", "full"), ("hash_memoization", False)])
    def test_md5_digest_snapshots_are_refused(self, interrupted, knob,
                                              value, capsys):
        """md5 and blake2b-16 hex digests are equally wide, so only the
        pickled config can tell a foreign explored set from ours."""
        for snapshot in interrupted.glob("ckpt-*"):
            _plant_in_pickled_config(snapshot, **{knob: value})
        with pytest.raises(CheckpointError, match=knob):
            load_latest_checkpoint(interrupted)
        with pytest.raises(CheckpointError, match=knob):
            nice.resume(interrupted)
        capsys.readouterr()
        assert cli.main(["resume", str(interrupted)]) == 2
        assert knob in capsys.readouterr().err
        assert cli.main(["checkpoints", str(interrupted)]) == 2
        report = capsys.readouterr().out
        assert "INVALID" in report and knob in report

    def test_stale_clone_and_frontier_knobs_are_ignored(
            self, interrupted, serial_ping):
        """The deleted knobs that never changed a digest — and the
        digest-preserving values of the two that did."""
        for snapshot in interrupted.glob("ckpt-*"):
            _plant_in_pickled_config(
                snapshot, fast_clone=False, cow_clone=False,
                checkpoint_mode="trace", hash_mode="digest",
                hash_memoization=True)
        scenario, stats = nice.resume(interrupted)
        assert_matches_serial(stats, serial_ping)
        assert not hasattr(scenario.config, "cow_clone")

    @pytest.mark.parametrize("knob,value", [
        pytest.param("store_bloom_broadcast", True, id="True"),
        pytest.param("store_bloom_broadcast", False, id="False"),
        ("affinity", False), ("adaptive_batching", False),
        ("batch_groups", 1), ("batch_nodes", 1), ("quarantine", False),
        ("fail_fast", True), ("respawn_workers", True), ("min_workers", 2),
        ("max_task_retries", 0), ("worker_cache_size", 1), ("max_paths", 1),
        pytest.param("extra", {"is_same_flow": _ping_is_same_flow},
                     id="extra"),
        ("hash_counters", False)])
    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "workers2"])
    def test_stale_pool_or_fail_fast_knob_is_ignored(
            self, interrupted, serial_ping, knob, value, workers, capsys):
        """``store_bloom_broadcast`` chose how children crossed the wire,
        the five scheduler switches how tasks were packed, routed and
        given up on, ``fail_fast`` whether a handler exception aborted
        the search, the three pool knobs what a worker death did,
        ``worker_cache_size`` and ``max_paths`` bounds that never bound,
        ``extra`` FLOW-IR's grouping (this search is PKT-SEQ; the
        scenario brings its own) — never what a digest was; and a
        ``hash_counters`` the ping app derives too: the inspector passes
        any value, and it resumes, serially and on workers."""
        for snapshot in interrupted.glob("ckpt-*"):
            _plant_in_pickled_config(snapshot, **{knob: value})
        assert cli.main(["checkpoints", str(interrupted)]) == 0
        assert "INVALID" not in capsys.readouterr().out
        scenario, stats = nice.resume(interrupted, workers=workers)
        assert stats.workers == workers
        assert_matches_serial(stats, serial_ping)
        assert not hasattr(scenario.config, knob)

    def test_counter_hashing_the_app_does_not_derive_is_refused(
            self, tmp_path, monkeypatch, capsys):
        """``ping``'s app reads no statistics, so its switches hash no
        counters: a snapshot that says they did holds digests of other
        switch state.  The rebuilt scenario says so, for ``nice resume``
        and the inspector alike: neither reports or loads any snapshot,
        and both give the one reason.  (A FLOW-IR search: its grouping
        comes from the scenario, rebuilt here too.)"""
        directory = tmp_path / "c"
        interrupt_after(monkeypatch, 150)
        with pytest.raises(Interrupted):
            nice.run(_ping(strategy="FLOW-IR", checkpoint_dir=str(directory),
                           checkpoint_interval=60))
        monkeypatch.undo()
        snapshots = sorted(directory.glob("ckpt-*"))
        for snapshot in snapshots:
            _plant_in_pickled_config(snapshot, hash_counters=True)
        reasons = [f"{snapshot.name}: written with hash_counters=True, which "
                   f"this scenario's app does not derive; not resumable"
                   for snapshot in snapshots]
        with pytest.raises(CheckpointError, match="hash_counters") as refused:
            nice.resume(directory)
        assert all(reason in str(refused.value) for reason in reasons)
        capsys.readouterr()
        assert cli.main(["resume", str(directory)]) == 2
        err = capsys.readouterr().err
        assert all(reason in err for reason in reasons)
        assert cli.main(["checkpoints", str(directory)]) == 2
        report = capsys.readouterr().out
        assert " ok " not in report and "resume would load" not in report
        assert all(f"{snapshot.name}: INVALID ({reason})" in report
                   for snapshot, reason in zip(snapshots, reasons))

    def test_a_refused_snapshot_falls_back_like_a_torn_one(
            self, interrupted, serial_ping, capsys):
        """Resume and the inspector agree on what resume loads: past a
        newest snapshot the app's counter hashing refuses, the one
        before it."""
        older, newest = sorted(interrupted.glob("ckpt-*"))
        _plant_in_pickled_config(newest, hash_counters=True)
        assert cli.main(["checkpoints", str(interrupted)]) == 0
        report = capsys.readouterr().out
        assert f"{newest.name}: INVALID" in report
        assert f"resume would load: {older.name}" in report
        _, stats = nice.resume(interrupted)
        assert stats.resumed_from == str(older)
        assert_matches_serial(stats, serial_ping)

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "workers2"])
    def test_heartbeat_carrying_checkpoint_validates_and_resumes(
            self, interrupted, serial_ping, workers, capsys):
        """Snapshots written while workers still beat carry
        ``heartbeat_interval`` in their pickled config: the inspector
        passes them, and a resume continues them with the field dropped."""
        for snapshot in interrupted.glob("ckpt-*"):
            _plant_in_pickled_config(snapshot, heartbeat_interval=0.5)
        assert load_latest_checkpoint(
            interrupted).config.heartbeat_interval == 0.5
        assert cli.main(["checkpoints", str(interrupted)]) == 0
        assert "INVALID" not in capsys.readouterr().out
        scenario, stats = nice.resume(interrupted, workers=workers)
        assert stats.workers == workers
        assert_matches_serial(stats, serial_ping)
        assert not hasattr(scenario.config, "heartbeat_interval")

    def test_checkpoints_hold_meta_and_manifest_only(self, interrupted):
        """And the lineage root holds the snapshots and their logs."""
        for snapshot in interrupted.glob("ckpt-*"):
            assert sorted(os.listdir(snapshot)) == \
                ["MANIFEST.json", "meta.pkl"]
        assert all(name.startswith("ckpt-") or
                   store_mod._parse_log_name(name) is not None
                   for name in os.listdir(interrupted))

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "workers2"])
    def test_bloom_carrying_checkpoint_resumes(self, interrupted,
                                               serial_ping, workers):
        """The files are validated like any other, then ignored; the
        stale field does not survive ``with_config``."""
        _as_format_2_lineage(interrupted)
        for snapshot in interrupted.glob("ckpt-*"):
            _add_bloom_files(snapshot)
        assert load_latest_checkpoint(interrupted).config.store_bloom_bits
        scenario, stats = nice.resume(interrupted, workers=workers)
        assert stats.workers == workers
        assert_matches_serial(stats, serial_ping)
        assert not hasattr(scenario.config, "store_bloom_bits")

    def test_bloom_carrying_checkpoint_leaves_its_files_behind(
            self, interrupted, serial_ping, monkeypatch):
        """The first snapshot a resumed run writes starts a log per shard
        of its own and carries no Bloom file forward."""
        _as_format_2_lineage(interrupted)
        for snapshot in interrupted.glob("ckpt-*"):
            _add_bloom_files(snapshot)
        adopted = sorted(interrupted.glob("ckpt-*"))[-1]
        # Snapshots fall every 60 states: one more, then cut again.
        cut = validate_checkpoint(adopted).states + 90
        interrupt_after(monkeypatch, cut)
        with pytest.raises(Interrupted):
            nice.resume(interrupted)
        monkeypatch.undo()
        kept, first_resumed = sorted(interrupted.glob("ckpt-*"))
        assert kept == adopted
        assert sorted(os.listdir(first_resumed)) == \
            ["MANIFEST.json", "meta.pkl"]
        loaded = validate_checkpoint(first_resumed)
        assert {path.parent for path in loaded.record_files} == \
            {interrupted}
        assert loaded.bytes_written == loaded.states * WIDTH \
            + loaded.file_info["meta.pkl"]["bytes"]
        assert "summary_files" not in json.loads(
            (first_resumed / "MANIFEST.json").read_text())
        _, stats = nice.resume(interrupted)
        assert_matches_serial(stats, serial_ping)

    def test_torn_bloom_file_still_invalidates_its_snapshot(
            self, interrupted, capsys):
        older, newest = sorted(interrupted.glob("ckpt-*"))
        for snapshot in (older, newest):
            _add_bloom_files(snapshot)
        bloom = next(newest.glob("bloom-*"))
        bloom.write_bytes(bloom.read_bytes()[:100])
        assert load_latest_checkpoint(interrupted).path == older
        assert bloom.name in capsys.readouterr().err

    def test_format_1_manifest_is_refused(self, interrupted):
        for snapshot in interrupted.glob("ckpt-*"):
            manifest = json.loads((snapshot / "MANIFEST.json").read_text())
            manifest["format"] = 1
            (snapshot / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format 1 is not readable"):
            load_latest_checkpoint(interrupted)


# ----------------------------------------------------------------------
# Checkpointer counter rollback (satellite: failed writes must not count)
# ----------------------------------------------------------------------

class TestWriteRollback:
    def test_failed_snapshot_rolls_back_checkpoints_written(self, tmp_path):
        """A write that fails half way through an append counts nothing,
        and the next one cuts the log back to the last committed prefix
        before it appends: its bytes and records are what they would
        have been without the failure."""
        config = NiceConfig(checkpoint_dir=str(tmp_path))
        store = MemoryStore()
        store.preload(_digests(5))
        stats = SearchStats()
        with pytest.warns(RuntimeWarning):
            checkpointer = Checkpointer(config, None, store, stats)
        real = store.copy_records

        def failing_copy_records(shard, start, end, dest):
            real(shard, start, start + (end - start) // 2 + 3, dest)
            raise OSError("disk full")

        def write(digests):
            store.add_batch(digests)
            counted = (stats.checkpoints_written,
                       stats.checkpoint_bytes_written)
            store.copy_records = failing_copy_records
            with pytest.raises(OSError, match="disk full"):
                checkpointer.write([], None)
            assert (stats.checkpoints_written,
                    stats.checkpoint_bytes_written) == counted
            store.copy_records = real
            return checkpointer.write([], None)

        first = validate_checkpoint(write(_digests(5)))
        assert stats.checkpoints_written == 1
        assert stats.checkpoint_bytes_written == first.bytes_written == \
            5 * WIDTH + first.file_info["meta.pkl"]["bytes"]
        second = validate_checkpoint(write(_digests(9)))
        assert stats.checkpoints_written == 2
        assert second.bytes_written == \
            4 * WIDTH + second.file_info["meta.pkl"]["bytes"]
        assert stats.checkpoint_bytes_written == \
            first.bytes_written + second.bytes_written
        assert list(second.iter_digests()) == _digests(9)
        assert (tmp_path / "states-0000-0000.bin").read_bytes() == \
            b"".join(bytes.fromhex(digest) for digest in _digests(9))

    def test_bytes_written_come_from_the_write_not_a_read_back(
            self, tmp_path, monkeypatch):
        """The count is what ``write_checkpoint`` wrote: a manifest that
        cannot be parsed back no longer counts as 0 B, silently."""
        store = MemoryStore()
        store.preload(_digests(5))
        stats = SearchStats()
        with pytest.warns(RuntimeWarning):
            checkpointer = Checkpointer(
                NiceConfig(checkpoint_dir=str(tmp_path)), None, store, stats)

        def unparsable(text):
            raise ValueError("manifest unreadable")

        monkeypatch.setattr(store_mod, "json", SimpleNamespace(
            dumps=json.dumps, loads=unparsable))
        path = checkpointer.write([], None)
        monkeypatch.undo()
        manifest = json.loads((path / "MANIFEST.json").read_text())
        assert stats.checkpoint_bytes_written \
            == manifest["bytes_written"] > 0


    @pytest.mark.parametrize("store", ["memory", "sharded"])
    def test_a_resumed_lineage_counts_every_snapshots_bytes(
            self, store, tmp_path, monkeypatch):
        """A snapshot's meta is pickled before its own bytes are added to
        the counters it holds, so resume adds them back: a resumed run's
        ``checkpoint_bytes_written`` is the sum of what every snapshot of
        its lineage wrote, the one it resumed from included."""
        written = []
        real = store_mod.write_checkpoint

        def counting(*args, **kwargs):
            path, nbytes = real(*args, **kwargs)
            written.append(nbytes)
            return path, nbytes

        monkeypatch.setattr(store_mod, "write_checkpoint", counting)
        directory = tmp_path / "c"
        first = nice.run(_ping(store=store, checkpoint_dir=str(directory),
                               checkpoint_interval=100,
                               max_transitions=400))
        assert first.terminated == "max_transitions" and len(written) > 1
        _, stats = nice.resume(str(directory), max_transitions=None)
        assert stats.terminated == "exhausted"
        assert stats.checkpoints_written == len(written)
        assert stats.checkpoint_bytes_written == sum(written)

    def test_a_resumed_lineage_counts_every_snapshots_seconds(
            self, tmp_path, monkeypatch):
        """Likewise the seconds: the manifest records the write's, up to
        its own write, and resume adds them.  A resumed run that writes
        nothing more reports its lineage's seconds, short only of what
        followed the last manifest write — not of a whole snapshot."""
        pause = 0.2
        real = MemoryStore.copy_records

        def slow(store, *args, **kwargs):
            time.sleep(pause)
            return real(store, *args, **kwargs)

        monkeypatch.setattr(MemoryStore, "copy_records", slow)
        directory = tmp_path / "c"
        first = nice.run(_ping(checkpoint_dir=str(directory),
                               checkpoint_interval=100,
                               max_transitions=400))
        monkeypatch.undo()
        assert first.checkpoints_written > 1
        _, stats = nice.resume(str(directory), checkpoint_dir=None,
                               max_transitions=None)
        assert stats.terminated == "exhausted"
        assert stats.checkpoints_written == first.checkpoints_written
        assert stats.checkpoint_seconds > first.checkpoint_seconds - pause / 2


# ----------------------------------------------------------------------
# Crash-recovery harness: the sharded fast path has a SIGKILL leg
# ----------------------------------------------------------------------

class TestShardedCrashRecovery:
    def test_sigkill_then_resume_bit_identical(self, serial_ping, tmp_path):
        ckpt_dir = crash_run(tmp_path / "ckpt", kill_after_states=150,
                             checkpoint_interval=60, workers=0,
                             store="sharded", store_shards=4,
                             store_memory_budget=32, **KNOBS)
        _, stats = nice.resume(ckpt_dir)
        assert stats.store == "sharded"
        assert_matches_serial(stats, serial_ping)
