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
    MemoryStore,
    ShardedStore,
    load_latest_checkpoint,
    restore_store,
    validate_checkpoint,
    write_checkpoint,
)
from repro.scenarios import with_config

#: One-node tasks for the parallel legs, as in the chaos suite.
pytestmark = pytest.mark.usefixtures("small_tasks")

KNOBS = dict(stop_at_first_violation=False)

WIDTH = 16  # packed md5 record bytes


def _hex(i: int) -> str:
    return hashlib.md5(str(i).encode()).hexdigest()


def _digests(n: int) -> list[str]:
    return [_hex(i) for i in range(n)]


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
        # Two *stored* digests sharing a prefix: a tuple of slots.
        twin = held[:12] + "e" * 20
        assert store.add(twin)
        assert any(isinstance(slots, tuple)
                   for index in store._index for slots in index.values())
        store.add_batch(_hex(i) for i in range(100, 110))  # evicts both
        store.flush()
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

    def test_memory_store_snapshot_rejects_mixed_widths(self, tmp_path):
        store = MemoryStore()
        store.add("a" * 32)
        store.add("b" * 64)  # the plain set cannot police this on add
        with pytest.raises(ValueError, match="digest width"):
            store.snapshot_into(tmp_path)

    def test_the_record_bytes_are_the_ones_every_build_wrote(self, tmp_path):
        """Literals recorded at the commit before the second record
        encoding was deleted: for a fixed digest list, each store's
        record files (blake2b-16 of their bytes) and what the manifest
        says of them — checkpoints of either build are the other's."""
        recorded = {
            MemoryStore: {
                "states-0000.bin": "b3251294848cd1eb37129648c13939dc"},
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
                "format": 2, "states": 40, "record_width": 16,
                "record_encoding": "hex", "record_files": list(files),
                "store": kind.kind}
            assert {name: store_mod._file_digest(snapshot / name)
                    for name in files} == files
            store.close()


# ----------------------------------------------------------------------
# Hard-link compaction
# ----------------------------------------------------------------------

class TestCompaction:
    def _write(self, root, store, previous=None):
        path, _ = write_checkpoint(
            root, spec=None, config=NiceConfig(checkpoint_dir=str(root)),
            stats=SearchStats(), frontier=[], rng_state=None,
            store=store, previous=previous)
        return path

    def test_unchanged_shards_are_linked_grown_shards_append(self, tmp_path):
        store = ShardedStore(shards=4, memory_budget=16,
                             directory=str(tmp_path / "s"))
        store.add_batch(_digests(200))
        first = self._write(tmp_path / "c", store)
        full_bytes = validate_checkpoint(first).bytes_written
        # Grow shard 0 only; shards 1-3 must ride along untouched.
        extra = [_shard0_digest(i) for i in range(10)]
        store.add_batch(extra)
        second = self._write(tmp_path / "c", store, previous=first)
        for name in os.listdir(first):
            if name.startswith("states-") and not name.startswith(
                    "states-0000"):
                assert (second / name).stat().st_ino == \
                    (first / name).stat().st_ino
        delta = second / "states-0000-0001.bin"
        assert delta.stat().st_size == len(extra) * WIDTH
        assert (second / "states-0000-0000.bin").stat().st_ino == \
            (first / "states-0000-0000.bin").stat().st_ino
        # O(new states): the second snapshot writes exactly the grown
        # shard's delta segment + the meta blob — every other byte is a
        # hard link.
        loaded_second = validate_checkpoint(second)
        meta_bytes = loaded_second.file_info["meta.pkl"]["bytes"]
        assert loaded_second.bytes_written == \
            meta_bytes + delta.stat().st_size
        assert loaded_second.bytes_written < full_bytes
        loaded = load_latest_checkpoint(tmp_path / "c")
        assert sorted(loaded.iter_digests()) == sorted(_digests(200) + extra)
        store.close()

    def test_links_survive_retention_pruning(self, tmp_path):
        """CHECKPOINT_KEEP drops the snapshot a segment was first
        written into; the hard link keeps the inode alive and the
        newest snapshot keeps validating (checksums included)."""
        store = ShardedStore(shards=2, directory=str(tmp_path / "s"))
        store.add_batch(_digests(100))
        previous = self._write(tmp_path / "c", store)
        for start in (100, 110, 120):  # two prunes of the chain's head
            store.add_batch([_hex(i) for i in range(start, start + 10)])
            previous = self._write(tmp_path / "c", store, previous=previous)
        snapshots = sorted((tmp_path / "c").glob("ckpt-*"))
        assert len(snapshots) == store_mod.CHECKPOINT_KEEP
        loaded = validate_checkpoint(snapshots[-1])  # checksums intact
        assert sorted(loaded.iter_digests()) == sorted(_digests(130))
        store.close()

    def test_adopted_baseline_links_on_the_first_resumed_snapshot(
            self, tmp_path):
        store = ShardedStore(shards=4, memory_budget=16,
                             directory=str(tmp_path / "a"))
        store.add_batch(_digests(300))
        first = self._write(tmp_path / "c", store)
        store.close()

        fresh = ShardedStore(shards=4, memory_budget=16,
                             directory=str(tmp_path / "b"))
        ckpt = load_latest_checkpoint(tmp_path / "c")
        baseline = restore_store(fresh, ckpt)
        assert baseline == ckpt.path
        assert len(fresh) == 300
        assert all(digest in fresh for digest in _digests(300))
        second = self._write(tmp_path / "c", fresh, previous=baseline)
        for name in os.listdir(first):
            if name.endswith(".bin"):
                assert (second / name).stat().st_ino == \
                    (first / name).stat().st_ino
        fresh.close()


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
        "blake2b": store_mod._file_digest(snapshot / "meta.pkl")}
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
            "blake2b": store_mod._file_digest(snapshot / name)}
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
        ("max_task_retries", 0)])
    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "workers2"])
    def test_stale_pool_or_fail_fast_knob_is_ignored(
            self, interrupted, serial_ping, knob, value, workers, capsys):
        """``store_bloom_broadcast`` chose how children crossed the wire,
        the five scheduler switches how tasks were packed, routed and
        given up on, ``fail_fast`` whether a handler exception aborted
        the search, the three pool knobs what a worker death did — never
        what a digest was: the inspector passes any value, and it
        resumes, serially and on workers."""
        for snapshot in interrupted.glob("ckpt-*"):
            _plant_in_pickled_config(snapshot, **{knob: value})
        assert cli.main(["checkpoints", str(interrupted)]) == 0
        assert "INVALID" not in capsys.readouterr().out
        scenario, stats = nice.resume(interrupted, workers=workers)
        assert stats.workers == workers
        assert_matches_serial(stats, serial_ping)
        assert not hasattr(scenario.config, knob)

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

    def test_checkpoints_hold_segments_meta_and_manifest_only(
            self, interrupted):
        names = {path.name for snapshot in interrupted.glob("ckpt-*")
                 for path in snapshot.iterdir()}
        assert names >= {"meta.pkl", "MANIFEST.json"}
        assert all(
            ShardedStore._parse_record_name(name) is not None
            for name in names - {"meta.pkl", "MANIFEST.json"}), names

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "workers2"])
    def test_bloom_carrying_checkpoint_resumes(self, interrupted,
                                               serial_ping, workers):
        """The files are validated like any other, then ignored; the
        stale field does not survive ``with_config``."""
        for snapshot in interrupted.glob("ckpt-*"):
            _add_bloom_files(snapshot)
        assert load_latest_checkpoint(interrupted).config.store_bloom_bits
        scenario, stats = nice.resume(interrupted, workers=workers)
        assert stats.workers == workers
        assert_matches_serial(stats, serial_ping)
        assert not hasattr(scenario.config, "store_bloom_bits")

    def test_bloom_carrying_checkpoint_is_the_link_baseline(
            self, interrupted, serial_ping, monkeypatch):
        """The first snapshot a resumed run writes hard-links the adopted
        segments and carries no Bloom file forward."""
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
        segments = [path for path in adopted.iterdir()
                    if path.name.startswith("states-")]
        assert segments
        for segment in segments:
            assert (first_resumed / segment.name).stat().st_ino == \
                segment.stat().st_ino
        assert not list(first_resumed.glob("bloom-*"))
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
        config = NiceConfig(checkpoint_dir=str(tmp_path))
        store = MemoryStore()
        store.preload(_digests(5))
        stats = SearchStats()
        with pytest.warns(RuntimeWarning):
            checkpointer = Checkpointer(config, None, store, stats)

        def failing_snapshot_into(directory, previous=None):
            raise OSError("disk full")

        real = store.snapshot_into
        store.snapshot_into = failing_snapshot_into
        with pytest.raises(OSError, match="disk full"):
            checkpointer.write([], None)
        assert stats.checkpoints_written == 0
        assert stats.checkpoint_bytes_written == 0
        store.snapshot_into = real
        checkpointer.write([], None)
        assert stats.checkpoints_written == 1
        assert stats.checkpoint_bytes_written > 0

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
