"""Restartable search: crash-recovery harness + store/checkpoint units
(ISSUE 5).

Acceptance contract: a search SIGKILLed mid-run — master *and* workers,
at seeded interruption points, on the fork, spawn, and socket transports
as well as serially — and resumed from its last checkpoint with
``nice.resume`` explores a **bit-identical** state space (and reaches
identical property verdicts) vs. an uninterrupted serial run; a torn
snapshot (truncated file) is detected by its manifest and resume falls
back to the previous valid checkpoint; SIGTERM triggers a final
checkpoint and a clean ``terminated == "sigterm"`` exit.

The kills run through :mod:`checkpoint_helpers`: a subprocess in its own
session SIGKILLs its whole process group the moment the explored set
reaches the interruption point — the real crash path, no cleanup, no
atexit.  Unit tests cover the sharded store (spill, reload, digest-width
guard) and the checkpoint validator directly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal

import pytest

from checkpoint_helpers import (
    Interrupted,
    corrupt_newest,
    crash_run,
    interrupt_after,
    stored_digests,
)
from contract import counters, requires_fork, violated_properties
from repro import cli, nice, scenarios
from repro.config import NiceConfig
from repro.mc import store as store_mod
from repro.mc.store import (
    CheckpointError,
    Checkpointer,
    MemoryStore,
    ShardedStore,
    load_latest_checkpoint,
)
from repro.scenarios import with_config

#: Deterministic small tasks, as in the chaos suite: many interruption
#: points, and parallel legs that cannot hide work in large batches.
pytestmark = pytest.mark.usefixtures("small_tasks")

KNOBS = dict(stop_at_first_violation=False)

ENGINES = [
    pytest.param(dict(workers=2, start_method="fork"), "local-fork",
                 marks=requires_fork, id="fork"),
    pytest.param(dict(workers=2, start_method="spawn"), "local-spawn",
                 id="spawn"),
    pytest.param(dict(workers=2, transport="socket"), "socket", id="socket"),
    pytest.param(dict(workers=0), "serial", id="serial"),
]


def exhaustive_ping(**overrides):
    return with_config(scenarios.ping_experiment(pings=2),
                       **{**KNOBS, **overrides})


@pytest.fixture(scope="module")
def serial_ping():
    return nice.run(exhaustive_ping())


def assert_matches_serial(stats, serial_ping):
    assert counters(stats) == counters(serial_ping)
    assert violated_properties(stats) == violated_properties(serial_ping)


# ----------------------------------------------------------------------
# Acceptance: SIGKILL mid-run + resume == uninterrupted, all transports
# ----------------------------------------------------------------------

class TestCrashRecovery:
    @pytest.mark.parametrize("overrides,engine", ENGINES)
    def test_sigkill_then_resume_bit_identical(self, overrides, engine,
                                               serial_ping, tmp_path):
        # ~510 unique states total: kill at 150 with two full snapshots
        # (interval 60) already on disk.
        ckpt_dir = crash_run(tmp_path / "ckpt", kill_after_states=150,
                             checkpoint_interval=60, **KNOBS, **overrides)
        scenario, stats = nice.resume(ckpt_dir)
        assert_matches_serial(stats, serial_ping)
        assert stats.resumed_from is not None
        assert stats.engine == engine
        assert stats.checkpoints_written >= 2  # lineage counts its past

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("overrides", [dict(workers=0),
                                           dict(workers=2)])
    def test_seeded_interruption_points(self, seed, overrides, serial_ping,
                                        tmp_path):
        """The nightly sweep: kill points spread across the whole run."""
        kill_after = 70 + 67 * seed  # 70..405 of ~510 states
        ckpt_dir = crash_run(tmp_path / "ckpt", kill_after_states=kill_after,
                             checkpoint_interval=45, **KNOBS, **overrides)
        _, stats = nice.resume(ckpt_dir)
        assert_matches_serial(stats, serial_ping)

    def test_resume_can_switch_transport(self, serial_ping, tmp_path):
        """A serially checkpointed search resumes on the parallel engine
        (and could equally go the other way): the frontier is stored in
        the transport-agnostic sibling-group form."""
        ckpt_dir = crash_run(tmp_path / "ckpt", kill_after_states=150,
                             checkpoint_interval=60, workers=0, **KNOBS)
        _, stats = nice.resume(ckpt_dir, workers=2)
        assert stats.workers == 2
        assert_matches_serial(stats, serial_ping)


# ----------------------------------------------------------------------
# Torn writes: the newest snapshot is corrupt, the previous one serves
# ----------------------------------------------------------------------

class TestTornWrites:
    def test_resume_falls_back_to_previous_checkpoint(self, serial_ping,
                                                      tmp_path):
        ckpt_dir = crash_run(tmp_path / "ckpt", kill_after_states=200,
                             checkpoint_interval=50, workers=0, **KNOBS)
        snapshots = sorted(ckpt_dir.glob("ckpt-*"))
        assert len(snapshots) == 2  # retention keeps exactly two
        torn = corrupt_newest(ckpt_dir)
        _, stats = nice.resume(ckpt_dir)
        assert stats.resumed_from == str(snapshots[0])
        assert stats.resumed_from != str(torn)
        assert_matches_serial(stats, serial_ping)

    def test_truncated_meta_also_falls_back(self, serial_ping, tmp_path):
        ckpt_dir = crash_run(tmp_path / "ckpt", kill_after_states=200,
                             checkpoint_interval=50, workers=0, **KNOBS)
        corrupt_newest(ckpt_dir, "meta.pkl")
        _, stats = nice.resume(ckpt_dir)
        assert_matches_serial(stats, serial_ping)

    def test_every_checkpoint_torn_is_a_clean_error(self, tmp_path):
        ckpt_dir = crash_run(tmp_path / "ckpt", kill_after_states=200,
                             checkpoint_interval=50, workers=0, **KNOBS)
        for snapshot in ckpt_dir.glob("ckpt-*"):
            target = max((p for p in snapshot.iterdir() if p.is_file()),
                         key=lambda p: p.stat().st_size)
            target.write_bytes(target.read_bytes()[:16])
        with pytest.raises(CheckpointError, match="no usable checkpoint"):
            nice.resume(ckpt_dir)


# ----------------------------------------------------------------------
# The manifest is checked against itself: it is the one file no checksum
# covers, so an edit that keeps every listed file intact must still send
# resume back to the previous snapshot
# ----------------------------------------------------------------------

def _unlisted_record_file(manifest, older):
    manifest["record_files"].append("states-9999.bin")


def _record_file_outside_the_snapshot(manifest, older):
    """Every size and checksum holds: the newest frontier over the older
    snapshot's explored set."""
    listed = json.loads((older / "MANIFEST.json").read_text())
    name, = listed["record_files"]
    outside = os.path.join(os.pardir, older.name, name)
    manifest["record_files"] = [outside]
    manifest["files"][outside] = listed["files"][name]
    manifest["states"] = listed["states"]


def _record_width(manifest, older):
    manifest["record_width"] = 7


def _record_encoding(manifest, older):
    """The only encoding there is: any other name is a snapshot some
    other build wrote, whatever its records say."""
    manifest["record_encoding"] = "ascii"


def _state_count(manifest, older):
    manifest["states"] += 1


def _files_of_the_wrong_shape(manifest, older):
    manifest["files"] = sorted(manifest["files"])


def _record_files_of_the_wrong_shape(manifest, older):
    manifest["record_files"] = 5


MANIFEST_EDITS = [
    pytest.param(edit, id=edit.__name__.strip("_"))
    for edit in (_unlisted_record_file, _record_file_outside_the_snapshot,
                 _record_width, _record_encoding, _state_count,
                 _files_of_the_wrong_shape,
                 _record_files_of_the_wrong_shape)]


class TestManifestSelfCheck:
    @pytest.fixture
    def snapshots(self, tmp_path, monkeypatch):
        """The two snapshots (retention's whole point) of a search cut
        at 150 states, oldest first."""
        interrupt_after(monkeypatch, 150)
        with pytest.raises(Interrupted):
            nice.run(exhaustive_ping(checkpoint_dir=str(tmp_path / "c"),
                                     checkpoint_interval=60))
        monkeypatch.undo()
        older, newest = sorted((tmp_path / "c").glob("ckpt-*"))
        return older, newest

    @staticmethod
    def _edit(newest, edit, older) -> None:
        manifest = json.loads((newest / "MANIFEST.json").read_text())
        edit(manifest, older)
        (newest / "MANIFEST.json").write_text(json.dumps(manifest))

    @pytest.mark.parametrize("edit", MANIFEST_EDITS)
    def test_resume_falls_back_to_the_older_snapshot(
            self, edit, snapshots, serial_ping, capsys):
        older, newest = snapshots
        self._edit(newest, edit, older)
        with pytest.raises(CheckpointError, match=newest.name):
            store_mod.validate_checkpoint(newest)
        _, stats = nice.resume(older.parent)
        assert stats.resumed_from == str(older)
        assert f"checkpoint {newest} is unusable" in capsys.readouterr().err
        assert_matches_serial(stats, serial_ping)

    @pytest.mark.parametrize("edit", MANIFEST_EDITS)
    def test_inspector_reports_the_edit_and_what_resume_loads(
            self, edit, snapshots, capsys):
        older, newest = snapshots
        self._edit(newest, edit, older)
        assert cli.main(["checkpoints", str(older.parent)]) == 0
        report = capsys.readouterr().out
        assert f"{newest.name}: INVALID" in report
        assert f"{older.name}: ok" in report
        assert f"resume would load: {older.name}" in report

    def test_an_empty_store_has_width_zero_and_no_record_bytes(
            self, tmp_path):
        from repro.mc.search import SearchStats
        store_mod.write_checkpoint(
            tmp_path, spec=None, config=NiceConfig(), stats=SearchStats(),
            frontier=[], rng_state=None, store=MemoryStore())
        loaded = load_latest_checkpoint(tmp_path)
        assert (loaded.states, loaded.record_width) == (0, 0)
        assert list(loaded.iter_digests()) == []


# ----------------------------------------------------------------------
# SIGTERM: snapshot-and-stop, then resume
# ----------------------------------------------------------------------

class TestSigterm:
    def test_sigterm_checkpoints_and_resumes(self, serial_ping, tmp_path,
                                             monkeypatch):
        # Deliver SIGTERM to ourselves at a deterministic state count;
        # the handler only flags, and the loop snapshots at its next
        # consistent point before unwinding.
        interrupt_after(monkeypatch, 150,
                        action=lambda: os.kill(os.getpid(), signal.SIGTERM))
        stats = nice.run(exhaustive_ping(
            checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_interval=60))
        assert stats.terminated == "sigterm"
        assert stats.checkpoints_written >= 1
        monkeypatch.undo()  # the resumed leg must not re-trigger the kill
        _, resumed = nice.resume(tmp_path / "ckpt")
        assert_matches_serial(resumed, serial_ping)

    @requires_fork
    def test_sigterm_parallel_drains_before_snapshot(self, serial_ping,
                                                     tmp_path, monkeypatch):
        interrupt_after(monkeypatch, 150,
                        action=lambda: os.kill(os.getpid(), signal.SIGTERM))
        stats = nice.run(exhaustive_ping(
            workers=2, checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=60))
        assert stats.terminated == "sigterm"
        monkeypatch.undo()
        _, resumed = nice.resume(tmp_path / "ckpt")
        assert_matches_serial(resumed, serial_ping)


# ----------------------------------------------------------------------
# In-process interruption (the cheap crash the differential suite uses)
# ----------------------------------------------------------------------

class TestInProcessInterrupt:
    def test_interrupted_then_resumed_serial(self, serial_ping, tmp_path,
                                             monkeypatch):
        interrupt_after(monkeypatch, 150)
        with pytest.raises(Interrupted):
            nice.run(exhaustive_ping(checkpoint_dir=str(tmp_path / "c"),
                                     checkpoint_interval=60))
        monkeypatch.undo()
        _, stats = nice.resume(tmp_path / "c")
        assert_matches_serial(stats, serial_ping)

    def test_sharded_store_resumes_too(self, serial_ping, tmp_path,
                                       monkeypatch):
        interrupt_after(monkeypatch, 150)
        with pytest.raises(Interrupted):
            nice.run(exhaustive_ping(
                checkpoint_dir=str(tmp_path / "c"), checkpoint_interval=60,
                store="sharded", store_shards=4, store_memory_budget=16))
        monkeypatch.undo()
        _, stats = nice.resume(tmp_path / "c")
        assert stats.store == "sharded"
        assert_matches_serial(stats, serial_ping)


class TestSchedulerEarlyStop:
    @requires_fork
    def test_initial_violation_closes_the_store(self, monkeypatch):
        """A violation in the *initial* state ends a parallel run before
        the transport starts; the scheduler must still close its store
        (a sharded one holds open files and a temp spill directory)."""
        from repro.errors import PropertyViolation

        class AlwaysViolated:
            property_name = "AlwaysViolated"

            def reset(self, system):
                pass

            def check(self, system, transition):
                raise PropertyViolation("AlwaysViolated", "bad from boot")

            def check_quiescent(self, system):
                pass

        scenario = with_config(scenarios.ping_experiment(pings=1),
                               workers=2, store="sharded")
        scenario.properties = [AlwaysViolated()]
        created = []
        real_create = store_mod.create_store

        def tracking_create(config):
            store = real_create(config)
            created.append(store)
            return store

        monkeypatch.setattr(store_mod, "create_store", tracking_create)
        stats = nice.run(scenario)
        assert stats.found_violation
        assert stats.store == "sharded"
        assert created, "the parallel engine never built its store"
        assert not created[0].directory.exists(), \
            "the spill directory leaked past the early return"


class TestNoStateMatching:
    def test_checkpoints_key_on_transitions_without_state_matching(
            self, tmp_path):
        """With state matching off the explored store never grows past
        the initial digest — progress (and thus the checkpoint cadence)
        must key on executed transitions instead, and resume must land
        on the same bounded end state."""
        bounded = exhaustive_ping(state_matching=False, max_transitions=400,
                                  checkpoint_dir=str(tmp_path / "c"),
                                  checkpoint_interval=100)
        stats = nice.run(bounded)
        assert stats.terminated == "max_transitions"
        assert stats.checkpoints_written >= 2
        _, resumed = nice.resume(tmp_path / "c")
        assert resumed.terminated == "max_transitions"
        assert resumed.transitions_executed == stats.transitions_executed
        assert resumed.quiescent_states == stats.quiescent_states


# ----------------------------------------------------------------------
# Store units: membership, spill, reload, guards
# ----------------------------------------------------------------------

def _digests(n):
    import hashlib
    return [hashlib.md5(str(i).encode()).hexdigest() for i in range(n)]


class TestShardedStore:
    def test_membership_matches_memory_store(self, tmp_path):
        sharded = ShardedStore(shards=4, memory_budget=10,
                               directory=str(tmp_path / "s"))
        memory = MemoryStore()
        for digest in _digests(200):
            assert sharded.add(digest) == memory.add(digest)
        for digest in _digests(200):  # every re-add is a duplicate
            assert sharded.add(digest) is False
        assert len(sharded) == len(memory) == 200
        assert sorted(stored_digests(sharded, tmp_path / "cs")) \
            == sorted(stored_digests(memory, tmp_path / "cm")) \
            == sorted(_digests(200))
        sharded.close()

    def test_spill_path_is_exercised_and_correct(self, tmp_path):
        store = ShardedStore(shards=2, memory_budget=5,
                             directory=str(tmp_path / "s"))
        batch = _digests(100)
        for digest in batch:
            store.add(digest)
        spilled = store.counters()
        assert spilled["evictions"] >= 90
        # Cold lookups must come back from disk, not lie.
        assert all(digest in store for digest in batch)
        assert "f" * 32 not in store
        assert store.counters()["spill_reads"] > 0
        store.close()

    def test_mixed_digest_width_is_rejected(self, tmp_path):
        store = ShardedStore(directory=str(tmp_path / "s"))
        store.add("a" * 32)
        with pytest.raises(ValueError, match="digest width"):
            store.add("b" * 64)
        store.close()

    def test_owned_spill_directory_is_removed_on_close(self):
        store = ShardedStore(shards=2)
        spill_dir = store.directory
        store.add("c" * 32)
        assert spill_dir.exists()
        store.close()
        assert not spill_dir.exists()


class TestCheckpointMachinery:
    def _store_with(self, digests):
        store = MemoryStore()
        store.preload(digests)
        return store

    def test_retention_keeps_two(self, tmp_path):
        from repro.mc.search import SearchStats
        config = NiceConfig(checkpoint_dir=str(tmp_path))
        store = self._store_with(_digests(5))
        for _ in range(4):
            store_mod.write_checkpoint(
                tmp_path, spec=None, config=config, stats=SearchStats(),
                frontier=[], rng_state=None, store=store)
        assert len(sorted(tmp_path.glob("ckpt-*"))) == 2

    def test_loaded_checkpoint_round_trips(self, tmp_path):
        from repro.mc.search import SearchStats
        config = NiceConfig(checkpoint_dir=str(tmp_path))
        stats = SearchStats()
        stats.transitions_executed = 42
        digests = _digests(7)
        frontier = [((), None)]
        store_mod.write_checkpoint(
            tmp_path, spec=None, config=config, stats=stats,
            frontier=frontier, rng_state=("x", 1), store=self._store_with(
                digests))
        loaded = load_latest_checkpoint(tmp_path)
        assert sorted(loaded.iter_digests()) == sorted(digests)
        assert loaded.frontier == frontier
        assert loaded.rng_state == ("x", 1)
        assert loaded.stats["transitions_executed"] == 42
        assert loaded.config == config

    def test_unportable_spec_warns_but_checkpoints(self, tmp_path):
        """Hand-built scenarios (no registry spec) still checkpoint; the
        warning tells the operator resume needs scenario=."""
        from repro.mc.search import SearchStats
        config = NiceConfig(checkpoint_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="hand-built"):
            Checkpointer(config, None, MemoryStore(), SearchStats())

    def test_hand_built_scenario_resumes_with_explicit_scenario(
            self, tmp_path, monkeypatch, serial_ping):
        """nice.resume(scenario=...) covers scenarios the registry cannot
        rebuild — the differential suite's generated scenarios."""
        hand_built = scenarios.ping_experiment(pings=2)
        hand_built = with_config(hand_built, **KNOBS)
        hand_built.spec = None  # sever the registry identity
        config = dataclasses.replace(hand_built.config,
                                     checkpoint_dir=str(tmp_path / "c"),
                                     checkpoint_interval=60)
        hand_built.config = config
        interrupt_after(monkeypatch, 150)
        with pytest.raises(Interrupted), pytest.warns(RuntimeWarning):
            nice.run(hand_built)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="no scenario spec"):
            nice.resume(tmp_path / "c")
        _, stats = nice.resume(tmp_path / "c", scenario=hand_built,
                               checkpoint_dir=None)
        assert_matches_serial(stats, serial_ping)
