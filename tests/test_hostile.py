"""Hostile-model hardening acceptance tests (ISSUE 8).

The model under test is an *adversary* here (:mod:`repro.apps.hostile`):
its ``packet_in`` raises, hangs forever, SIGKILLs its own worker, or
allocates until the memory watchdog trips — per mode, gated by an
arm-count file so the induced damage is bounded.  The acceptance bar for
every containment path is the project's usual one: once the failures are
absorbed, the explored state space must be bit-identical to a benign
serial baseline.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import re
import resource
import time
from types import SimpleNamespace

import pytest

from contract import counters, requires_fork, violated_properties
from repro import cli, nice, scenarios
from repro.config import NiceConfig
from repro.mc.scheduler import _Scheduler
from repro.mc import wire
from repro.mc import worker as worker_mod
from repro.mc.transport import TransportError
from repro.mc.worker import WorkerRuntime
from repro.scenarios import with_config

#: One node per task, no adaptive growth: every sibling group travels
#: alone, so death attribution and quarantine act on exactly the poisoned
#: group and bit-identity comparisons stay meaningful.
pytestmark = pytest.mark.usefixtures("small_tasks")

ENGINES = [
    pytest.param(dict(start_method="fork"), marks=requires_fork, id="fork"),
    pytest.param(dict(start_method="spawn"), id="spawn"),
    pytest.param(dict(transport="socket"), id="socket"),
]

#: Containment knobs sized for the test suite: beats every 0.2s, hung
#: tasks declared dead after 2s, fleet kept at strength by the autoscaler.
CONTAIN = dict(workers=2, respawn_workers=True, task_deadline=2.0,
               heartbeat_interval=0.2)


def build(mode="benign", arm_file=None, pings=0, spare_quarantine=True,
          ballast_mb=96, **overrides):
    scenario = scenarios.REGISTRY["hostile"](
        mode=mode, arm_file=arm_file, pings=pings,
        spare_quarantine=spare_quarantine, ballast_mb=ballast_mb)
    return with_config(scenario, stop_at_first_violation=False, **overrides)


def arm(tmp_path, count):
    path = tmp_path / "arm"
    path.write_text(str(count))
    return str(path)


@pytest.fixture(scope="module")
def benign_serial():
    """The baseline every contained run must reproduce bit-for-bit."""
    return nice.run(build())


# ----------------------------------------------------------------------
# Model exceptions become replayable counterexamples
# ----------------------------------------------------------------------

class TestModelErrorContainment:
    def test_serial_records_replayable_model_error(self):
        scenario = build(mode="raise")
        stats = nice.run(scenario)
        assert stats.terminated == "exhausted"
        assert stats.model_errors >= 1
        assert "ModelError" in violated_properties(stats)
        error = next(v for v in stats.violations
                     if v.property_name == "ModelError")
        assert "RuntimeError" in error.message
        assert "Traceback" in error.details
        # The counterexample replays: re-executing the trace reproduces
        # the model bug deterministically (surfaced as a ReplayError
        # wrapping the handler's own exception, with step context).
        from repro.errors import ReplayError

        with pytest.raises(ReplayError, match="hostile handler refused"):
            nice.replay(scenario, error.trace)

    @pytest.mark.parametrize("overrides", ENGINES)
    def test_parallel_matches_serial(self, overrides, benign_serial):
        serial = nice.run(build(mode="raise"))
        parallel = nice.run(build(mode="raise", **CONTAIN, **overrides))
        assert counters(parallel) == counters(serial)
        assert parallel.model_errors == serial.model_errors
        assert violated_properties(parallel) == violated_properties(serial)
        # No process damage: containment happened in the handlers, not
        # through worker churn.
        assert parallel.worker_failures == 0

    def test_fail_fast_restores_the_old_serial_behavior(self):
        with pytest.raises(RuntimeError, match="poison"):
            nice.run(build(mode="raise", fail_fast=True))

    @requires_fork
    def test_fail_fast_aborts_the_parallel_search(self):
        with pytest.raises(TransportError, match="RuntimeError"):
            nice.run(build(mode="raise", fail_fast=True, workers=2,
                           start_method="fork"))


# ----------------------------------------------------------------------
# Hang detection: heartbeats prove liveness, deadlines prove progress
# ----------------------------------------------------------------------

class TestHangDetection:
    @pytest.mark.parametrize("overrides", ENGINES)
    def test_forever_looping_handler_is_killed_and_absorbed(
            self, overrides, benign_serial, tmp_path):
        """The tentpole scenario: a handler loops forever exactly once;
        the worker keeps heartbeating (pure-Python loop, the GIL preempts)
        but its task misses the deadline, so the master kills it, the
        autoscaler replaces it, and the retried task completes — with
        bit-identity to the benign serial baseline."""
        stats = nice.run(build(mode="hang", arm_file=arm(tmp_path, 1),
                               **CONTAIN, **overrides))
        assert counters(stats) == counters(benign_serial)
        assert violated_properties(stats) == violated_properties(benign_serial)
        assert stats.terminated == "exhausted"
        assert stats.workers_hung >= 1
        assert stats.deadline_kills >= 1
        assert stats.worker_failures >= 1
        assert stats.tasks_quarantined == 0

    def test_task_deadline_zero_disables_hang_detection(self, tmp_path):
        """Opt-out: with deadlines off, nothing hunts hung workers — the
        knob exists for models with legitimately unbounded handlers.
        (Not run to completion: a disabled detector would hang the test.)
        Validated at the config layer plus the scheduler's accessor."""
        config = NiceConfig(task_deadline=0.0, workers=2)
        assert config.task_deadline == 0.0


# ----------------------------------------------------------------------
# Poison-task quarantine
# ----------------------------------------------------------------------

def in_the_sandbox(monkeypatch, behave) -> None:
    """Run ``behave(out)`` on every expansion result built inside the
    quarantine sandbox, and nowhere else.  The patch is a class attribute
    of this process: a forked child inherits it — the sandbox, which
    forks wherever the platform can, under any master — and a spawned or
    socket pool worker, a fresh interpreter, does not."""
    expand = WorkerRuntime.expand

    def patched(runtime, groups, task_id=None, handles=None):
        out = expand(runtime, groups, task_id=task_id, handles=handles)
        if os.environ.get("NICE_QUARANTINE"):
            behave(out)
        return out

    monkeypatch.setattr(WorkerRuntime, "expand", patched)


def probe(out) -> None:
    """What the sandboxed run sees of its own containment."""
    out["probe"] = (os.environ["NICE_QUARANTINE"], os.getppid(),
                    *map(resource.getrlimit, (resource.RLIMIT_CPU,
                                              resource.RLIMIT_AS,
                                              resource.RLIMIT_CORE)),
                    gc.get_threshold()[0])


class TestQuarantine:
    @pytest.mark.parametrize("overrides", ENGINES)
    def test_poison_group_is_quarantined_with_bit_identity(
            self, overrides, benign_serial, tmp_path, monkeypatch):
        """A crash-on-sight model kills every fleet worker that touches a
        poison group; after max_task_retries deaths the group runs in the
        sandbox (where this model behaves — a fleet-poisonous but
        salvageable task) and the search finishes bit-identical.  The
        sandbox answers in the one result layout, digests packed — and
        is a fork of the master under every transport, socket included
        (the probe rides a patch only a fork inherits), advertised to
        the model, held by its rlimits and — one ``_serve`` for every way
        in — collecting garbage under the pool worker's policy."""
        sandboxed = []
        sandbox_expand = _Scheduler._sandbox_expand

        def spy(scheduler, group):
            out, failure = sandbox_expand(scheduler, group)
            if out is not None and any(kids for _, _, kids in out["children"]):
                sandboxed.append((bool(out["digests"]), out.get("probe")))
            return out, failure

        monkeypatch.setattr(_Scheduler, "_sandbox_expand", spy)
        in_the_sandbox(monkeypatch, probe)
        limit = 8 << 30
        stats = nice.run(build(mode="crash", arm_file=arm(tmp_path, -1),
                               max_task_retries=2, worker_memory_limit=limit,
                               **CONTAIN, **overrides))
        assert counters(stats) == counters(benign_serial)
        assert violated_properties(stats) == violated_properties(benign_serial)
        assert stats.terminated == "exhausted"
        assert stats.tasks_quarantined >= 1
        assert stats.worker_failures >= 3
        assert stats.quarantined_tasks == []
        assert sandboxed and all(packed for packed, _ in sandboxed)
        if "fork" in multiprocessing.get_all_start_methods():
            cpu = int(CONTAIN["task_deadline"]) + 1
            assert {seen for _, seen in sandboxed} == {
                ("1", os.getpid(), (cpu, cpu), (limit, limit), (0, 0),
                 worker_mod.GC_YOUNG_THRESHOLD)}

    @requires_fork
    @pytest.mark.parametrize("behave,reason", [
        pytest.param(lambda out: time.sleep(60),
                     r"^sandbox run exceeded its 1s allowance$", id="hang"),
        pytest.param(lambda out: 1 / 0,
                     r"^sandbox run raised:\n(?s:.)*ZeroDivisionError",
                     id="raise"),
    ])
    def test_sandbox_failures_are_worded_for_the_operator(
            self, behave, reason, tmp_path, monkeypatch):
        """One poison execution (``max_task_retries=0``: its first fleet
        death quarantines the group), then the sandboxed retry itself
        blocks without burning CPU — so the wall-clock allowance, not
        ``RLIMIT_CPU``, ends it — or raises.  An exception *inside the
        task* must read as one: "failed to start" is the wording for a
        worker that never came up."""
        in_the_sandbox(monkeypatch, behave)
        stats = nice.run(build(mode="crash", arm_file=arm(tmp_path, 1),
                               max_task_retries=0, start_method="fork",
                               **{**CONTAIN, "task_deadline": 1.0}))
        assert stats.terminated == "exhausted"
        assert stats.quarantined_tasks
        for diagnostic in stats.quarantined_tasks:
            assert re.search(reason, diagnostic.reason), diagnostic.reason
            assert "failed to start" not in diagnostic.reason

    @requires_fork
    @pytest.mark.parametrize("retries", [1, 2])
    def test_unsalvageable_task_degrades_to_a_diagnostic(
            self, retries, benign_serial, tmp_path):
        """SIGKILL-everything, sandbox included: the group dies in
        quarantine too, and the search records a structured diagnostic
        and finishes instead of aborting.  ``max_task_retries`` is how
        many fleet deaths come first."""
        stats = nice.run(build(mode="crash", arm_file=arm(tmp_path, -1),
                               spare_quarantine=False,
                               max_task_retries=retries,
                               start_method="fork", **CONTAIN))
        assert stats.terminated == "exhausted"
        assert stats.tasks_quarantined >= 1
        assert stats.quarantined_tasks
        diagnostic = stats.quarantined_tasks[0]
        assert diagnostic.attempts == retries + 1
        assert "SIGKILL" in diagnostic.reason
        # Graceful degradation is lossy by design: the poisoned subtree
        # was skipped, never explored twice.
        assert stats.unique_states <= benign_serial.unique_states
        assert "quarantined" in stats.summary()


# ----------------------------------------------------------------------
# Worker memory watchdog
# ----------------------------------------------------------------------

@requires_fork
class TestMemoryWatchdog:
    def test_bloated_worker_sheds_cache_and_recycles(self, benign_serial,
                                                     tmp_path):
        """Two poisoned executions balloon worker rss past the limit; the
        watchdog sheds the replay cache, finds the ballast still resident,
        and recycles the process — after finishing its task, so the search
        both progresses and stays exact."""
        stats = nice.run(build(mode="oom", arm_file=arm(tmp_path, 2),
                               ballast_mb=96,
                               worker_memory_limit=128 * 1024 * 1024,
                               **CONTAIN, start_method="fork"))
        assert counters(stats) == counters(benign_serial)
        assert stats.terminated == "exhausted"
        assert stats.worker_failures >= 1
        assert stats.tasks_quarantined == 0

    def test_shedding_frees_cyclic_state_under_the_serving_policy(self):
        """The watchdog's other outcome, run through ``_serve`` so the
        task-sized young generation is on: what a worker sheds is held
        in reference cycles the raised threshold would leave lying for a
        long while, and ``should_recycle``'s explicit collection still
        returns it — rss back under the limit, the process kept."""
        class Cyclic:
            def __init__(self, megabytes):
                self.me = self
                self.ballast = bytearray(megabytes << 20)

        limit = worker_mod._rss_bytes() + (48 << 20)
        runtime = WorkerRuntime(wire.searcher_from_spec(
            build(worker_memory_limit=limit).spec))
        seen = []

        def recv():
            seen.append((gc.get_threshold()[0], worker_mod._rss_bytes(),
                         len(runtime.cache)))
            if len(seen) == 1:
                runtime.cache["ballast"] = Cyclic(128)
                return wire.ExpandTask(1, [((), None)])
            return wire.Shutdown()

        worker_mod._serve(lambda: runtime, 0, recv, lambda reply: None)
        # Not recycled: the loop came back for a second message, with the
        # cache shed and the ballast's pages returned.
        (policy, before, _), (_, after, cached) = seen
        assert policy == worker_mod.GC_YOUNG_THRESHOLD
        assert before <= limit < before + (128 << 20)
        assert after <= limit and cached == 0


@pytest.mark.parametrize("platform,unit", [("linux", 1024), ("darwin", 1)])
def test_rss_fallback_reads_ru_maxrss_in_the_platforms_unit(
        platform, unit, monkeypatch):
    """Without ``/proc/self/statm`` the watchdog reads the ``getrusage``
    high-water mark, which is KiB everywhere but darwin, where it is
    bytes: scaled there too, every healthy macOS worker read 1024x its
    size and was recycled after each task."""
    def no_proc(path, *args, **kwargs):
        assert path == "/proc/self/statm"
        raise FileNotFoundError(path)

    monkeypatch.setattr(worker_mod, "open", no_proc, raising=False)
    monkeypatch.setattr(worker_mod, "sys", SimpleNamespace(platform=platform))
    monkeypatch.setattr(resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=300_000))
    assert worker_mod._rss_bytes() == 300_000 * unit


# ----------------------------------------------------------------------
# Config validation and CLI wiring
# ----------------------------------------------------------------------

class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("heartbeat_interval", -0.1),
        ("task_deadline", -1.0),
        ("max_task_retries", -1),
        ("worker_memory_limit", 0),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NiceConfig(**{field: value})

    def test_cli_flags_reach_the_config(self):
        args = cli.build_parser().parse_args(
            ["run", "hostile", "--workers", "2",
             "--heartbeat-interval", "0.25", "--task-deadline", "3",
             "--max-task-retries", "5",
             "--worker-memory-limit", "1000000", "--fail-fast"])
        config = cli.make_config(args)
        assert config.heartbeat_interval == 0.25
        assert config.task_deadline == 3.0
        assert config.max_task_retries == 5
        assert config.worker_memory_limit == 1000000
        assert config.fail_fast is True

    def test_worker_retry_flags_parse(self):
        args = cli.build_parser().parse_args(
            ["worker", "--connect", "127.0.0.1:1", "--retry", "2",
             "--retry-max-wait", "0.05"])
        assert args.retry == 2
        assert args.retry_max_wait == 0.05


class TestWorkerRetryBackoff:
    def test_exhausted_retries_fail_with_attempt_count(self, capsys):
        from repro.mc.transport.socket import run_worker

        # Nobody listens on port 1; two fast jittered attempts, then a
        # clean non-zero exit instead of a one-shot crash.
        assert run_worker("127.0.0.1:1", retries=2,
                          retry_max_wait=0.05) == 1
        out = capsys.readouterr()
        assert "2 attempt(s)" in out.err
        assert "retrying" in out.err


class TestJsonStats:
    def test_containment_counters_in_json_payload(self, capsys):
        exit_code = cli.main(["run", "hostile", "--json", "--all-violations"])
        assert exit_code == 0  # the benign mode violates nothing
        payload = json.loads(capsys.readouterr().out)
        for key in ("workers_hung", "deadline_kills", "tasks_quarantined",
                    "model_errors", "quarantined_tasks"):
            assert key in payload
        assert payload["model_errors"] == 0


# ----------------------------------------------------------------------
# `nice checkpoints` inspector
# ----------------------------------------------------------------------

class TestCheckpointInspector:
    @pytest.fixture()
    def checkpoint_dir(self, tmp_path):
        directory = tmp_path / "ckpt"
        nice.run(with_config(scenarios.ping_experiment(pings=2),
                             stop_at_first_violation=False,
                             checkpoint_dir=str(directory),
                             checkpoint_interval=50))
        return directory

    def test_lists_and_validates_snapshots(self, checkpoint_dir, capsys):
        assert cli.main(["checkpoints", str(checkpoint_dir)]) == 0
        out = capsys.readouterr().out
        assert "resume would load: ckpt-" in out
        assert ": ok " in out and "scenario=ping" in out

    def test_torn_snapshot_is_flagged(self, checkpoint_dir, capsys):
        from repro.mc.store import list_checkpoints

        newest = list_checkpoints(checkpoint_dir)[-1]
        victim = next(p for p in newest.iterdir()
                      if p.name != "MANIFEST.json")
        victim.write_bytes(b"torn")
        exit_code = cli.main(["checkpoints", "--json", str(checkpoint_dir)])
        payload = json.loads(capsys.readouterr().out)
        entries = {e["name"]: e for e in payload["checkpoints"]}
        assert entries[newest.name]["valid"] is False
        # An older intact snapshot is still loadable -> exit 0; resume
        # would fall back to it, exactly what the inspector reports.
        if payload["resume_would_load"]:
            assert exit_code == 0
            assert payload["resume_would_load"] != newest.name

    def test_empty_directory_exits_nonzero(self, tmp_path, capsys):
        assert cli.main(["checkpoints", str(tmp_path)]) == 2
        assert "no checkpoints" in capsys.readouterr().out
