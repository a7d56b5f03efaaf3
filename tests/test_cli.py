"""Tests for the command-line front end."""

import json

import pytest

from contract import requires_fork
from repro import nice
from repro.cli import build_parser, main, make_config
from repro.config import NiceConfig
from repro.mc.store import CheckpointError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        """Every default is ``NiceConfig``'s
        (``test_config_audit.py::test_run_defaults_are_the_dataclass``);
        here, that a flag moves exactly its own field."""
        args = build_parser().parse_args(
            ["run", "pyswitch-loop", "--no-canonical"])
        assert make_config(args) == NiceConfig(canonical_flow_tables=False)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonexistent"])

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "pyswitch-loop", "--strategy", "MAGIC"])

    def test_transport_flags(self):
        args = build_parser().parse_args(
            ["run", "pyswitch-loop", "--workers", "2", "--transport",
             "socket", "--listen", "127.0.0.1:7001", "--external-workers"])
        assert make_config(args) == NiceConfig(
            workers=2, transport="socket", worker_address="127.0.0.1:7001",
            spawn_socket_workers=False)

    def test_rejects_unknown_transport(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "pyswitch-loop", "--transport", "smoke-signal"])

    def test_fault_tolerance_flags(self):
        args = build_parser().parse_args(
            ["run", "pyswitch-loop", "--workers", "4", "--min-workers", "2",
             "--max-worker-failures", "3"])
        assert args.min_workers == 2
        assert args.max_worker_failures == 3

    def test_fault_tolerance_defaults(self):
        args = build_parser().parse_args(["run", "pyswitch-loop"])
        assert args.min_workers == 1
        assert args.max_worker_failures is None

    @pytest.mark.parametrize("flag", [
        "--no-affinity", "--no-adaptive-batching", "--batch-groups=4",
        "--batch-nodes=32", "--no-quarantine", "--store-bloom-bits=0"])
    def test_deleted_ablation_flags_are_unrecognized(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "pyswitch-loop", flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])
        args = build_parser().parse_args(
            ["worker", "--connect", "10.0.0.1:7000"])
        assert args.connect == "10.0.0.1:7000"

    def test_store_and_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["run", "ping", "--store", "sharded", "--store-shards", "8",
             "--store-memory-budget", "1000",
             "--checkpoint-dir", "/tmp/ck", "--checkpoint-interval", "500"])
        assert args.store == "sharded"
        assert args.store_shards == 8
        assert args.store_memory_budget == 1000
        assert args.checkpoint_dir == "/tmp/ck"
        assert args.checkpoint_interval == 500

    def test_rejects_unknown_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "ping", "--store", "etcd"])

    def test_resume_requires_directory(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume"])
        args = build_parser().parse_args(
            ["resume", "/tmp/ck", "--workers", "4", "--transport", "socket"])
        assert args.directory == "/tmp/ck"
        assert args.workers == 4
        assert args.transport == "socket"
        assert args.checkpoint_dir is None and args.checkpointing


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pyswitch-loop" in out
        assert "loadbalancer" in out

    def test_run_finds_violation_exit_code(self, capsys):
        code = main(["run", "pyswitch-loop"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NoForwardingLoops" in out

    def test_run_json_output(self, capsys):
        code = main(["run", "pyswitch-loop", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["violations"][0]["property"] == "NoForwardingLoops"
        assert payload["transitions"] > 0

    def test_run_reports_serial_engine(self, capsys):
        main(["run", "pyswitch-loop"])
        out = capsys.readouterr().out
        assert "engine               : serial" in out

    @requires_fork
    def test_run_workers_reports_parallel_engine(self, capsys):
        code = main(["run", "pyswitch-loop", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "engine               : local-fork (2 workers)" in out
        assert "restoration" in out

    @requires_fork
    def test_run_workers_renders_fault_tolerance_counters(self, capsys):
        main(["run", "pyswitch-loop", "--workers", "2"])
        out = capsys.readouterr().out
        assert "fault tolerance      : 0 worker failure(s)" in out
        assert "0 elastic join(s)" in out

    @requires_fork
    def test_run_json_reports_engine(self, capsys):
        main(["run", "pyswitch-loop", "--workers", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "local-fork"
        assert payload["workers"] == 2

    @requires_fork
    def test_run_json_reports_churn_counters(self, capsys):
        main(["run", "ping", "--pings", "1", "--workers", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["worker_failures"] == 0
        assert payload["tasks_retried"] == 0
        assert payload["elastic_joins"] == 0
        assert set(payload["worker_tasks"]) == {"0", "1"}
        assert sum(payload["worker_tasks"].values()) > 0

    def test_run_with_trace(self, capsys):
        main(["run", "pyswitch-loop", "--trace"])
        out = capsys.readouterr().out
        assert "host_send" in out

    def test_run_trace_shows_where_a_handler_raised(self, capsys):
        main(["run", "hostile", "--mode", "raise", "--trace"])
        out = capsys.readouterr().out
        trace = out[out.index("--- trace of violation 0 (ModelError)"):]
        assert "Traceback" in trace
        assert "hostile handler refused" in trace

    def test_run_clean_scenario_exit_zero(self, capsys):
        code = main(["run", "ping", "--pings", "1"])
        assert code == 0

    def test_pool_only_flags_warn_on_a_serial_run(self, capsys):
        main(["run", "ping", "--pings", "1", "--store-shards", "4"])
        assert "warning" not in capsys.readouterr().err
        main(["run", "ping", "--pings", "1", "--store-shards", "4",
              "--listen", "127.0.0.1:7001", "--task-deadline", "3"])
        assert ("warning: --listen, --task-deadline have no effect without"
                " --workers N") in capsys.readouterr().err

    def test_run_max_transitions_bound(self, capsys):
        code = main(["run", "ping", "--pings", "2",
                     "--max-transitions", "10"])
        out = capsys.readouterr().out
        assert "max_transitions" in out
        assert code == 0

    def test_run_checkpoint_then_resume(self, capsys, tmp_path):
        """End-to-end through the CLI: checkpoint a run, resume the last
        snapshot, and the resumed leg reports its provenance."""
        ckpt = str(tmp_path / "ck")
        code = main(["run", "ping", "--pings", "2", "--all-violations",
                     "--checkpoint-dir", ckpt,
                     "--checkpoint-interval", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpoints          :" in out
        code = main(["resume", ckpt, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["resumed_from"].startswith(ckpt)
        assert payload["scenario"] == "ping-2"
        # counters land where the uninterrupted run would have
        assert payload["unique_states"] > 0

    @pytest.mark.parametrize("argv,overrides", [
        ([], {}),
        (["--workers", "4", "--store", "sharded"],
         dict(workers=4, store="sharded")),
        (["--checkpoint-dir", "/tmp/new"], dict(checkpoint_dir="/tmp/new")),
        (["--checkpoint-dir", "/tmp/new", "--no-checkpoints"],
         dict(checkpoint_dir=None)),
    ])
    def test_resume_options_override_the_checkpointed_fields(
            self, argv, overrides, monkeypatch):
        """Only what was typed is overridden; the rest stays as
        checkpointed."""
        def resume(directory, **seen):
            assert (directory, seen) == ("/tmp/ck", overrides)
            raise CheckpointError("far enough")

        monkeypatch.setattr(nice, "resume", resume)
        assert main(["resume", "/tmp/ck", *argv]) == 2

    def test_resume_without_checkpoints_fails_cleanly(self, capsys,
                                                      tmp_path):
        code = main(["resume", str(tmp_path / "empty")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no usable checkpoint" in err

    def test_walk(self, capsys):
        code = main(["walk", "pyswitch-loop", "--steps", "40", "--seed", "1"])
        out = capsys.readouterr().out
        assert "transitions executed" in out
        assert code in (0, 1)

    @pytest.mark.parametrize("argv,message", [
        (["run", "ping", "--workers", "-1"], "workers must be >= 0"),
        (["run", "ping", "--workers", "2", "--min-workers", "3"],
         "min_workers=3 exceeds"),
        (["run", "ping", "--store-shards", "0"],
         "store_shards must be >= 1"),
        (["run", "ping", "--workers", "2", "--transport", "socket",
          "--listen", "nonsense:port"],
         "bad worker address 'nonsense:port'"),
        (["worker", "--connect", "nonsense:port"],
         "bad worker address 'nonsense:port'"),
    ])
    def test_invalid_config_is_a_usage_error(self, argv, message, capsys):
        """A flag value NiceConfig rejects is reported the way argparse
        reports its own (``nice: error: ...``, exit 2), not as a
        ``__post_init__`` traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"nice: error: {message}" in capsys.readouterr().err

    def test_invalid_resume_override_is_a_usage_error(self, capsys,
                                                      tmp_path):
        ckpt = str(tmp_path / "ck")
        main(["run", "ping", "--pings", "1", "--all-violations",
              "--checkpoint-dir", ckpt, "--checkpoint-interval", "10"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["resume", ckpt, "--workers", "-1"])
        assert exit_info.value.code == 2
        assert "nice: error: workers must be >= 0" in capsys.readouterr().err
