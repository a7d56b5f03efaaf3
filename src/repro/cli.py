"""Command-line front end.

``nice run`` executes a predefined scenario (the paper's experiments are all
available by name), prints the search statistics, and dumps the violation
traces; ``nice walk`` performs a random walk; ``nice replay`` re-executes a
previously saved trace.

``nice resume`` reconstructs a checkpointed search mid-flight and
continues it (same explored state space as an uninterrupted run).

Examples::

    nice run pyswitch-direct-path
    nice run loadbalancer --strategy NO-DELAY --max-transitions 50000
    nice run ping --pings 3 --no-canonical
    nice run ping --pings 3 --workers 4 --start-method spawn
    nice run loadbalancer --workers 2 --transport socket
    nice run ping --pings 3 --checkpoint-dir ./ckpt --store sharded
    nice resume ./ckpt --workers 4
    nice checkpoints ./ckpt
    nice worker --connect 192.0.2.10:7000 --retry 10
    nice walk energy-te --steps 500 --seed 7
    nice list
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro import nice, scenarios
from repro.config import (
    ALL_START_METHODS,
    ALL_STORES,
    ALL_STRATEGIES,
    ALL_TRANSPORTS,
    ConfigError,
    NiceConfig,
)
from repro.apps.hostile import MODES as HOSTILE_MODES
from repro.mc.replay import format_trace
from repro.mc.search import ModelError
from repro.mc.store import CheckpointError

#: Scenario name -> builder: the registry the spawn/socket workers resolve
#: specs against (repro/scenarios.py).
SCENARIOS = scenarios.REGISTRY

#: Fields only a worker pool reads: `nice run` warns when one is set
#: without ``--workers N`` (N > 1).
POOL_FIELDS = frozenset({
    "transport", "start_method", "worker_address", "spawn_socket_workers",
    "max_worker_failures", "task_deadline", "worker_memory_limit",
})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nice",
        description="NICE: systematic testing of OpenFlow controller programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="model-check a scenario")
    run_p.add_argument("scenario", choices=sorted(SCENARIOS))
    # A config option is declared once: its ``dest`` is its NiceConfig
    # field (``make_config``) and its default that field's.
    run_p.set_defaults(**{
        field.name: field.default for field in dataclasses.fields(NiceConfig)
        if field.default is not dataclasses.MISSING})
    #: ``dest`` -> flag of every `nice run` option.
    parser.run_flags = {}

    def option(flag, **kwargs):
        parser.run_flags[run_p.add_argument(flag, **kwargs).dest] = flag

    option("--strategy", choices=ALL_STRATEGIES)
    option("--pings", type=int, default=2,
           help="ping pairs (ping scenario only)")
    option("--mode", choices=HOSTILE_MODES, default="benign",
           help="misbehavior mode (hostile scenario only)")
    option("--arm-file",
           help="hostile scenario: arm-counter file; each misbehavior"
                " decrements it, -1 = always fire")
    option("--max-transitions", type=int)
    option("--max-pkt-sequence", type=int)
    option("--max-outstanding", type=int)
    option("--no-canonical", dest="canonical_flow_tables",
           action="store_false",
           help="disable the canonical switch representation "
                "(NO-SWITCH-REDUCTION)")
    option("--no-state-matching", dest="state_matching",
           action="store_false")
    option("--workers", type=int,
           help="search worker processes (0/1 = serial)")
    option("--transport", choices=ALL_TRANSPORTS,
           help="how workers are reached: in-process pool or "
                "TCP workers (see `nice worker`)")
    option("--start-method", choices=ALL_START_METHODS,
           help="local-transport start method (default: fork "
                "where available, else spawn)")
    option("--listen", dest="worker_address", metavar="HOST:PORT",
           help="socket transport listen address "
                "(port 0 = pick a free port)")
    option("--external-workers", dest="spawn_socket_workers",
           action="store_false",
           help="socket transport: wait for externally started "
                "`nice worker`s instead of spawning local ones")
    option("--max-worker-failures", type=int, metavar="N",
           help="tolerate at most N worker deaths before giving "
                "up (each dead worker is replaced; default: "
                "unlimited; 0 = abort on the first death)")
    option("--task-deadline", type=float, metavar="SEC",
           help="hard per-task deadline after which a silent "
                "worker is declared hung and killed (default: "
                "derived from observed task round-trip times; "
                "0 disables deadlines)")
    option("--worker-memory-limit", type=int, metavar="BYTES",
           help="worker rss watchdog: above this, a worker "
                "sheds its replay cache and, if still over, "
                "recycles itself")
    option("--store", choices=ALL_STORES,
           help="explored-set storage: in-memory hash table, or "
                "digest-prefix shards spilling to disk under an "
                "LRU memory budget")
    option("--store-shards", type=int, metavar="N",
           help="sharded store: number of digest-prefix shards")
    option("--store-memory-budget", type=int, metavar="N",
           help="sharded store: digests kept resident in memory "
                "(the rest spill to disk)")
    option("--checkpoint-dir", metavar="DIR",
           help="periodically snapshot the master state "
                "(explored set, frontier, stats, config) into "
                "DIR; continue later with `nice resume DIR`")
    option("--checkpoint-interval", type=int, metavar="N",
           help="states explored between checkpoints (SIGTERM "
                "also triggers one)")
    option("--all-violations", dest="stop_at_first_violation",
           action="store_false",
           help="keep searching after the first violation")
    option("--trace", action="store_true",
           help="print the violation trace(s)")
    option("--json", action="store_true",
           help="machine-readable output")

    resume_p = sub.add_parser(
        "resume",
        help="continue a checkpointed search (see `nice run "
             "--checkpoint-dir`); the resumed run explores the identical "
             "state space an uninterrupted run would have")
    resume_p.add_argument("directory", metavar="DIR",
                          help="checkpoint directory written by a previous "
                               "run; the newest valid snapshot is used "
                               "(torn ones fall back to the previous)")
    resume_p.add_argument("--workers", type=int, default=None,
                          help="override the checkpointed worker count")
    resume_p.add_argument("--transport", choices=ALL_TRANSPORTS,
                          default=None,
                          help="override the checkpointed transport — a "
                               "search may resume on a different one")
    resume_p.add_argument("--start-method", choices=ALL_START_METHODS,
                          default=None,
                          help="override the local-transport start method")
    resume_p.add_argument("--store", choices=ALL_STORES, default=None,
                          help="override the explored-set store")
    resume_p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                          help="keep checkpointing, into DIR (default: the "
                               "directory being resumed from)")
    resume_p.add_argument("--checkpoint-interval", type=int, default=None,
                          metavar="N",
                          help="override the checkpoint interval")
    resume_p.add_argument("--no-checkpoints", dest="checkpointing",
                          action="store_false",
                          help="do not write further checkpoints")
    resume_p.add_argument("--trace", action="store_true",
                          help="print the violation trace(s)")
    resume_p.add_argument("--json", action="store_true",
                          help="machine-readable output")

    walk_p = sub.add_parser("walk", help="random walk on system states")
    walk_p.add_argument("scenario", choices=sorted(SCENARIOS))
    walk_p.add_argument("--steps", type=int, default=200)
    walk_p.add_argument("--seed", type=int, default=0)

    worker_p = sub.add_parser(
        "worker",
        help="serve a socket-transport master (`nice run --transport "
             "socket`) as one search worker")
    worker_p.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="address the master is listening on")
    worker_p.add_argument("--retry", type=int, default=5, metavar="N",
                          help="connection attempts before giving up "
                               "(jittered exponential backoff between "
                               "attempts; 1 = a single try)")
    worker_p.add_argument("--retry-max-wait", type=float, default=30.0,
                          metavar="SEC",
                          help="backoff ceiling between connection attempts")

    ckpt_p = sub.add_parser(
        "checkpoints",
        help="inspect a checkpoint directory: list snapshots, validate "
             "each (sizes + checksums), and show what a resume would load")
    ckpt_p.add_argument("checkpoint_dir", metavar="DIR")
    ckpt_p.add_argument("--json", action="store_true",
                        help="machine-readable output")

    sub.add_parser("list", help="list available scenarios")
    return parser


def make_config(args) -> NiceConfig:
    return NiceConfig(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(NiceConfig)
        if hasattr(args, field.name)})


def build_scenario(name: str, args, config: NiceConfig | None):
    builder = SCENARIOS[name]
    if name == "ping":
        return builder(pings=getattr(args, "pings", 2), config=config)
    if name == "hostile":
        return builder(mode=getattr(args, "mode", "benign"),
                       arm_file=getattr(args, "arm_file", None),
                       config=config)
    return builder(config=config)


def cmd_run(args, run_flags) -> int:
    config = make_config(args)
    if config.workers <= 1:
        ignored = [flag for name, flag in run_flags.items()
                   if name in POOL_FIELDS
                   and getattr(config, name) != getattr(NiceConfig, name)]
        if ignored:
            print(f"warning: {', '.join(ignored)} have no effect without"
                  f" --workers N (N > 1); running the serial engine",
                  file=sys.stderr)
    scenario = build_scenario(args.scenario, args, config)
    result = nice.run(scenario)
    return _report(result, args, scenario.name, config.strategy)


def _report(result, args, scenario_name: str, strategy: str) -> int:
    """Shared `nice run` / `nice resume` result rendering."""
    if args.json:
        payload = {
            "scenario": scenario_name,
            "strategy": strategy,
            "engine": result.engine,
            "workers": result.workers,
            "transitions": result.transitions_executed,
            "unique_states": result.unique_states,
            "wall_time": result.wall_time,
            "hash_hits": result.hash_hits,
            "hash_misses": result.hash_misses,
            "bytes_hashed": result.bytes_hashed,
            "cow_copied": result.cow_copied,
            "worker_failures": result.worker_failures,
            "tasks_retried": result.tasks_retried,
            "groups_reassigned": result.groups_reassigned,
            "elastic_joins": result.elastic_joins,
            "workers_respawned": result.workers_respawned,
            "workers_hung": result.workers_hung,
            "deadline_kills": result.deadline_kills,
            "tasks_quarantined": result.tasks_quarantined,
            "model_errors": result.model_errors,
            "quarantined_tasks": [
                {"trace_length": len(q.trace), "attempts": q.attempts,
                 "reason": q.reason}
                for q in result.quarantined_tasks
            ],
            "worker_tasks": {str(w): n
                             for w, n in sorted(result.worker_tasks.items())},
            "store": result.store,
            "store_hits": result.store_hits,
            "store_spill_reads": result.store_spill_reads,
            "store_evictions": result.store_evictions,
            "result_payload_bytes": result.result_payload_bytes,
            "checkpoints_written": result.checkpoints_written,
            "checkpoint_seconds": result.checkpoint_seconds,
            "checkpoint_bytes_written": result.checkpoint_bytes_written,
            "resumed_from": result.resumed_from,
            "violations": [
                {"property": v.property_name, "message": v.message,
                 "trace_length": len(v.trace)}
                for v in result.violations
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"scenario : {scenario_name}")
        print(f"strategy : {strategy}")
        print(result.summary())
        if args.trace:
            for index, violation in enumerate(result.violations):
                print(f"\n--- trace of violation {index} "
                      f"({violation.property_name}) ---")
                print(format_trace(violation.trace))
                if isinstance(violation, ModelError):
                    # Where the handler raised, wherever it ran.
                    print(violation.details, end="")
    return 1 if result.found_violation else 0


def cmd_resume(args) -> int:
    # An option left unset (None) keeps the checkpointed value.
    overrides = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(NiceConfig)
        if getattr(args, field.name, None) is not None}
    if not args.checkpointing:
        overrides["checkpoint_dir"] = None
    try:
        scenario, result = nice.resume(args.directory, **overrides)
    except CheckpointError as exc:
        print(f"nice resume: {exc}", file=sys.stderr)
        return 2
    return _report(result, args, scenario.name, scenario.config.strategy)


def cmd_walk(args) -> int:
    scenario = build_scenario(args.scenario, args, None)
    result = nice.random_walk(scenario, steps=args.steps, seed=args.seed)
    print(result.summary())
    return 1 if result.found_violation else 0


def cmd_list() -> int:
    for name in sorted(SCENARIOS):
        print(name)
    return 0


def cmd_worker(args) -> int:
    from repro.mc.transport.socket import run_worker

    return run_worker(args.connect, retries=args.retry,
                      retry_max_wait=args.retry_max_wait)


def cmd_checkpoints(args) -> int:
    from repro.mc.store import list_checkpoints, validate_checkpoint

    entries = list_checkpoints(args.checkpoint_dir)
    report = []
    newest_valid = None
    for path in entries:
        try:
            checkpoint = validate_checkpoint(path)
            # Without a spec only the caller's scenario can say.
            if checkpoint.spec is not None:
                nice.resumable(checkpoint)
        except CheckpointError as exc:
            report.append({"name": path.name, "valid": False,
                           "error": str(exc)})
            continue
        spec = checkpoint.spec
        report.append({
            "name": path.name,
            "valid": True,
            "scenario": spec.name if spec is not None else None,
            "states": checkpoint.states,
            "frontier": len(checkpoint.frontier),
            "transitions": checkpoint.stats.get("transitions_executed"),
            "violations": len(checkpoint.stats.get("violations", [])),
            "format": checkpoint.format,
            # Bytes this snapshot actually wrote: the records appended
            # since the last one and its meta — a small number even for
            # a large explored set.
            "bytes_written": checkpoint.bytes_written,
        })
        newest_valid = path.name
    if args.json:
        print(json.dumps({"checkpoint_dir": args.checkpoint_dir,
                          "resume_would_load": newest_valid,
                          "checkpoints": report}, indent=2))
    else:
        if not entries:
            print(f"no checkpoints under {args.checkpoint_dir}")
        for entry in report:
            if entry["valid"]:
                print(f"{entry['name']}: ok  scenario={entry['scenario']}"
                      f" states={entry['states']}"
                      f" frontier={entry['frontier']}"
                      f" transitions={entry['transitions']}"
                      f" violations={entry['violations']}"
                      f" format={entry['format']}"
                      f" written={entry['bytes_written']}B (delta)")
            else:
                print(f"{entry['name']}: INVALID ({entry['error']})")
        if newest_valid is not None:
            print(f"resume would load: {newest_valid}")
    return 0 if newest_valid is not None else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args, parser.run_flags)
        if args.command == "resume":
            return cmd_resume(args)
        if args.command == "walk":
            return cmd_walk(args)
        if args.command == "worker":
            return cmd_worker(args)
    except ConfigError as exc:
        # --workers -1, --listen nonsense, a bad resume override, ...
        parser.error(str(exc))
    if args.command == "checkpoints":
        return cmd_checkpoints(args)
    if args.command == "list":
        return cmd_list()
    return 2


if __name__ == "__main__":
    sys.exit(main())
