"""Configuration objects for NICE searches.

:class:`NiceConfig` gathers every tunable the paper mentions: the search
order, the PKT-SEQ bounds (maximum packet-sequence length and maximum
outstanding packets per host), which heuristic strategy is active, whether
symbolic execution is used to discover packets, and whether the canonical
flow-table representation is enabled (disabling it gives the
NO-SWITCH-REDUCTION baseline of Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Search strategy names accepted by :class:`NiceConfig`.
STRATEGY_PKT_SEQ = "PKT-SEQ"
STRATEGY_NO_DELAY = "NO-DELAY"
STRATEGY_UNUSUAL = "UNUSUAL"
STRATEGY_FLOW_IR = "FLOW-IR"

ALL_STRATEGIES = (
    STRATEGY_PKT_SEQ,
    STRATEGY_NO_DELAY,
    STRATEGY_UNUSUAL,
    STRATEGY_FLOW_IR,
)

#: Frontier policies for the model-checking loop.
ORDER_DFS = "dfs"
ORDER_BFS = "bfs"
ORDER_RANDOM = "random"

#: Transports for the parallel searcher (DESIGN.md, "Scheduler and
#: transports").  ``local`` runs workers as child processes on this
#: machine; ``socket`` drives TCP workers (started with ``nice worker``),
#: which may live on other machines.
TRANSPORT_LOCAL = "local"
TRANSPORT_SOCKET = "socket"

ALL_TRANSPORTS = (TRANSPORT_LOCAL, TRANSPORT_SOCKET)

#: Start methods for the local transport.  ``None`` picks ``fork`` where
#: the platform offers it and ``spawn`` otherwise.
START_METHOD_FORK = "fork"
START_METHOD_SPAWN = "spawn"

ALL_START_METHODS = (START_METHOD_FORK, START_METHOD_SPAWN)

#: Explored-set state stores (DESIGN.md, "State store and
#: restartability").  ``memory`` is the plain in-process hash table the
#: engines always used; ``sharded`` shards digests by prefix into
#: append-only record files with an LRU-bounded resident set, so the
#: explored set can spill to disk and outgrow RAM.
STORE_MEMORY = "memory"
STORE_SHARDED = "sharded"

ALL_STORES = (STORE_MEMORY, STORE_SHARDED)


class ConfigError(ValueError):
    """A :class:`NiceConfig` field set out of its range — on the command
    line, a usage error (``nice: error: ...``, exit status 2)."""


@dataclass
class NiceConfig:
    """All knobs for a NICE run.

    Attributes mirror the paper's knobs:

    * ``strategy`` — one of :data:`ALL_STRATEGIES`.  PKT-SEQ is the default
      and is always active as a bound; the other three are heuristics layered
      on top of it (Section 4).
    * ``max_pkt_sequence`` — PKT-SEQ bound on the number of packets each end
      host may send (the depth of the send tree).
    * ``max_outstanding`` — PKT-SEQ bound on the packet burst (the counter
      ``c`` in the paper; replenished by one for every packet received).
    * ``use_symbolic_execution`` — when True, hosts gain the
      ``discover_packets`` transition and the controller gains
      ``discover_stats`` (Figure 5); when False, hosts only send packets from
      a user-provided concrete list (used for the Table 1 / Figure 6 ping
      experiments, which run with symbolic execution turned off).
    * ``canonical_flow_tables`` — canonical switch-state representation
      (Section 2.2.2).  False reproduces NO-SWITCH-REDUCTION.
    * ``state_matching`` — store hashes of visited states and prune repeats.
    * ``max_paths`` — budget for concolic path exploration per handler call.
    * ``search_order`` — dfs (paper default), bfs, or random walk.
    * ``max_transitions`` / ``max_depth`` — hard safety bounds for bounded
      searches; ``None`` means unbounded.
    * ``stop_at_first_violation`` — Table 2 measures transitions/time to the
      *first* violation, so that mode is first-class.
    * ``enable_rule_timeouts`` — model rule expiry as explicit transitions
      (off by default; see DESIGN.md substitution table).
    * ``channel_faults`` — enable the optional drop/duplicate/reorder fault
      model on packet channels (off by default, as in the paper's
      NoBlackHoles experiments).
    * ``workers`` — size of the search worker pool.  ``0`` (the default)
      and ``1`` run the serial searcher; ``N > 1`` shards the frontier
      across N processes with a shared explored-state set (DESIGN.md).
    * ``transport`` — how parallel workers are reached:
      :data:`TRANSPORT_LOCAL` (child processes) or
      :data:`TRANSPORT_SOCKET` (TCP workers, ``nice worker``).
    * ``start_method`` — multiprocessing start method for the local
      transport (:data:`START_METHOD_FORK` or :data:`START_METHOD_SPAWN`);
      ``None`` auto-selects ``fork`` where available, ``spawn`` otherwise.
      ``spawn`` (and the socket transport) require the scenario to be
      reconstructable by name — see the registry in ``repro/scenarios.py``.
    * ``worker_address`` — ``host:port`` the socket transport listens on.
      Port ``0`` picks a free port; workers are told the real one.
    * ``spawn_socket_workers`` — when True (the default) the socket
      transport launches ``workers`` local ``nice worker`` subprocesses
      pointed at its own listening address, so ``transport="socket"``
      works out of the box; set False when workers are started externally
      (e.g. on other machines) and the master should only wait for them.
    * ``worker_cache_size`` — per-worker bound on kept node systems: the
      children retained for pick-up by handle and the LRU used for
      prefix-replay restoration, together.
    * ``store`` — explored-set storage: :data:`STORE_MEMORY` (the
      default in-process hash table — zero regression) or
      :data:`STORE_SHARDED` (``store_shards`` digest-prefix shards, each
      an append-only file of fixed-width packed hash records with an
      in-memory index; at most ``store_memory_budget`` digests stay
      resident, the rest spill to disk — the explored set can outgrow
      RAM).
    * ``checkpoint_interval`` / ``checkpoint_dir`` — master
      checkpointing: with ``checkpoint_dir`` set, the search atomically
      snapshots the explored-set store, the frontier, the statistics and
      this config every ``checkpoint_interval`` newly explored states
      (executed transitions, when ``state_matching`` is off)
      (and on SIGTERM); ``nice resume <dir>`` continues the search
      mid-flight on any transport, bit-identical to an uninterrupted
      run.  ``checkpoint_dir=None`` (the default) disables
      checkpointing.
    * ``respawn_workers`` — autoscaler hook: when a worker dies, ask the
      transport to spawn a replacement (a fresh local-pool process, or
      an elastic socket joiner) before applying the failure policy, so
      the pool holds its size under churn.  Deaths still count toward
      ``max_worker_failures``.
    * ``min_workers`` — fault-tolerance floor: a clean error is raised if
      worker deaths shrink the live pool below this many workers (the
      default ``1`` keeps searching on the last surviving worker).  A
      floor above a pool's ``workers`` is rejected here.
    * ``max_worker_failures`` — how many worker deaths the scheduler
      tolerates before giving up; ``None`` (the default) tolerates any
      number while ``min_workers`` workers survive, ``0`` aborts on the
      first death.
    * ``heartbeat_interval`` — seconds between worker liveness beats on
      the result channel (DESIGN.md, "Failure containment").  ``0``
      disables heartbeats (not hang detection: see ``task_deadline``).
    * ``task_deadline`` — hard per-task deadline in seconds after which a
      silent worker is declared *hung*, killed, and its groups requeued.
      ``None`` (the default) derives the deadline from the adaptive-RTT
      estimator; ``0`` disables hang detection entirely.
    * ``max_task_retries`` — how many times a sibling group implicated in
      a worker death is re-dispatched to the fleet before it is treated
      as *poison* and quarantined: executed once in a sandboxed one-shot
      subprocess with rlimits.  On success the result is merged
      (bit-identity preserved); on a death there too the search degrades
      gracefully and records a :class:`~repro.mc.search.QuarantinedTask`
      diagnostic instead of aborting.
    * ``worker_memory_limit`` — soft RSS bound in bytes per worker; an
      over-limit worker sheds its replay cache and, if still over,
      recycles itself through the respawn path.  Also used as the
      address-space rlimit of the quarantine sandbox.  ``None`` disables
      the watchdog.
    * ``fail_fast`` — restore the pre-containment behavior for model
      exceptions: an exception escaping a controller/host handler aborts
      the search instead of being recorded as a replayable ``ModelError``
      counterexample.
    * ``seed`` — seed for the random-walk frontier.
    """

    strategy: str = STRATEGY_PKT_SEQ
    max_pkt_sequence: int = 2
    max_outstanding: int = 1
    use_symbolic_execution: bool = True
    canonical_flow_tables: bool = True
    state_matching: bool = True
    max_paths: int = 64
    search_order: str = ORDER_DFS
    max_transitions: int | None = None
    max_depth: int | None = None
    stop_at_first_violation: bool = True
    enable_rule_timeouts: bool = False
    channel_faults: bool = False
    #: Include rule hit counters and port statistics in the state hash.
    #: The paper's simplified switch model does not carry counters, so two
    #: states differing only in counter values are the same state.  Enable
    #: for applications whose behavior depends on statistics (the energy-
    #: aware traffic-engineering app), where merging across counter values
    #: would be unsound.
    hash_counters: bool = False
    workers: int = 0
    transport: str = TRANSPORT_LOCAL
    start_method: str | None = None
    worker_address: str = "127.0.0.1:0"
    spawn_socket_workers: bool = True
    worker_cache_size: int = 2048
    min_workers: int = 1
    max_worker_failures: int | None = None
    heartbeat_interval: float = 0.5
    task_deadline: float | None = None
    max_task_retries: int = 2
    worker_memory_limit: int | None = None
    fail_fast: bool = False
    store: str = STORE_MEMORY
    store_shards: int = 16
    store_memory_budget: int = 1_000_000
    checkpoint_interval: int = 1000
    checkpoint_dir: str | None = None
    respawn_workers: bool = False
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.strategy not in ALL_STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {ALL_STRATEGIES}"
            )
        if self.search_order not in (ORDER_DFS, ORDER_BFS, ORDER_RANDOM):
            raise ConfigError(f"unknown search order {self.search_order!r}")
        if self.max_pkt_sequence < 0:
            raise ConfigError("max_pkt_sequence must be >= 0")
        if self.max_outstanding < 1:
            raise ConfigError("max_outstanding must be >= 1")
        if self.max_paths < 1:
            raise ConfigError("max_paths must be >= 1")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if self.transport not in ALL_TRANSPORTS:
            raise ConfigError(
                f"unknown transport {self.transport!r};"
                f" expected one of {ALL_TRANSPORTS}"
            )
        if (self.start_method is not None
                and self.start_method not in ALL_START_METHODS):
            raise ConfigError(
                f"unknown start method {self.start_method!r};"
                f" expected one of {ALL_START_METHODS} or None"
            )
        if self.worker_cache_size < 1:
            raise ConfigError("worker_cache_size must be >= 1")
        if self.min_workers < 1:
            raise ConfigError("min_workers must be >= 1")
        if self.workers > 1 and self.min_workers > self.workers:
            # A floor the pool can never meet would be silently violated
            # for the whole run and only noticed if a worker died.
            raise ConfigError(
                f"min_workers={self.min_workers} exceeds the configured"
                f" pool of {self.workers} worker(s)")
        if self.max_worker_failures is not None \
                and self.max_worker_failures < 0:
            raise ConfigError("max_worker_failures must be >= 0 or None")
        if self.heartbeat_interval < 0:
            raise ConfigError("heartbeat_interval must be >= 0")
        if self.task_deadline is not None and self.task_deadline < 0:
            raise ConfigError("task_deadline must be >= 0 or None")
        if self.max_task_retries < 0:
            raise ConfigError("max_task_retries must be >= 0")
        if self.worker_memory_limit is not None \
                and self.worker_memory_limit < 1:
            raise ConfigError("worker_memory_limit must be >= 1 or None")
        if self.store not in ALL_STORES:
            raise ConfigError(
                f"unknown store {self.store!r};"
                f" expected one of {ALL_STORES}"
            )
        if self.store_shards < 1:
            raise ConfigError("store_shards must be >= 1")
        if self.store_memory_budget < 1:
            raise ConfigError("store_memory_budget must be >= 1")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
