"""Pluggable transports for the parallel search scheduler.

A transport owns the worker lifecycle and message movement; the scheduler
(`repro/mc/scheduler.py`) never sees processes or sockets, only
``submit(worker_id, task)`` / ``recv()``.  Two implementations ship:

* :class:`~repro.mc.transport.local.LocalTransport` — worker child
  processes on this machine, ``fork`` or ``spawn`` start method;
* :class:`~repro.mc.transport.socket.SocketTransport` — TCP workers
  started with ``nice worker`` (on this or other machines).

Both are launchers over one channel and one loop,
:class:`~repro.mc.transport.stream.StreamTransport`.

:func:`create_transport` picks one from the config and *warns* — never
silently falls back — when a ``workers>0`` request cannot be honored as
asked: an unavailable start method, or a scenario that is not
registry-reconstructable and therefore cannot cross a spawn or socket
boundary.
"""

from __future__ import annotations

import multiprocessing
import warnings

from repro.config import (
    START_METHOD_FORK,
    START_METHOD_SPAWN,
    TRANSPORT_SOCKET,
)
from repro.mc.wire import spec_is_portable


class TransportError(RuntimeError):
    """A transport could not start, or the scheduler's fault-tolerance
    policy (``min_workers`` / ``max_worker_failures``) gave up the run."""


class WorkerLost(Exception):
    """Raised by :meth:`Transport.submit` when the target worker is found
    dead at submission time.  Recoverable: the scheduler treats it exactly
    like a :class:`~repro.mc.wire.WorkerGone` event and requeues the task
    it was submitting."""

    def __init__(self, worker_id: int, reason: str):
        super().__init__(f"worker {worker_id} lost: {reason}")
        self.worker_id = worker_id
        self.reason = reason


class Transport:
    """Scheduler-facing interface; see module docstring.

    Worker churn is part of the interface: ``recv()`` may yield
    :class:`~repro.mc.wire.WorkerGone` (a worker died — the scheduler
    requeues its work) and :class:`~repro.mc.wire.WorkerJoined` (an
    elastic worker connected mid-search) alongside task results, and
    ``submit()`` may raise :class:`WorkerLost`.  A transport must never
    *raise* for a single dead worker — only the scheduler's policy decides
    whether churn is fatal.
    """

    #: Human-readable engine name surfaced in SearchStats ("local-fork",
    #: "local-spawn", "socket").
    name = "transport"

    def __init__(self, workers: int):
        self.workers = workers

    def start(self, searcher) -> None:
        """Bring up ``self.workers`` workers, ready for tasks."""
        raise NotImplementedError

    def worker_ids(self):
        """The ids of the workers serving once ``start()`` returned —
        what the scheduler enrolls as its initial live pool."""
        return range(self.workers)

    def submit(self, worker_id: int, task) -> None:
        """Send an :class:`~repro.mc.wire.ExpandTask` to one worker;
        raises :class:`WorkerLost` if that worker is already dead."""
        raise NotImplementedError

    def recv(self, timeout: float | None = None):
        """Block until any worker yields a TaskResult, WorkerError,
        Heartbeat, WorkerGone, or WorkerJoined.  With ``timeout`` set,
        return None after that many seconds of silence — the scheduler's
        deadline checker runs on these timed wakeups."""
        raise NotImplementedError

    def stop(self) -> None:
        """Tear the workers down; safe to call with tasks in flight."""
        raise NotImplementedError

    def spawn_worker(self) -> int | None:
        """Start one extra worker, if the transport can.

        Returns the new worker id when the spawn is synchronous (local
        pools) or None when the worker joins asynchronously (a socket
        worker connects like any elastic joiner).  This is the autoscaler
        hook behind ``NiceConfig.respawn_workers``; transports that
        cannot grow raise :class:`NotImplementedError`.
        """
        raise NotImplementedError

    def kill_worker(self, worker_id: int) -> None:
        """Forcibly kill one worker (SIGKILL / connection teardown).

        The fault-injection hook behind the chaos test suite
        (``tests/test_fault_tolerance.py``) — and a convenient lever for
        operators draining a host.  The death surfaces through ``recv()``
        as a normal :class:`~repro.mc.wire.WorkerGone` event.
        """
        raise NotImplementedError

    def worker_pid(self, worker_id: int) -> int | None:
        """The OS pid of a worker, when the transport knows it (local
        children always; socket workers via their Hello).  Used by the
        chaos suite to wedge — not kill — a live worker (SIGSTOP), the
        failure shape hang detection exists for."""
        return None


def create_transport(config, spec, limits=None) -> Transport | None:
    """Build the configured transport, or return None when no worker can
    be started at all and serial search is the only remaining option.

    One rule: socket workers and ``spawn`` children rebuild the scenario
    from a portable ``spec``, ``fork`` children inherit it where the
    platform forks; the request is honored if it can be, else the first
    local start method that can (fork before spawn) is used instead —
    with a visible RuntimeWarning whenever it is not met as asked.
    ``limits`` is handed to the
    :class:`~repro.mc.transport.local.LocalTransport` (the quarantine
    sandbox asks for one local worker and its rlimits).
    """
    from repro.mc.transport.local import LocalTransport
    from repro.mc.transport.socket import SocketTransport

    portable = spec_is_portable(spec)
    unmet = []
    if config.transport == TRANSPORT_SOCKET:
        if portable:
            return SocketTransport(config.workers, config.worker_address,
                                   spec, config.spawn_socket_workers)
        unmet.append("transport='socket'")
    fork_ok = "fork" in multiprocessing.get_all_start_methods()
    available = ([START_METHOD_FORK] if fork_ok else []) \
        + ([START_METHOD_SPAWN] if portable else [])
    method = config.start_method
    if method not in available:
        if method is not None:
            unmet.append(f"start_method={method!r}")
        method = available[0] if available else None
    if unmet or method is None:
        asked = f" with {' and '.join(unmet)}" if unmet else ""
        outcome = (f"using {method!r} workers on the local transport"
                   if method else "running the serial engine")
        warnings.warn(
            f"workers>0{asked} cannot be honored: 'fork' is"
            f" {'available' if fork_ok else 'unavailable on this platform'}"
            f" and this scenario has {'a' if portable else 'no'} portable"
            f" spec for 'spawn' or socket workers (they rebuild the System"
            f" by registry name) — {outcome} instead",
            RuntimeWarning, stacklevel=3)
    if method is None:
        return None
    return LocalTransport(config.workers, method,
                          spec if method == START_METHOD_SPAWN else None,
                          limits)
