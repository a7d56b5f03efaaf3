"""TCP transport: the VPKIaaS-style scale-out (PAPERS.md).

The master listens on ``NiceConfig.worker_address`` and waits for
``workers`` connections.  Each worker — a ``nice worker --connect
HOST:PORT`` process, on this machine or another — sends a
:class:`~repro.mc.wire.Hello`, receives an
:class:`~repro.mc.wire.InitWorker` carrying the
:class:`~repro.mc.wire.ScenarioSpec`, rebuilds the System by registry
name, and then serves :class:`~repro.mc.wire.ExpandTask` messages.

The pool is **elastic**: the listener sits in the shared loop's select
(:mod:`~repro.mc.transport.stream`) for the whole search, so a worker
connecting *after* the initial barrier completes the same handshake, gets
the next worker id, and surfaces to the scheduler as a
:class:`~repro.mc.wire.WorkerJoined` event (the VPKIaaS autoscaling
shape: add ``nice worker`` processes whenever there are spare cores,
mid-run).  Symmetrically, a dropped connection or dead worker process
surfaces as :class:`~repro.mc.wire.WorkerGone` — never a hang and never,
by itself, an aborted search.

By default (``spawn_socket_workers=True``) the transport launches the
worker subprocesses itself, pointed at its own ephemeral port, so
``nice run --transport socket`` works with zero setup; with it off, the
master only listens, and the operator starts workers wherever there are
cores.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
from time import monotonic as _monotonic

import repro
from repro.config import ConfigError
from repro.mc.transport import TransportError
from repro.mc.transport.stream import StreamTransport
from repro.mc.wire import WorkerGone


def parse_address(address: str) -> tuple[str, int]:
    """``host:port`` -> (host, port); a bare port means localhost."""
    host, sep, port = address.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", address
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ConfigError(
            f"bad worker address {address!r}; expected host:port") from None


class SocketTransport(StreamTransport):
    """Master side of the TCP worker protocol: the listener, and the
    ``nice worker`` subprocesses it starts itself."""

    #: Seconds to wait for all *initial* workers to connect before giving
    #: up on the run (elastic joiners can arrive any time after that).
    ACCEPT_TIMEOUT = 60.0

    def __init__(self, workers: int, address: str, spec,
                 spawn_workers: bool = True):
        super().__init__(workers, spec)
        self.name = "socket"
        self.address = address
        self.spawn_workers = spawn_workers
        self._subprocesses: list[subprocess.Popen] = []
        self._stderr_logs: list = []
        #: The bound (host, port), with the real port once listening.
        self.bound: tuple[str, int] | None = None

    def start(self, searcher) -> None:
        host, port = parse_address(self.address)
        listener = socket.create_server((host, port),
                                        backlog=max(self.workers, 8))
        listener.setblocking(False)
        self._listening.append(listener)
        self.bound = listener.getsockname()[:2]
        if self.spawn_workers:
            for _ in range(self.workers):
                self.spawn_worker()
        else:
            # The operator must be able to aim `nice worker` somewhere —
            # with the default ephemeral port only we know the number.
            print(f"socket transport listening on "
                  f"{self.bound[0]}:{self.bound[1]} — waiting for "
                  f"{self.workers} x `nice worker --connect "
                  f"{self.bound[0]}:{self.bound[1]}`"
                  f" (more may join mid-search)",
                  file=sys.stderr, flush=True)
        # The accept barrier is the loop every later joiner is admitted
        # by, run until the pool is full.  Nobody has heard of a worker
        # that dies in here: its id and its slot reopen, so the pool the
        # scheduler enrolls is ``range(workers)``.
        deadline = _monotonic() + self.ACCEPT_TIMEOUT
        while len(self._channels) < self.workers:
            now = _monotonic()
            if now > deadline:
                raise TransportError(
                    f"only {len(self._channels)}/{self.workers}"
                    f" workers connected to"
                    f" {self.bound[0]}:{self.bound[1]} within"
                    f" {self.ACCEPT_TIMEOUT:.0f}s")
            # Woken every second: a subprocess that died before
            # connecting has no descriptor to select on.
            event = self._poll(min(deadline, now + 1.0))
            if isinstance(event, WorkerGone):
                self._vacant.append(event.worker_id)
            elif event is None:
                self._check_spawned_alive()

    def spawn_worker(self) -> None:
        """Launch one `nice worker` subprocess aimed at this master.

        Used for the initial pool and afterwards to replace a dead worker
        (the subprocess joins like any elastic worker).  A pool of
        external workers is never grown from here: elastic joins replace
        them.
        """
        if not self.spawn_workers:
            raise NotImplementedError(
                "external socket workers are replaced by elastic joins")
        host, port = self.bound
        env = dict(os.environ)
        # Make `repro` importable in the child even when running from a
        # src layout without an installed package.
        src_dir = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        command = [sys.executable, "-m", "repro.cli", "worker",
                   "--connect", f"{host}:{port}"]
        # stderr goes to an unbuffered temp file, not a PIPE: nobody
        # drains a pipe during the search, so a chatty worker would
        # block on a full pipe buffer and stall its tasks.
        log = tempfile.TemporaryFile()
        self._stderr_logs.append(log)
        self._subprocesses.append(
            subprocess.Popen(command, env=env,
                             stdout=subprocess.DEVNULL, stderr=log))

    def _read_stderr(self, index: int) -> str:
        log = self._stderr_logs[index]
        log.seek(0)
        return log.read().decode(errors="replace")

    def _check_spawned_alive(self) -> None:
        for index, process in enumerate(self._subprocesses):
            if process.poll() is not None:
                raise TransportError(
                    f"spawned socket worker {index} exited with code"
                    f" {process.returncode} before connecting:\n"
                    f"{self._read_stderr(index)}")

    def _put_away(self, worker_id: int, reason: str, exited: bool) -> str:
        """Append the stderr of exited worker subprocesses to a death
        reason.  Worker ids are assigned in *accept* order, which need not
        match spawn order — report every exited subprocess's stderr
        instead of guessing which one backed this worker id.  (A worker
        dropped while it runs finds its connection closed and exits.)"""
        for index, process in enumerate(self._subprocesses):
            if process.poll() is not None:
                stderr = self._read_stderr(index)
                if stderr:
                    reason += (f"\nstderr of exited worker subprocess"
                               f" {index}:\n{stderr}")
        return reason

    def kill_worker(self, worker_id: int) -> None:
        pid = self.worker_pid(worker_id)
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
                return
            except OSError:
                pass
        # Remote (or already-reaped) worker: sever the connection instead —
        # to the scheduler a partition and a dead process look the same,
        # and the loop reads the EOF like any other.
        sock = self._channels.get(worker_id)
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def worker_pid(self, worker_id: int) -> int | None:
        host, pid = self._peers.get(worker_id, ("", 0))
        if pid and host == socket.gethostname():
            return pid
        return None

    def _reap_stragglers(self) -> None:
        for process in self._subprocesses:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for log in self._stderr_logs:
            log.close()
        self._subprocesses.clear()
        self._stderr_logs.clear()


def run_worker(address: str, retries: int = 5,
               retry_max_wait: float = 30.0) -> int:
    """Client side: connect to a master and serve tasks (``nice worker``).

    Connection refusals are retried with jittered exponential backoff
    (``retries`` connection attempts total, each delay doubling from 0.5s
    and capped at ``retry_max_wait``), so workers can be started *before*
    the master — the natural order when provisioning a fleet — instead of
    failing on the first refused connection.  Jitter keeps a batch of
    workers launched together from stampeding the listener in lockstep."""
    import random
    import time

    from repro.mc.worker import socket_worker_loop

    host, port = parse_address(address)
    attempt = 0
    while True:
        try:
            connection = socket.create_connection((host, port))
            break
        except OSError as exc:
            attempt += 1
            if attempt >= retries:
                print(f"nice worker: cannot reach a master at {host}:{port}"
                      f" after {attempt} attempt(s): {exc}",
                      file=sys.stderr)
                return 1
            delay = min(retry_max_wait, 0.5 * (2 ** (attempt - 1)))
            delay *= 0.5 + random.random() / 2
            print(f"nice worker: master at {host}:{port} not reachable"
                  f" ({exc}); retrying in {delay:.1f}s"
                  f" ({attempt}/{retries})", file=sys.stderr, flush=True)
            time.sleep(delay)
    with connection:
        socket_worker_loop(connection)
    return 0
