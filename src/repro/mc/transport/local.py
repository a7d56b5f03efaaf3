"""In-process-pool transport: worker child processes on this machine.

Every worker has its *own* task queue, because affinity scheduling must
address a specific worker — the one that retained a group's siblings.
Results travel on a *per-worker pipe* rather than one shared queue: a
worker killed mid-write (the fault-injection tests do exactly that) can
only corrupt its own channel, which the master reads as that worker's
death — never garbage on a channel other workers still need.  A closed
pipe is also an immediate, poll-free death signal: ``recv()`` wakes on
EOF the moment the process exits and reports a
:class:`~repro.mc.wire.WorkerGone` event for the scheduler to requeue
the dead worker's tasks.

Two start methods:

* ``fork`` — workers inherit the live searcher (scenario closures
  included) by copy-on-write via ``repro.mc.worker._INHERITED_SEARCHER``;
* ``spawn`` — workers start from a fresh interpreter and rebuild the
  searcher from the pickled :class:`~repro.mc.wire.ScenarioSpec`, which is
  what makes parallel search work on platforms without ``fork`` and what
  the socket transport reuses for remote workers.

This is the one place a worker process is launched, watched and torn
down — the quarantine sandbox (DESIGN.md, "Failure containment") is one
worker of this transport, started with ``limits``.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from multiprocessing import connection as mp_connection

from repro.mc import worker as worker_mod
from repro.mc.transport import Transport, WorkerLost
from repro.mc.wire import Shutdown, WorkerError, WorkerGone
from repro.mc.worker import local_worker_main


class LocalTransport(Transport):
    """``workers`` child processes, one task queue and result pipe each."""

    #: Seconds to wait for a clean worker exit before terminating it.
    JOIN_TIMEOUT = 5.0

    def __init__(self, workers: int, start_method: str, spec,
                 limits: dict | None = None):
        super().__init__(workers)
        self.name = f"local-{start_method}"
        self.start_method = start_method
        self.spec = spec
        #: The quarantine sandbox's rlimits (``local_worker_main``); None
        #: for a pool.
        self.limits = limits
        self._processes: list = []
        self._task_queues: list = []
        #: Master-side result ends, worker id -> Connection; dead workers'
        #: entries are dropped so ``recv`` never re-polls a broken pipe.
        self._result_conns: dict[int, object] = {}
        self._context = None
        #: The live searcher, which a fork child — respawned ones
        #: included — is handed via the inheritance seam (spec-less
        #: scenarios cannot cross a process boundary any other way).
        self._searcher = None

    def start(self, searcher) -> None:
        self._context = multiprocessing.get_context(self.start_method)
        self._searcher = searcher
        for worker_id in range(self.workers):
            self._launch(worker_id)

    def _launch(self, worker_id: int) -> None:
        """Start one child process serving ``worker_id`` (which must be
        ``len(self._processes)``)."""
        task_queue = self._context.SimpleQueue()
        recv_end, send_end = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=local_worker_main,
            args=(worker_id, task_queue, send_end, self.spec, self.limits),
            daemon=True,
        )
        # Fork children inherit the master's signal handlers — including
        # the checkpointer's flag-setting SIGTERM handler, which a worker
        # never reads and which would swallow stop()'s terminate()
        # escalation.  Default SIGTERM briefly around the fork so the
        # child starts killable (coverage's own child bootstrap re-hooks
        # SIGTERM after the fork when it needs to).
        previous = None
        if threading.current_thread() is threading.main_thread():
            previous = signal.signal(signal.SIGTERM, signal.SIG_DFL)
        if self.spec is None:
            worker_mod._INHERITED_SEARCHER = self._searcher
        try:
            process.start()
        finally:
            worker_mod._INHERITED_SEARCHER = None
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
        # The child holds the only live send end now; closing ours
        # makes the pipe EOF the instant the child dies.
        send_end.close()
        self._task_queues.append(task_queue)
        self._result_conns[worker_id] = recv_end
        self._processes.append(process)

    def spawn_worker(self) -> int:
        """Start one replacement/extra worker mid-search (the autoscaler
        hook): a fresh child with the next worker id, inheriting the live
        searcher (fork) or rebuilding from the spec (spawn)."""
        worker_id = len(self._processes)
        self._launch(worker_id)
        return worker_id

    def submit(self, worker_id: int, message) -> None:
        if worker_id not in self._result_conns:
            raise WorkerLost(worker_id, "already reported dead")
        process = self._processes[worker_id]
        if not process.is_alive():
            raise WorkerLost(worker_id, _describe_exit(process.exitcode))
        self._task_queues[worker_id].put(message)

    def recv(self, timeout: float | None = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait_for = 1.0
            if deadline is not None:
                # Never below zero: an expired (or zero) timeout still
                # polls the pipes once, so what is already there is seen.
                wait_for = min(wait_for, max(0.0, deadline - time.monotonic()))
            ready = mp_connection.wait(
                list(self._result_conns.values()), timeout=wait_for)
            if not ready:
                # EOF normally reports deaths instantly; this poll is a
                # backstop for a worker wedged without closing its pipe.
                for worker_id in list(self._result_conns):
                    process = self._processes[worker_id]
                    if not process.is_alive():
                        return self._reap(
                            worker_id, _describe_exit(process.exitcode))
                if deadline is not None and time.monotonic() >= deadline:
                    return None
                continue
            conn = ready[0]
            worker_id = next(w for w, c in self._result_conns.items()
                             if c is conn)
            try:
                result = conn.recv()
            except (EOFError, OSError) as exc:
                # A pipe EOF races process teardown: the kernel closes
                # the child's fds a beat before it becomes reapable, so
                # join *before* reading the exit code.
                process = self._processes[worker_id]
                process.join(timeout=self.JOIN_TIMEOUT)
                reason = (_describe_exit(process.exitcode)
                          if not process.is_alive()
                          else f"result pipe broke: {exc!r}")
                return self._reap(worker_id, reason)
            except Exception as exc:  # noqa: BLE001 - killed mid-write
                return self._reap(
                    worker_id, f"undecodable result (killed mid-write?):"
                               f" {exc!r}")
            if isinstance(result, WorkerError) and result.task_id is None:
                return self._reap(
                    worker_id, f"failed to start:\n{result.error}")
            return result

    def _reap(self, worker_id: int, reason: str) -> WorkerGone:
        """Drop a dead worker's channel and report the death exactly once."""
        conn = self._result_conns.pop(worker_id)
        try:
            conn.close()
        except OSError:
            pass
        return WorkerGone(worker_id, reason)

    def kill_worker(self, worker_id: int) -> None:
        self._processes[worker_id].kill()

    def worker_pid(self, worker_id: int) -> int | None:
        try:
            return self._processes[worker_id].pid
        except IndexError:
            return None

    def stop(self) -> None:
        for queue, process in zip(self._task_queues, self._processes):
            if process.is_alive():
                try:
                    queue.put(Shutdown())
                except (OSError, ValueError):
                    pass
        for process in self._processes:
            process.join(timeout=self.JOIN_TIMEOUT)
            if process.is_alive():
                # A worker mid-task can block writing a large result to its
                # pipe once the master stops reading; it holds no state the
                # master needs, so cut it loose.
                process.terminate()
                process.join(timeout=self.JOIN_TIMEOUT)
            if process.is_alive():
                # SIGTERM is held pending while a process is stopped
                # (SIGSTOP — the chaos suite's wedged-worker injection);
                # only SIGKILL acts on it.  Never leak a wedged child.
                process.kill()
                process.join(timeout=self.JOIN_TIMEOUT)
        for queue in self._task_queues:
            queue.close()
        for conn in self._result_conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._processes.clear()
        self._task_queues.clear()
        self._result_conns.clear()


def _describe_exit(exitcode: int) -> str:
    """How a child process ended, signal names included."""
    if exitcode < 0:
        try:
            return f"killed by {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"killed by signal {-exitcode}"
    return f"exit code {exitcode}"
