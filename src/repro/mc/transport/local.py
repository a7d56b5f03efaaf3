"""Local transport: worker child processes on this machine.

Each child is handed one end of a ``socket.socketpair()``; the master's
end is an ordinary channel of the shared loop
(:mod:`~repro.mc.transport.stream`), which also watches the child's
process sentinel.  A channel per worker means affinity scheduling can
address the worker that retained a group's siblings, and a worker killed
mid-write can only corrupt its own channel — which the master reads as
that worker's death.

Two start methods:

* ``fork`` — workers inherit the live searcher (scenario closures
  included) by copy-on-write via ``repro.mc.worker._INHERITED_SEARCHER``;
* ``spawn`` — workers start from a fresh interpreter and rebuild the
  searcher from the pickled :class:`~repro.mc.wire.ScenarioSpec`, which is
  what makes parallel search work on platforms without ``fork``.

This is the one place a worker process is launched and put away — the
quarantine sandbox (DESIGN.md, "Failure containment") is one worker of
this transport, started with ``limits``.
"""

from __future__ import annotations

import multiprocessing
import signal
import socket

from repro.mc import worker as worker_mod
from repro.mc.transport.stream import StreamTransport
from repro.mc.worker import local_worker_main


class LocalTransport(StreamTransport):
    """``workers`` child processes, a socketpair each."""

    #: Seconds to wait for a clean worker exit before terminating it.
    JOIN_TIMEOUT = 5.0

    def __init__(self, workers: int, start_method: str, spec,
                 limits: dict | None = None):
        super().__init__(workers, spec)
        self.name = f"local-{start_method}"
        self.start_method = start_method
        #: The quarantine sandbox's rlimits (``local_worker_main``); None
        #: for a pool.
        self.limits = limits
        #: Every child launched, by worker id.
        self._processes: list = []
        self._context = None
        #: The live searcher, which a fork child — respawned ones
        #: included — is handed via the inheritance seam (spec-less
        #: scenarios cannot cross a process boundary any other way).
        self._searcher = None

    def start(self, searcher) -> None:
        self._context = multiprocessing.get_context(self.start_method)
        self._searcher = searcher
        for _ in range(self.workers):
            self._launch()

    def spawn_worker(self) -> int:
        """Start one replacement/extra worker mid-search (the autoscaler
        hook)."""
        return self._launch()

    def _launch(self) -> int:
        """Start one child process under the next worker id, inheriting
        the live searcher (fork) or rebuilding from the spec (spawn)."""
        worker_id = len(self._processes)
        ours, theirs = socket.socketpair()
        process = self._context.Process(
            target=local_worker_main,
            args=(worker_id, theirs, self.spec, self.limits),
            daemon=True,
        )
        # Fork children inherit the master's signal handlers — including
        # the checkpointer's flag-setting SIGTERM handler, which a worker
        # never reads and which would swallow stop()'s terminate()
        # escalation.  Default SIGTERM briefly around the fork so the
        # child starts killable (coverage's own child bootstrap re-hooks
        # SIGTERM after the fork when it needs to).
        try:
            previous = signal.signal(signal.SIGTERM, signal.SIG_DFL)
        except ValueError:  # not the main thread: no handler to lift
            previous = None
        if self.spec is None:
            worker_mod._INHERITED_SEARCHER = self._searcher
        try:
            process.start()
        finally:
            worker_mod._INHERITED_SEARCHER = None
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
            # The child holds the only other end now: the channel EOFs
            # the instant it dies.
            theirs.close()
        self._channels[worker_id] = ours
        self._sentinels[process.sentinel] = worker_id
        self._processes.append(process)
        return worker_id

    def _put_away(self, worker_id: int, reason: str,
                       exited: bool) -> str:
        process = self._processes[worker_id]
        del self._sentinels[process.sentinel]
        # A closed channel races process teardown: the kernel closes the
        # child's fds a beat before it becomes reapable, so join *before*
        # reading the exit code.  A child the master is dropping (stalled
        # mid-frame, say) gets no such wait — and none outlives its
        # channel.
        process.join(timeout=self.JOIN_TIMEOUT if exited else 0)
        if process.is_alive():
            process.kill()
            return reason
        return _describe_exit(process.exitcode)

    def kill_worker(self, worker_id: int) -> None:
        self._processes[worker_id].kill()

    def worker_pid(self, worker_id: int) -> int | None:
        try:
            return self._processes[worker_id].pid
        except IndexError:
            return None

    def _reap_stragglers(self) -> None:
        for process in self._processes:
            process.join(timeout=self.JOIN_TIMEOUT)
            if process.is_alive():
                # SIGTERM first: a worker deep in a task holds no state
                # the master needs, so cut it loose.
                process.terminate()
                process.join(timeout=self.JOIN_TIMEOUT)
            if process.is_alive():
                # SIGTERM is held pending while a process is stopped
                # (SIGSTOP — the chaos suite's wedged-worker injection);
                # only SIGKILL acts on it.  Never leak a wedged child.
                process.kill()
                process.join(timeout=self.JOIN_TIMEOUT)
        self._processes.clear()


def _describe_exit(exitcode: int) -> str:
    """How a child process ended, signal names included."""
    if exitcode < 0:
        try:
            return f"killed by {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"killed by signal {-exitcode}"
    return f"exit code {exitcode}"
