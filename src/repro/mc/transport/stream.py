"""The one channel, and the one loop every real transport inherits
(DESIGN.md, "Scheduler and transports").

However a worker was started, the master reaches it over one stream
socket — its end of a ``socket.socketpair()`` for a fork or spawn child,
the accepted TCP connection for a ``nice worker`` — carrying
:func:`~repro.mc.wire.send_msg` / :func:`~repro.mc.wire.recv_frame`
frames, with the channel's descriptor tables (:class:`~repro.mc.wire.Codec`)
turning tasks and results into their wire form and back.
``submit`` writes a frame; ``recv`` is one ``select`` over everything the
master waits on: the worker sockets, the local children's process
sentinels, the listener, and the connections yet to say Hello.  The
master runs no thread, so what bounds a peer is time: a frame, read or
written, completes within :attr:`StreamTransport.FRAME_TIMEOUT` or its
worker is gone, and a connection that says nothing costs nothing until
its own deadline drops it.  Every way a worker is found dead ends in
:meth:`StreamTransport._reap`, which takes its id out of ``_channels`` —
so each death is reported exactly once.  The launchers
(:mod:`~repro.mc.transport.local`, :mod:`~repro.mc.transport.socket`)
add how a worker is started, killed, described once it has exited, and
cleared away at ``stop()``.
"""

from __future__ import annotations

import sys
import weakref
from multiprocessing import connection
from time import monotonic as _monotonic

from repro.mc.transport import Transport, WorkerLost
from repro.mc.wire import (
    MAX_GREETING,
    PROTOCOL_VERSION,
    Codec,
    Hello,
    InitWorker,
    Shutdown,
    WorkerError,
    WorkerGone,
    WorkerJoined,
    recv_frame,
    recv_msg,
    send_msg,
)


#: Every master-side channel end in this process, whichever transport
#: holds it: a fork child closes its copies before it serves
#: (``repro.mc.transport.local``), so a hang-up is an EOF.
MASTER_ENDS = weakref.WeakSet()


class StreamTransport(Transport):
    """Master side of the channel; subclasses launch the workers."""

    #: Seconds a frame gets, whole, from its first byte (the largest of
    #: an ``lb3`` search is ~10 KB, definitions included): a worker
    #: wedged mid-frame is reaped.
    FRAME_TIMEOUT = 10.0
    #: Seconds an accepted connection gets to say Hello; absolute, and
    #: waited out inside the select, so a silent peer delays nobody.
    HANDSHAKE_TIMEOUT = 10.0

    def __init__(self, workers: int, spec):
        super().__init__(workers)
        self.spec = spec
        #: worker id -> the master's end of its channel, and the
        #: channel's descriptor tables, from :meth:`_open` until
        #: :meth:`_reap`.
        self._channels: dict = {}
        self._codecs: dict[int, Codec] = {}
        #: The one object each descriptor received on any channel is
        #: resolved to (:class:`~repro.mc.wire.Codec`).
        self._intern: dict = {}
        #: process sentinel -> worker id, for workers that are children.
        self._sentinels: dict[int, int] = {}
        #: The listening socket if there is one, and accepted connection
        #: -> when it must have said Hello by (the socket transport's).
        self._listening: list = []
        self._greeting: dict = {}
        #: worker id -> (host, pid) from its Hello.
        self._peers: dict[int, tuple[str, int]] = {}
        #: Ids to hand out before a fresh one: the accept barrier returns
        #: those of workers that died before the scheduler heard of them.
        self._vacant: list[int] = []
        self._next_worker_id = 0

    def _open(self, worker_id: int, sock) -> None:
        """Enroll ``sock`` as ``worker_id``'s channel, with empty
        descriptor tables: a worker serving under a reused id is a new
        peer."""
        MASTER_ENDS.add(sock)
        self._channels[worker_id] = sock
        self._codecs[worker_id] = Codec(self._intern)

    def submit(self, worker_id: int, message) -> None:
        sock = self._channels.get(worker_id)
        if sock is None:
            raise WorkerLost(worker_id, "already reported dead")
        try:
            send_msg(sock, self._codecs[worker_id].encode(message),
                     self.FRAME_TIMEOUT)
        except OSError as exc:
            # Failing the submit *is* the death notice: the scheduler
            # requeues this task with the rest of the worker's.
            gone = self._reap(worker_id,
                              f"connection lost while submitting"
                              f" {type(message).__name__}: {exc}",
                              exited=not isinstance(exc, TimeoutError))
            raise WorkerLost(worker_id, gone.reason) from exc

    def recv(self, timeout: float | None = None):
        event = self._poll(None if timeout is None
                           else _monotonic() + timeout)
        if isinstance(event, WorkerJoined):
            print(f"elastic worker {event.worker_id} joined mid-search from"
                  f" {event.host or 'unknown host'} (pid {event.pid})",
                  file=sys.stderr, flush=True)
        return event

    def _poll(self, deadline: float | None):
        """One message or membership event, or None once ``deadline`` (a
        ``monotonic`` time; None waits forever) has passed — after one
        look at least, so a zero timeout still sees what has arrived.
        The only place the master waits."""
        while True:
            now = _monotonic()
            for conn, expiry in list(self._greeting.items()):
                if expiry <= now:
                    self._drop(conn, f"no Hello within"
                                     f" {self.HANDSHAKE_TIMEOUT:.0f}s")
            wake_by = [*self._greeting.values(),
                       *([] if deadline is None else [deadline])]
            ready = set(connection.wait(
                [*self._channels.values(), *self._sentinels,
                 *self._greeting, *self._listening],
                max(0.0, min(wake_by) - now) if wake_by else None))
            # Channels before sentinels: what a worker wrote before it
            # exited is read before its exit is reported.
            for worker_id, sock in self._channels.items():
                if sock in ready:
                    return self._read(worker_id, sock)
            for sentinel in ready.intersection(self._sentinels):
                return self._reap(self._sentinels[sentinel],
                                  "exited with its channel open", exited=True)
            for conn in ready.intersection(self._greeting):
                joined = self._greet(conn)
                if joined is not None:
                    return joined
            for listener in ready.intersection(self._listening):
                try:
                    conn, _ = listener.accept()
                except OSError:
                    continue  # the peer was gone again before we looked
                MASTER_ENDS.add(conn)
                self._greeting[conn] = _monotonic() + self.HANDSHAKE_TIMEOUT
            if deadline is not None and _monotonic() >= deadline:
                return None

    def _read(self, worker_id: int, sock):
        """The next frame of a readable channel, or the death it shows."""
        try:
            message = self._codecs[worker_id].decode(
                recv_frame(sock, self.FRAME_TIMEOUT))
        except Exception as exc:  # noqa: BLE001 - reset, stall, bad pickle
            return self._reap(worker_id, f"connection lost: {exc!r}",
                              exited=isinstance(exc, ConnectionError))
        if message is None:
            return self._reap(worker_id, "worker closed the connection",
                              exited=True)
        if isinstance(message, Shutdown):
            # The recycling worker leaves when the reap hangs up on it.
            return self._reap(worker_id, "recycled by its memory watchdog",
                              exited=True, recycled=True)
        if isinstance(message, WorkerError) and message.task_id is None:
            # The process is done for, but only the scheduler's policy
            # decides whether the search is: the traceback rides on the
            # one event it sees for this worker.
            return self._reap(worker_id,
                              f"failed to start:\n{message.error}",
                              started=False)
        return message

    def _greet(self, conn) -> WorkerJoined | None:
        """Hello/Init exchange on a connection that has started talking;
        a peer that speaks garbage, another protocol or too slowly is
        dropped with a one-line notice, never raised for."""
        if not self._vacant:
            self._vacant.append(self._next_worker_id)
            self._next_worker_id += 1
        worker_id = self._vacant[-1]
        try:
            hello = recv_msg(conn, self.FRAME_TIMEOUT, MAX_GREETING)
            if not isinstance(hello, Hello) \
                    or hello.protocol != PROTOCOL_VERSION:
                raise ConnectionError(
                    f"bad handshake: {hello!r} (master speaks protocol"
                    f" {PROTOCOL_VERSION})")
            send_msg(conn, InitWorker(self.spec, worker_id),
                     self.FRAME_TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - any failure drops the peer
            self._drop(conn, exc)
            return None
        self._vacant.pop()
        self._open(worker_id, conn)
        del self._greeting[conn]
        self._peers[worker_id] = (hello.host, hello.pid)
        return WorkerJoined(worker_id, hello.host, hello.pid)

    def _drop(self, conn, why) -> None:
        print(f"dropping connection that failed the worker handshake:"
              f" {why}", file=sys.stderr, flush=True)
        del self._greeting[conn]
        conn.close()

    def _reap(self, worker_id: int, reason: str, exited: bool = False,
              started: bool = True, recycled: bool = False) -> WorkerGone:
        """Drop a dead worker's channel and word its death.  ``exited``:
        the peer closed the channel itself, or is about to, so how its
        process ended is the better reason; otherwise the master is
        dropping a worker that may still run, and its launcher must not
        leak it.  ``started`` False: it could not build its runtime;
        ``recycled``: it left on its memory watchdog's word
        (:class:`WorkerGone`)."""
        self._channels.pop(worker_id).close()
        del self._codecs[worker_id]
        return WorkerGone(worker_id,
                          self._put_away(worker_id, reason, exited), started,
                          recycled)

    def _put_away(self, worker_id: int, reason: str, exited: bool) -> str:
        """The launcher's part of :meth:`_reap`: the final reason."""
        raise NotImplementedError

    def stop(self) -> None:
        """Shutdown to every worker, then every socket closed — what a
        worker mid-task finds next is the Shutdown or a dead channel, and
        it exits — then the launcher's :meth:`_reap_stragglers` for
        whatever still runs."""
        for sock in self._channels.values():
            try:
                send_msg(sock, Shutdown(), self.FRAME_TIMEOUT)
            except OSError:
                pass
        for sock in (*self._channels.values(), *self._greeting,
                     *self._listening):
            sock.close()
        for table in (self._channels, self._codecs, self._greeting,
                      self._listening, self._sentinels):
            table.clear()
        self._reap_stragglers()

    def _reap_stragglers(self) -> None:
        raise NotImplementedError
