"""The one channel: the transport contract of the shared loop, and the
three bugs it closes.

Every real transport inherits ``submit`` / ``recv`` / ``stop`` from
:class:`~repro.mc.transport.stream.StreamTransport`, so the contract is
checked once, on :class:`FakeTransport` — the loop with nothing launched,
each "worker" a ``socketpair`` whose far end the test scripts byte by
byte.  What a launcher adds (fork, spawn, self-spawned and external
``nice worker``) has one real-process smoke each in
``tests/test_transports.py`` / ``tests/test_parallel_search.py``; here
real processes appear only where the bug needs one: a child wedged
mid-frame must not outlive its channel, and a real ``nice worker`` must be
admitted past a silent connection.

Nothing here may block a test run (``pytest-timeout`` is not installed):
a call that the bug would hang runs on a daemon thread with a join
timeout (:func:`within`).
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time

import pytest

from contract import requires_fork
from repro import scenarios
from repro.mc import wire
from repro.mc.transport import TransportError, WorkerLost
from repro.mc.transport.local import LocalTransport
from repro.mc.transport.socket import SocketTransport, run_worker
from repro.mc.transport.stream import StreamTransport

TASK = wire.ExpandTask(1, [((), None)])
#: A frame announced as 40 000 bytes of which half arrive.
HALF_FRAME = struct.pack("!I", 40_000) + b"x" * 20_000


def within(seconds: float, call, *args, **kwargs):
    """What ``call(...)`` returns or raises — or an AssertionError if it
    has done neither after ``seconds`` (its thread is left behind, a
    daemon)."""
    outcome = []

    def run():
        try:
            outcome.append((call(*args, **kwargs), None))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome.append((None, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, \
        f"{getattr(call, '__name__', call)} still blocked after {seconds}s"
    result, raised = outcome[0]
    if raised is not None:
        raise raised
    return result


def in_background(call) -> threading.Thread:
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    return thread


class FakeTransport(StreamTransport):
    """The shared loop, nothing launched."""

    name = "fake"

    def __init__(self, workers: int = 0):
        super().__init__(workers, spec=None)
        #: worker id -> the worker's end of its channel.
        self.far: dict[int, socket.socket] = {}
        #: ``(worker id, exited)`` of every reap, in order.
        self.put_away: list[tuple[int, bool]] = []
        #: worker id -> its sentinel, a descriptor that turns readable at
        #: exit: the two ends of a pipe, the write end closed by
        #: :meth:`exit_process`.
        self._pipes: dict[int, list] = {}

    def start(self, searcher=None) -> None:
        for _ in range(self.workers):
            self.spawn_worker()

    def spawn_worker(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        self._channels[worker_id], self.far[worker_id] = socket.socketpair()
        self._pipes[worker_id] = list(os.pipe())
        self._sentinels[self._pipes[worker_id][0]] = worker_id
        return worker_id

    def exit_process(self, worker_id: int) -> None:
        os.close(self._pipes[worker_id].pop())

    def accepted(self) -> socket.socket:
        """What the listener branch does with a fresh connection; returns
        the peer's end."""
        ours, theirs = socket.socketpair()
        self._greeting[ours] = time.monotonic() + self.HANDSHAKE_TIMEOUT
        return theirs

    def _put_away(self, worker_id, reason, exited):
        self.put_away.append((worker_id, exited))
        if worker_id in self._pipes:  # a joiner is nobody's child
            del self._sentinels[self._pipes[worker_id][0]]
        return reason

    def _reap_stragglers(self) -> None:
        for ends in self._pipes.values():
            for fd in ends:
                os.close(fd)
        self._pipes.clear()


@pytest.fixture
def fake():
    transport = FakeTransport(workers=2)
    transport.start()
    yield transport
    transport.stop()
    for sock in transport.far.values():
        sock.close()


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------

def test_recv_with_a_zero_timeout_polls_once_and_never_blocks(fake):
    """``recv(timeout=t)`` is "None after t seconds of silence", and 0 is
    a valid t: an empty channel answers None at once, a frame already
    delivered comes back.  (Replaces the per-transport pair of the same
    name in ``test_transports.py``: both ran this loop.)"""
    began = time.monotonic()
    assert within(5, fake.recv, timeout=0) is None
    assert time.monotonic() - began < 0.5
    wire.send_msg(fake.far[1], wire.Heartbeat(1))
    beat = within(5, fake.recv, timeout=0)
    assert isinstance(beat, wire.Heartbeat) and beat.worker_id == 1
    assert within(5, fake.recv, timeout=0) is None
    began = time.monotonic()
    assert within(5, fake.recv, timeout=0.2) is None
    assert 0.2 <= time.monotonic() - began < 1.0


def test_submit_writes_one_frame_to_that_worker(fake):
    fake.submit(1, TASK)
    received = wire.recv_msg(fake.far[1], timeout=5)
    assert isinstance(received, wire.ExpandTask) and received.task_id == 1
    fake.far[0].settimeout(0)
    with pytest.raises(BlockingIOError):
        fake.far[0].recv(1)


@pytest.mark.parametrize("seen_by", ["eof", "sentinel", "submit"])
def test_a_death_is_reported_exactly_once(fake, seen_by):
    """Whichever of the channel's EOF, the process sentinel and a failed
    submit sees a death first reports it; the other two then find the
    worker out of the tables, and a later submit is refused."""
    if seen_by == "sentinel":
        fake.exit_process(0)  # its channel still open
        gone = within(5, fake.recv, timeout=5)
        fake.far[0].close()
    else:
        fake.far[0].close()
        fake.exit_process(0)
        if seen_by == "eof":
            gone = within(5, fake.recv, timeout=5)
        else:
            with pytest.raises(WorkerLost) as lost:
                fake.submit(0, TASK)
            gone = lost.value
    assert gone.worker_id == 0
    assert fake.put_away == [(0, True)]
    assert within(5, fake.recv, timeout=0.1) is None  # no second notice
    with pytest.raises(WorkerLost, match="already reported dead"):
        fake.submit(0, TASK)
    assert fake.put_away == [(0, True)]
    # The other worker never noticed.
    wire.send_msg(fake.far[1], wire.Heartbeat(1))
    assert isinstance(within(5, fake.recv, timeout=5), wire.Heartbeat)


def test_what_a_worker_wrote_before_exiting_is_read_before_its_death(fake):
    """A recycled worker sends its result and exits: result, sentinel and
    EOF are all there at the next ``recv``, and the result comes first."""
    wire.send_msg(fake.far[0], wire.TaskResult(7, 0, {}))
    fake.far[0].close()
    fake.exit_process(0)
    first, second = (within(5, fake.recv, timeout=5) for _ in range(2))
    assert isinstance(first, wire.TaskResult) and first.task_id == 7
    assert isinstance(second, wire.WorkerGone) and second.worker_id == 0


def test_a_start_up_failure_is_its_workers_death_notice(fake):
    wire.send_msg(fake.far[1], wire.WorkerError(None, 1, "KeyError: 'nope'"))
    gone = within(5, fake.recv, timeout=5)
    assert isinstance(gone, wire.WorkerGone) and gone.worker_id == 1
    assert gone.reason == "failed to start:\nKeyError: 'nope'"
    # Dropped by the master, not closed by the peer: the launcher is told
    # to put the process away.
    assert fake.put_away == [(1, False)]


def hello(peer, **fields) -> None:
    wire.send_msg(peer, wire.Hello(host="h", pid=42, **fields))


def test_a_joiner_is_admitted_by_the_loop(fake, capsys):
    peer = fake.accepted()
    with peer:
        assert within(5, fake.recv, timeout=0.1) is None  # said nothing yet
        hello(peer)
        joined = within(5, fake.recv, timeout=5)
        assert joined == wire.WorkerJoined(2, "h", 42)
        init = wire.recv_msg(peer, timeout=5)
        assert isinstance(init, wire.InitWorker) and init.worker_id == 2
        assert "elastic worker 2 joined mid-search from h (pid 42)" \
            in capsys.readouterr().err
        fake.submit(2, TASK)
        assert wire.recv_msg(peer, timeout=5).task_id == 1


def test_worker_joined_precedes_the_worker_gone_of_a_joiner_that_dies_at_once(
        fake):
    """Hello and EOF are both waiting when the master first looks: the
    scheduler must hear of the worker before it hears of its death, or it
    would ignore the death and then enroll a dead worker."""
    peer = fake.accepted()
    hello(peer)
    peer.shutdown(socket.SHUT_WR)
    with peer:
        events = [within(5, fake.recv, timeout=5) for _ in range(2)]
    assert [type(event) for event in events] \
        == [wire.WorkerJoined, wire.WorkerGone]
    assert {event.worker_id for event in events} == {2}
    assert within(5, fake.recv, timeout=0.1) is None


@pytest.mark.parametrize("protocol", [wire.PROTOCOL_VERSION - 1,
                                      wire.PROTOCOL_VERSION + 1])
def test_hello_with_another_protocol_is_dropped(fake, protocol, capsys):
    """A v6 worker ships ``kid_digests`` where the v7 master reads
    ``digests``; a v8 one knows things this master does not: mismatched
    peers are dropped at the handshake, with a one-line notice."""
    assert wire.PROTOCOL_VERSION == 7
    peer = fake.accepted()
    with peer:
        hello(peer, protocol=protocol)
        assert within(5, fake.recv, timeout=0.2) is None
        assert wire.recv_msg(peer, timeout=5) is None  # no Init, just EOF
    assert not fake._greeting and sorted(fake._channels) == [0, 1]
    notice, = capsys.readouterr().err.splitlines()
    assert f"master speaks protocol {wire.PROTOCOL_VERSION}" in notice


def test_a_connection_that_says_nothing_is_dropped_at_its_deadline(
        fake, monkeypatch, capsys):
    monkeypatch.setattr(FakeTransport, "HANDSHAKE_TIMEOUT", 0.3)
    peer = fake.accepted()
    with peer:
        assert within(5, fake.recv, timeout=0.1) is None
        assert len(fake._greeting) == 1
        began = time.monotonic()
        assert within(5, fake.recv, timeout=1.0) is None
        assert time.monotonic() - began >= 0.9  # the wait was not cut short
        assert not fake._greeting
        assert wire.recv_msg(peer, timeout=5) is None
    assert "no Hello within" in capsys.readouterr().err


def test_stop_with_tasks_in_flight_returns(fake):
    """Neither an unanswered task nor a half-read result holds ``stop``:
    every worker is told to shut down and finds its channel closed."""
    fake.submit(0, TASK)
    fake.submit(1, TASK)
    fake.far[1].sendall(HALF_FRAME)
    within(5, fake.stop)
    for peer in fake.far.values():
        assert isinstance(wire.recv_msg(peer, timeout=5), wire.ExpandTask)
        assert isinstance(wire.recv_msg(peer, timeout=5), wire.Shutdown)
        try:
            assert wire.recv_msg(peer, timeout=5) is None
        except ConnectionResetError:
            assert peer is fake.far[1]  # closed over what it had written
    assert not fake._channels and fake.put_away == []


# ----------------------------------------------------------------------
# Bug 1: a frame is only as long as MAX_FRAME
# ----------------------------------------------------------------------

def test_an_over_long_frame_is_refused_before_any_of_it_is_read():
    """``recv_msg`` used to believe any 4-byte length: a peer announcing
    4 GiB had the reader buffer whatever followed.  Here the peer sends
    the announcement and then nothing — the refusal cannot be waiting for
    a body."""
    left, right = socket.socketpair()
    with left, right:
        left.sendall(struct.pack("!I", 0xFFFF_FFFF))

        with pytest.raises(ConnectionError, match="4294967295-byte"):
            within(5, wire.recv_msg, right)
        # The cap itself is a frame like any other.
        assert wire.MAX_GREETING < wire.MAX_FRAME < 1 << 32
        left.sendall(struct.pack("!I", wire.MAX_FRAME + 1))
        with pytest.raises(ConnectionError):
            wire.recv_msg(right, timeout=5)


def test_a_worker_announcing_an_over_long_frame_is_gone(fake):
    fake.far[0].sendall(struct.pack("!I", wire.MAX_FRAME + 1))
    gone = within(5, fake.recv, timeout=5)
    assert isinstance(gone, wire.WorkerGone) and gone.worker_id == 0
    assert f"{wire.MAX_FRAME + 1}-byte frame" in gone.reason


def test_an_over_long_greeting_is_dropped_with_the_usual_notice(
        fake, capsys):
    """Whatever reaches ``--listen`` is held to the tighter cap: a frame
    a worker may send mid-search is still too long for a Hello."""
    peer = fake.accepted()
    with peer:
        peer.sendall(struct.pack("!I", wire.MAX_GREETING + 1))
        assert within(5, fake.recv, timeout=0.2) is None
        assert wire.recv_msg(peer, timeout=5) is None
    assert not fake._greeting
    notice, = capsys.readouterr().err.splitlines()
    assert notice.startswith(
        "dropping connection that failed the worker handshake:")
    assert f"{wire.MAX_GREETING + 1}-byte frame" in notice


# ----------------------------------------------------------------------
# Bug 2: a frame whose first byte arrived completes within FRAME_TIMEOUT
# ----------------------------------------------------------------------

def test_a_half_written_frame_is_a_dead_worker(fake, monkeypatch):
    """The shared loop, so local and socket alike: the worker is gone by
    the frame deadline, told apart from a peer that closed (the launcher
    kills what it drops), and nobody else is affected."""
    monkeypatch.setattr(FakeTransport, "FRAME_TIMEOUT", 0.3)
    fake.far[0].sendall(HALF_FRAME)
    began = time.monotonic()
    gone = within(5, fake.recv, timeout=30)
    assert 0.3 <= time.monotonic() - began < 2.0
    assert isinstance(gone, wire.WorkerGone) and gone.worker_id == 0
    assert "stalled mid-frame" in gone.reason
    assert fake.put_away == [(0, False)]
    wire.send_msg(fake.far[1], wire.Heartbeat(1))
    assert isinstance(within(5, fake.recv, timeout=5), wire.Heartbeat)


def _wedged_mid_frame(*args) -> None:
    """Stands in for ``local_worker_main``: writes a header and half a
    body on whatever channel it was handed, then wedges."""
    channel = next(arg for arg in args if hasattr(arg, "fileno"))
    os.write(channel.fileno(), HALF_FRAME)
    time.sleep(600)


@requires_fork
def test_a_local_child_wedged_mid_frame_is_reaped_and_killed(monkeypatch):
    """The master used to block inside ``Connection.recv()`` — header
    read, body never coming — where no task deadline could run.  Now the
    scheduler sees an ordinary ``WorkerGone`` within ``FRAME_TIMEOUT`` and
    the wedged child is killed at the reap, not leaked."""
    monkeypatch.setattr("repro.mc.transport.local.local_worker_main",
                        _wedged_mid_frame)
    monkeypatch.setattr(LocalTransport, "FRAME_TIMEOUT", 0.5, raising=False)
    transport = LocalTransport(1, "fork", spec=None)
    transport.start(searcher=None)
    pid = transport.worker_pid(0)
    try:
        gone = within(5, transport.recv, timeout=30)
        assert isinstance(gone, wire.WorkerGone) and gone.worker_id == 0
        with pytest.raises(WorkerLost):
            transport.submit(0, TASK)
        assert within(5, transport.recv, timeout=0.1) is None
    finally:
        os.kill(pid, 9)  # unblocks a master the bug has hung
        within(10, transport.stop)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def _listening(workers: int = 1) -> SocketTransport:
    """A socket transport that only listens, on a port chosen here."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        address = "127.0.0.1:%d" % probe.getsockname()[1]
    return SocketTransport(workers, address,
                           scenarios.ping_experiment(pings=1).spec,
                           spawn_workers=False)


def _connect(transport, seconds: float = 10.0) -> socket.socket:
    """A TCP connection to ``transport``, retried until it listens."""
    host, port = transport.address.split(":")
    deadline = time.monotonic() + seconds
    while True:
        try:
            return socket.create_connection((host, int(port)))
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def _greeted(transport) -> tuple[socket.socket, int]:
    """A scripted peer that has completed the handshake: its connection
    and the worker id it was given."""
    peer = _connect(transport)
    wire.send_msg(peer, wire.Hello(host="elsewhere", pid=1))
    peer.settimeout(10)
    return peer, wire.recv_msg(peer).worker_id


def test_a_socket_worker_wedged_mid_frame_is_reaped(monkeypatch):
    """A reader thread used to sit in the half-read frame for ever: the
    master was not blocked, but the worker was never declared gone."""
    monkeypatch.setattr(SocketTransport, "FRAME_TIMEOUT", 0.5, raising=False)
    transport = _listening()
    peers = []
    fleet = in_background(lambda: peers.append(_greeted(transport)))
    try:
        within(10, transport.start, None)
        fleet.join(5)
        (peer, worker_id), = peers
        assert worker_id == 0
        with peer:
            peer.sendall(HALF_FRAME)
            gone = within(5, transport.recv, timeout=30)
            assert isinstance(gone, wire.WorkerGone) and gone.worker_id == 0
            with pytest.raises(WorkerLost):
                transport.submit(0, TASK)
    finally:
        transport.stop()


# ----------------------------------------------------------------------
# Bug 3: a connection that says nothing delays nobody
# ----------------------------------------------------------------------

def test_a_silent_connection_delays_no_joiner(monkeypatch, capfd):
    """``HANDSHAKE_TIMEOUT`` used to be spent inside the one accepting
    thread, connection by connection, so whoever connected behind a
    silent peer waited it out.  A real ``nice worker`` is admitted past
    one — by the barrier and mid-search — while it is still pending, and
    each silent connection is dropped at its own deadline."""
    monkeypatch.setattr(SocketTransport, "HANDSHAKE_TIMEOUT", 4.0)
    transport = _listening()
    silent, fleet = [], []

    def silence_then_a_worker():
        silent.append(_connect(transport))
        worker = threading.Thread(target=run_worker,
                                  args=(transport.address,), daemon=True)
        worker.start()
        fleet.append(worker)

    in_background(silence_then_a_worker)
    try:
        began = time.monotonic()
        within(10, transport.start, None)
        assert time.monotonic() - began < 2.0, "the barrier waited it out"
        assert list(transport.worker_ids()) == [0]
        # Mid-search: the same, through recv.
        silence_then_a_worker()
        began = time.monotonic()
        joined = None
        while joined is None and time.monotonic() - began < 2.0:
            joined = transport.recv(timeout=0.1)
        assert isinstance(joined, wire.WorkerJoined), "the joiner waited"
        assert joined.worker_id == 1
        # Both silent connections are still open — and are closed by the
        # master, one HANDSHAKE_TIMEOUT after each connected.
        for conn in silent:
            conn.settimeout(0)
            with pytest.raises(BlockingIOError):
                conn.recv(1)
        deadline = time.monotonic() + 6.0
        while transport._greeting and time.monotonic() < deadline:
            message = transport.recv(timeout=0.2)
            assert message is None or isinstance(message, wire.Heartbeat)
        for conn in silent:
            conn.settimeout(5)
            assert conn.recv(1) == b""
    finally:
        transport.stop()
        for conn in silent:
            conn.close()
    for worker in fleet:
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert capfd.readouterr().err.count(
        "dropping connection that failed the worker handshake") == 2


# ----------------------------------------------------------------------
# The accept barrier is the same loop
# ----------------------------------------------------------------------

def test_a_death_during_the_barrier_is_retired_silently(monkeypatch):
    """A worker that handshakes and dies before the search began was
    never the scheduler's: its slot and its id reopen, so the pool that
    ``start()`` returns is ``range(workers)``, all of it live."""
    transport = _listening(workers=2)
    peers = []

    def fleet():
        early, worker_id = _greeted(transport)
        assert worker_id == 0
        early.close()
        time.sleep(0.3)  # the master reads the EOF with the barrier open
        peers.extend(_greeted(transport) for _ in range(2))

    connecting = in_background(fleet)
    try:
        within(10, transport.start, None)
        connecting.join(5)
        assert sorted(worker_id for _, worker_id in peers) == [0, 1]
        assert list(transport.worker_ids()) == [0, 1]
        assert within(5, transport.recv, timeout=0.2) is None  # no notice
        for peer, worker_id in peers:
            transport.submit(worker_id, TASK)
            assert wire.recv_msg(peer, timeout=5).task_id == 1
    finally:
        transport.stop()
        for peer, _ in peers:
            peer.close()


def test_the_barrier_gives_up_after_accept_timeout(monkeypatch):
    monkeypatch.setattr(SocketTransport, "ACCEPT_TIMEOUT", 0.3)
    transport = _listening(workers=2)
    peers = []
    in_background(lambda: peers.append(_greeted(transport)))
    try:
        with pytest.raises(TransportError,
                           match=r"only 1/2 workers connected .* within 0s"):
            # One second: the barrier's own wake-up for dead subprocesses.
            transport.start(None)
    finally:
        transport.stop()
    (peer, _), = peers
    with peer:
        assert isinstance(wire.recv_msg(peer, timeout=5), wire.Shutdown)


def test_a_spawned_worker_that_exits_before_connecting_is_an_error(
        monkeypatch, tmp_path):
    """...and the error carries what the subprocess wrote to stderr."""
    broken = tmp_path / "python"
    broken.write_text("#!/bin/sh\necho 'no such interpreter' >&2\nexit 3\n")
    broken.chmod(0o755)
    monkeypatch.setattr("sys.executable", str(broken))
    transport = SocketTransport(1, "127.0.0.1:0",
                                scenarios.ping_experiment(pings=1).spec)
    try:
        with pytest.raises(TransportError) as error:
            within(10, transport.start, None)
    finally:
        transport.stop()
    assert "exited with code 3 before connecting" in str(error.value)
    assert "no such interpreter" in str(error.value)
