"""Wire format for the parallel search (DESIGN.md, "Scheduler and
transports").

Everything a worker exchanges with the scheduler is defined here, so the
``fork``/``spawn`` local pools and the TCP socket transport speak one
protocol:

* :class:`ScenarioSpec` — a *by-name* description of a scenario (registry
  name, builder keyword arguments, final :class:`~repro.config.NiceConfig`)
  that a worker in a fresh interpreter resolves through the scenario
  registry (``repro/scenarios.py``) instead of inheriting unpicklable
  closures from a forked parent;
* task/result messages — :class:`Hello`, :class:`InitWorker`,
  :class:`ExpandTask`, :class:`TaskResult`, :class:`WorkerError`,
  :class:`Shutdown`, :class:`Heartbeat`;
* pool-membership events — :class:`WorkerGone` and :class:`WorkerJoined`.
  Transports translate their own failure signals (a dead child process,
  a socket EOF, a connection reset) into :class:`WorkerGone` so the
  scheduler sees one churn vocabulary regardless of transport; an elastic
  socket worker connecting mid-search surfaces as :class:`WorkerJoined`.
  The scheduler reacts by requeueing the dead worker's in-flight sibling
  groups (or feeding the joiner) — see DESIGN.md, "Fault tolerance and
  elasticity";
* length-prefixed pickle framing (:func:`send_msg` / :func:`recv_msg`),
  the one way bytes cross a worker boundary: every transport's channel is
  a stream socket carrying these frames.  Pickle is the serializer because
  tasks and results are trees of pure-data model objects
  (:class:`~repro.mc.transitions.Transition`, packets, stats dicts); the
  trust model is ``multiprocessing``'s — workers are processes *you*
  started on hosts you control, not an open service.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from time import monotonic as _monotonic

from repro.config import NiceConfig

#: Bump when the task/result layout changes; Hello carries it so a stale
#: remote worker fails fast instead of mis-decoding tasks.  v7: a result
#: is ``children`` (bare transitions) plus one packed ``digests`` blob,
#: an :class:`ExpandTask` carries retention handles, workers beat
#: :class:`Heartbeat` on the result channel.  (History: CHANGES.md.)
PROTOCOL_VERSION = 7

_HEADER = struct.Struct("!I")

#: The longest frame :func:`recv_msg` will read; a header announcing more
#: is refused before a byte of body is buffered.  The largest frame of an
#: ``lb3`` search is 23 KB (median 6 KB; bench/README.md).
MAX_FRAME = 16 << 20
#: The same for a connection's first frame, which anything that reaches
#: ``--listen`` can send: a :class:`Hello` is under 100 bytes.
MAX_GREETING = 1 << 10


# ----------------------------------------------------------------------
# Scenario specs: rebuild a System by name in a fresh interpreter
# ----------------------------------------------------------------------

@dataclass
class ScenarioSpec:
    """A scenario by registry name + builder kwargs + final config.

    ``kwargs`` are the keyword arguments the builder was originally called
    with; ``config`` is the scenario's *final* config (builders adjust
    bounds), applied verbatim after rebuilding so master and workers agree
    on every knob.
    """

    name: str
    kwargs: dict = field(default_factory=dict)
    config: NiceConfig = field(default_factory=NiceConfig)

    def build(self):
        """Resolve the registry and rebuild the scenario."""
        from repro import scenarios  # deferred: scenarios imports this module

        builder = scenarios.REGISTRY.get(self.name)
        if builder is None:
            raise KeyError(
                f"scenario {self.name!r} is not in the registry; known:"
                f" {sorted(scenarios.REGISTRY)}"
            )
        scenario = builder(**self.kwargs)
        scenario.config = self.config
        scenario.spec = self
        return scenario


def spec_is_portable(spec: ScenarioSpec | None) -> bool:
    """Whether ``spec`` can cross a process boundary: present and
    picklable (a builder kwarg that is a lambda/closure is not)."""
    if spec is None:
        return False
    try:
        pickle.dumps(spec)
    except Exception:  # noqa: BLE001 - any pickling failure disqualifies
        return False
    return True


def searcher_from_spec(spec: ScenarioSpec):
    """The :class:`~repro.mc.search.Searcher` a worker expands with: the
    scenario's own, with no pool behind it — workers never recurse into
    the scheduler."""
    return spec.build().with_config(workers=0).make_searcher()


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------

@dataclass
class Hello:
    """Worker -> master, first message after connecting.

    ``host``/``pid`` identify the worker process: they are logged when an
    elastic worker joins a live run, and ``pid`` is what lets the master
    kill a co-located worker (the fault-injection hook
    ``Transport.kill_worker`` used by the chaos tests).
    """

    protocol: int = PROTOCOL_VERSION
    host: str = ""
    pid: int = 0


@dataclass
class InitWorker:
    """Master -> worker: build your scenario and await tasks."""

    spec: ScenarioSpec
    worker_id: int = 0


@dataclass
class ExpandTask:
    """Master -> worker: expand these sibling groups.

    ``groups`` is a list of ``(parent trace, [transition, ...] | None)``
    pairs — ``None`` marks the initial-state group.

    ``handles`` runs parallel to ``groups``, or is None
    when no group has one: entry *i* is ``(task id, node position, kid
    indices)`` naming where the receiving worker *itself* produced group
    *i*'s siblings — the task whose result shipped them, the position of
    their parent node in that result's ``children`` list, and each
    sibling's index among the node's kids — or None.  A handle is a
    routing hint into the worker's retained-children store
    (``WorkerRuntime.retained``), never state: a worker that no longer
    holds a named child rebuilds it from ``groups`` as if no handle had
    been sent.
    """

    task_id: int
    groups: list
    handles: list | None = None


@dataclass
class TaskResult:
    """Worker -> master: the expansion of one :class:`ExpandTask`.

    ``out["children"]`` holds every child of every expanded node as its
    transition, ``out["digests"]`` their packed digest records in the
    same order (``WorkerRuntime.expand``); the master alone decides
    which are fresh.
    """

    task_id: int
    worker_id: int
    out: dict


@dataclass
class WorkerError:
    """Worker -> master: the task raised; carries the formatted traceback."""

    task_id: int | None
    worker_id: int
    error: str


@dataclass
class Shutdown:
    """Master -> worker: exit cleanly."""


@dataclass
class Heartbeat:
    """Worker -> master: periodic liveness beat.

    Sent by a daemon thread every ``heartbeat_interval`` seconds on the
    same channel as results.  A beat proves the worker *process* is alive
    and its channel healthy — it does not prove the current task is making
    progress (a handler spinning in a pure-Python loop still lets the beat
    thread run), which is why hang detection keys off the per-task
    deadline, with beat staleness reported as corroborating evidence."""

    worker_id: int


@dataclass
class WorkerGone:
    """Transport -> scheduler: a worker died (process exit, socket EOF,
    reset, or startup failure).  Not fatal by itself — the scheduler
    requeues the worker's in-flight groups and applies the
    ``min_workers``/``max_worker_failures`` policy."""

    worker_id: int
    reason: str


@dataclass
class WorkerJoined:
    """Transport -> scheduler: an elastic worker connected mid-search and
    completed the Hello/Init handshake; it is ready for tasks."""

    worker_id: int
    host: str = ""
    pid: int = 0


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def send_msg(sock, message, timeout: float | None = None) -> None:
    """Write one length-prefixed pickled message to a stream socket.
    ``timeout`` bounds the whole frame, as in :func:`recv_msg`; without
    one the socket's mode is not touched (a worker's heartbeat thread
    sends while its main thread sits in a blocking read)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.sendall(_HEADER.pack(len(payload)) + payload)
    finally:
        if timeout is not None:
            sock.settimeout(None)


def recv_msg(sock, timeout: float | None = None, limit: int = MAX_FRAME):
    """Read one framed message; returns None on clean EOF at a frame
    boundary.  The one timeout rule of every channel: ``timeout`` seconds
    from the call for the *whole* frame (``TimeoutError``), however the
    peer paces its bytes — callers that must not wait for a first byte
    call once the socket is readable.  A frame announced longer than
    ``limit`` is a ``ConnectionError`` and none of it is read."""
    deadline = None if timeout is None else _monotonic() + timeout
    try:
        header = _recv_exact(sock, _HEADER.size, deadline, allow_eof=True)
        if header is None:
            return None
        (length,) = _HEADER.unpack(header)
        if length > limit:
            raise ConnectionError(f"peer announced a {length}-byte frame;"
                                  f" at most {limit} are accepted here")
        return pickle.loads(_recv_exact(sock, length, deadline))
    finally:
        if deadline is not None:
            sock.settimeout(None)


def _recv_exact(sock, count: int, deadline, allow_eof: bool = False):
    chunks = []
    remaining = count
    while remaining:
        if deadline is not None:
            sock.settimeout(max(deadline - _monotonic(), 0.001))
        try:
            chunk = sock.recv(remaining)
        except TimeoutError:
            raise TimeoutError(f"peer stalled mid-frame ({count - remaining}"
                               f"/{count} bytes)") from None
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ConnectionError(
                f"socket closed mid-frame ({count - remaining}/{count} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
