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
  :class:`Shutdown`;
* pool-membership events — :class:`WorkerGone` and :class:`WorkerJoined`.
  Transports translate their own failure signals (a dead child process,
  a socket EOF, a connection reset) into :class:`WorkerGone` so the
  scheduler sees one churn vocabulary regardless of transport; an elastic
  socket worker connecting mid-search surfaces as :class:`WorkerJoined`.
  The scheduler reacts by requeueing the dead worker's in-flight sibling
  groups (or feeding the joiner) — see DESIGN.md, "Fault tolerance and
  elasticity";
* length-prefixed pickle framing (:func:`send_msg` / :func:`recv_frame`
  / :func:`recv_msg`), the one way bytes cross a worker boundary: every
  transport's channel is a stream socket carrying these frames;
* the :class:`Codec` at each end of a channel, which sends a
  :class:`~repro.mc.transitions.Transition` in full the first time it
  crosses the channel in a direction and as a small integer after that.
  A search's traces and children are drawn from a handful of distinct
  descriptors, so the traces of an :class:`ExpandTask` and the children
  of a :class:`TaskResult` travel as integer sequences, and pickle is
  left with the new definitions, violations, stats and the handshake.
  Pickle is the serializer because what is left is trees of pure-data
  model objects (transitions, packets, stats dicts); the trust model is
  ``multiprocessing``'s — workers are processes *you* started on hosts
  you control, not an open service.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from time import monotonic as _monotonic

from repro.config import NiceConfig

#: Bump when the task/result layout changes; Hello carries it so a stale
#: remote worker fails fast instead of mis-decoding tasks.  v10: a worker
#: that its memory watchdog recycles says so with a :class:`Shutdown`
#: before it leaves.  v9: a task's traces and steps and a result's
#: ``children`` are references into the channel's descriptor tables, and
#: each message carries the ``definitions`` new on its channel
#: (:class:`Codec`).  (History: CHANGES.md.)
PROTOCOL_VERSION = 10

_HEADER = struct.Struct("!I")

#: The longest frame :func:`recv_frame` will read; a header announcing
#: more is refused before a byte of body is buffered.  The largest frame
#: of an exhaustive ``lb3`` search on 2 fork workers is a ~10 KB result
#: (medians: 0.7 KB a task, 1.9 KB a result; 22 KB / ~4.6 KB before
#: traces and children became references).
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
    scenario's own — its FLOW-IR grouping rebuilt by the registry builder,
    never pickled — with no pool behind it: workers never recurse into
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
    routing hint into the worker's retained children
    (``WorkerRuntime.retention``), never state: a worker that no longer
    holds a named child rebuilds it from ``groups`` as if no handle had
    been sent.

    ``definitions`` is empty but on a channel, where the groups hold
    references instead of transitions (:class:`Codec`).
    """

    task_id: int
    groups: list
    handles: list | None = None
    definitions: list = field(default_factory=list)


@dataclass
class TaskResult:
    """Worker -> master: the expansion of one :class:`ExpandTask`.

    ``out["children"]`` holds every child of every expanded node as its
    transition, ``out["digests"]`` their packed digest records in the
    same order (``WorkerRuntime.expand``); the master alone decides
    which are fresh.

    On a channel the children are references and ``definitions`` the
    transitions new on it (:class:`Codec`); ``frame_bytes`` is set by the
    receiving end to the length of the frame the result arrived in (0
    for one that crossed no channel).
    """

    task_id: int
    worker_id: int
    out: dict
    definitions: list = field(default_factory=list)
    frame_bytes: int = field(default=0, compare=False)


@dataclass
class WorkerError:
    """Worker -> master: the task raised; carries the formatted traceback."""

    task_id: int | None
    worker_id: int
    error: str


@dataclass
class Shutdown:
    """Master -> worker: exit cleanly.  Worker -> master: my memory
    watchdog is recycling me — not a death (:class:`WorkerGone`
    ``recycled``); the worker then waits for the master to hang up, so
    a task submitted meanwhile still finds its channel open."""


@dataclass
class WorkerGone:
    """Transport -> scheduler: a worker died (process exit, socket EOF,
    reset, or startup failure).  Not fatal by itself — the scheduler
    requeues the worker's in-flight groups, asks for a replacement and
    applies its failure policy.  ``started`` is False for a worker that
    reported it could not build its runtime: a replacement would fail
    the same way, and the groups it held are not to blame.  ``recycled``
    is True for a worker that left on its memory watchdog's word (it
    sent :class:`Shutdown`): it is replaced, its groups are not to
    blame, and its exit is no failure."""

    worker_id: int
    reason: str
    started: bool = True
    recycled: bool = False


@dataclass
class WorkerJoined:
    """Transport -> scheduler: an elastic worker connected mid-search and
    completed the Hello/Init handshake; it is ready for tasks."""

    worker_id: int
    host: str = ""
    pid: int = 0


# ----------------------------------------------------------------------
# Descriptor tables
# ----------------------------------------------------------------------

class Codec:
    """One channel end's descriptor tables (module docstring).

    :meth:`encode` turns an outgoing :class:`ExpandTask` or
    :class:`TaskResult` into its wire form: each transition becomes its
    reference — how many distinct descriptors this end had sent before
    it — and the ones sent for the first time ride along as the
    message's ``definitions``, in reference order.  :meth:`decode`
    appends a frame's definitions to those received so far and resolves
    the references against them.  The two directions number
    independently.  Both ends start empty and live as long as their
    channel, so a frame that fails mid-send, which retires the worker,
    takes the tables with it.  Descriptors are keyed by equality, which
    covers what one executes (:class:`~repro.mc.transitions.Transition`).

    ``intern`` (the master's, one per transport) maps each definition
    received to the one object every channel resolves it to, so equal
    descriptors from different workers are the same object.
    """

    def __init__(self, intern: dict | None = None):
        #: descriptor -> reference, for what this end has sent; and the
        #: same by ``(kind, actor, arg)``, the fast way in (:meth:`_ref`).
        self._sent: dict = {}
        self._fields: dict = {}
        #: reference -> descriptor, for what this end has received.
        self._received: list = []
        self._intern = intern

    def encode(self, message):
        """``message`` as it crosses the channel; anything but a task or
        a result crosses as it is."""
        definitions: list = []
        if isinstance(message, ExpandTask):
            groups = [(self._refs(trace, definitions),
                       None if steps is None
                       else self._refs(steps, definitions))
                      for trace, steps in message.groups]
            return ExpandTask(message.task_id, groups, message.handles,
                              definitions)
        if isinstance(message, TaskResult):
            out = dict(message.out)
            out["children"] = [(gi, si, self._refs(kids, definitions))
                               for gi, si, kids in out["children"]]
            return TaskResult(message.task_id, message.worker_id, out,
                              definitions)
        return message

    def decode(self, frame: bytes | None):
        """The message one frame carries, references resolved (None for
        the clean EOF :func:`recv_frame` returns as None)."""
        if frame is None:
            return None
        message = pickle.loads(frame)
        if isinstance(message, ExpandTask):
            resolve = self._define(message)
            message.groups = [
                (tuple(map(resolve, trace)),
                 None if steps is None else list(map(resolve, steps)))
                for trace, steps in message.groups]
        elif isinstance(message, TaskResult):
            resolve = self._define(message)
            message.out["children"] = [
                (gi, si, list(map(resolve, kids)))
                for gi, si, kids in message.out["children"]]
            message.frame_bytes = len(frame)
        return message

    def _refs(self, transitions, definitions: list) -> list:
        # A list, not a tuple: each one lives for one pickling, and a
        # tuple of every trace length would fill CPython's per-length
        # tuple free lists, which keep their memory for good.
        fields = self._fields
        try:
            return [fields[t.kind, t.actor, t.arg] for t in transitions]
        except (KeyError, TypeError):
            return [self._ref(t, definitions) for t in transitions]

    def _ref(self, transition, definitions: list) -> int:
        """``transition``'s reference, defining it if it is new here.

        Looked up by its raw fields first: equal fields make an equal
        descriptor, and hashing them is the interpreter's, while a
        descriptor's canonical key is computed in Python once per object
        — and a worker builds its children as new objects at every node.
        Only fields never seen (or an unhashable ``arg``) reach the
        canonical key."""
        fields = (transition.kind, transition.actor, transition.arg)
        try:
            return self._fields[fields]
        except KeyError:
            pass
        except TypeError:
            fields = None
        ref = self._sent.get(transition)
        if ref is None:
            ref = self._sent[transition] = len(self._sent)
            definitions.append(transition)
        if fields is not None:
            self._fields[fields] = ref
        return ref

    def _define(self, message):
        """Take ``message``'s definitions into the received table; the
        lookup its references resolve through."""
        definitions, message.definitions = message.definitions, []
        if self._intern is not None:
            definitions = [self._intern.setdefault(transition, transition)
                           for transition in definitions]
        self._received += definitions
        return self._received.__getitem__


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def send_msg(sock, message, timeout: float | None = None) -> None:
    """Write one length-prefixed pickled message to a stream socket.
    ``timeout`` bounds the whole frame, as in :func:`recv_msg`; without
    one the socket's mode is not touched (a worker's reply blocks until
    the master reads it: the master's frame deadline bounds that read)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.sendall(_HEADER.pack(len(payload)) + payload)
    finally:
        if timeout is not None:
            sock.settimeout(None)


def recv_frame(sock, timeout: float | None = None,
               limit: int = MAX_FRAME) -> bytes | None:
    """Read one frame's body; returns None on clean EOF at a frame
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
        return _recv_exact(sock, length, deadline)
    finally:
        if deadline is not None:
            sock.settimeout(None)


def recv_msg(sock, timeout: float | None = None, limit: int = MAX_FRAME):
    """The message of one :func:`recv_frame` frame, unpickled as it is
    (None on clean EOF)."""
    frame = recv_frame(sock, timeout, limit)
    return None if frame is None else pickle.loads(frame)


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
