"""Worker-side runtime of the parallel search.

A worker — forked, spawned, or connected over TCP — runs the same code:
build a :class:`WorkerRuntime`, then expand :class:`~repro.mc.wire.ExpandTask`
sibling groups until told to stop.  Each node goes through the search
loop's own per-node body (:meth:`Searcher.expand_node
<repro.mc.search.Searcher.expand_node>`, the function the serial engine
calls); this module is the transport boundary around it: *restoration*
of the nodes to expand (parent replay, sibling rebuild — none of it
counted in the transition totals), *retention* of the children built,
and *packing* of the result for the wire.

Restoration and retention are the one :class:`~repro.mc.replay.Retention`
the serial engine also holds (DESIGN.md, "Retained children and
handles"): a worker keeps the children it ships, the scheduler sends a
child's address back with its sibling group — a *handle* — and the
worker expands the very System it built; any sibling it cannot pick up
is rebuilt from the nearest cached ancestor.

Deduplication is the master's alone (DESIGN.md, "Dedup"): a worker ships
every child it builds.  What it decides locally is only which of them to
*keep* — ``WorkerRuntime.seen`` remembers the digests this worker has
hashed, and a child whose digest it has hashed before is shipped but not
retained: the master will find it a revisit, so no handle will name it.

While it serves (:func:`_serve`, the loop of every transport and the sandbox)
a worker's cyclic collector has a task-sized young generation
(:data:`GC_YOUNG_THRESHOLD`).
"""

from __future__ import annotations

import gc
import os
import sys
import traceback

from repro.mc.replay import Retention
from repro.mc.store import pack_digest
from repro.mc.strategies import make_strategy
from repro.mc.wire import (
    Codec,
    ExpandTask,
    Hello,
    InitWorker,
    Shutdown,
    TaskResult,
    WorkerError,
    recv_frame,
    recv_msg,
    searcher_from_spec,
    send_msg,
)

#: Set by the local transport in the parent around a fork, so the child
#: inherits the live searcher (closures included) by copy-on-write.
#: Spawned and socket workers rebuild theirs from a ScenarioSpec instead.
_INHERITED_SEARCHER = None

#: Young-generation threshold of the cyclic collector while a worker
#: serves (:func:`_serve`): about one task's worth of built containers,
#: where CPython's 700 is seven Systems' (~100 containers each).  The
#: ~1 000 Systems a worker keeps are live and its garbage is not cyclic
#: (~700 objects collected in a whole ``lb3`` run), so a collection walks
#: what it cannot free.  Collector seconds per worker on ``lb3``, 2
#: workers (BENCH_scaling.json; DESIGN.md "Measured: where the saving
#: shows, and what is left"): 700 -> 0.50-0.63 (550-645 young, 50-59
#: middle, 4-5 full collections), 5 000 -> 0.25, 20 000 -> 0.12-0.17
#: (6-8 young, 1 middle), 100 000 -> 0.07-0.13 — which eight alternating runs
#: could not tell from 20 000 end to end, so the smaller bound on
#: uncollected garbage stands.
GC_YOUNG_THRESHOLD = 20_000


class BloomFilter:
    """A k=2 double-hashed bitset over packed digest records: the
    retention hint (``WorkerRuntime.seen``).  Sizes round up to a power
    of two (each probe is a mask, not a modulo) and both probe positions
    come from record bytes ``[6:14]``.  A false positive costs one
    rebuild, never correctness; a record whose bits were added is never
    reported new again.
    """

    __slots__ = ("mask", "data")

    def __init__(self, bits: int):
        m = 1 << max(3, (bits - 1).bit_length())
        self.mask = m - 1
        self.data = bytearray(m >> 3)

    def add(self, record: bytes) -> bool:
        """Set ``record``'s bits; True iff any bit actually changed —
        ``record`` was definitely never added before."""
        data = self.data
        mask = self.mask
        b = int.from_bytes(record[6:14], "little")
        b1 = b & mask
        b2 = (b >> 32) & mask
        changed = False
        byte, bit = b1 >> 3, 1 << (b1 & 7)
        if not data[byte] & bit:
            data[byte] |= bit
            changed = True
        byte, bit = b2 >> 3, 1 << (b2 & 7)
        if not data[byte] & bit:
            data[byte] |= bit
            changed = True
        return changed


class WorkerRuntime:
    """Everything one worker process needs, built once per process."""

    #: Bits of the retention hint (:attr:`seen`): 128 KiB per worker.
    SEEN_BITS = 1 << 20

    def __init__(self, searcher):
        self.searcher = searcher
        self.config = searcher.config
        initial = searcher.system_factory()
        self.strategy = (searcher._strategy
                         or make_strategy(self.config, initial.app))
        for prop in searcher.properties:
            prop.reset(initial)
        #: Every System this worker keeps: children under ``(task id,
        #: node position)`` and kid index, and the replay LRU.
        self.retention = Retention(initial, self.strategy)
        #: Retention hint: the digests this worker has hashed.  A child
        #: whose digest is (probably) among them is a revisit the master
        #: will drop, so it is shipped but not retained.  Nothing checks
        #: the answer: a false positive costs one rebuild through
        #: :meth:`restore`'s fallback, a miss one System kept until shed.
        #: None (retain everything) without digests.
        self.seen = (BloomFilter(self.SEEN_BITS)
                     if self.config.state_matching else None)

    def restore(self, trace, steps, handle, out) -> list:
        """One sibling group's Systems: those retained under ``handle``
        picked up, any other (no handle, evicted, declined by
        :attr:`seen`) rebuilt."""
        picked = ()
        if handle is not None:
            task_id, position, kids = handle
            kept = self.retention.take((task_id, position))
            if kept:
                picked = [kept.get(kid) for kid in kids]
        return self.retention.restore(trace, steps, picked, out)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def _nodes(self, groups, handles, out):
        """Every node of every sibling group, restored group by group:
        ``(group index, sibling index | None, depth, System)``."""
        for gi, (trace, steps) in enumerate(groups):
            if steps is None:       # the initial-state group
                root = self.retention.base_for(trace, out)
                self.retention.remember(trace, root)
                yield gi, None, len(trace), root
            else:
                handle = handles[gi] if handles else None
                for si, system in enumerate(
                        self.restore(trace, steps, handle, out)):
                    yield gi, si, len(trace) + 1, system

    def expand(self, groups, task_id=None, handles=None) -> dict:
        """Expand every node of every sibling group through the search
        loop's own per-node body (:meth:`Searcher.expand_node
        <repro.mc.search.Searcher.expand_node>`), and pack what it
        returns for the wire.

        Nodes are referenced back to the master as
        ``(group index, sibling index | None)`` so only transitions and
        digests cross the process boundary, never System objects: the
        one result layout is ``out["children"]``, a ``(gi, si,
        [transition, ...])`` entry per node with kids, beside
        ``out["digests"]``, every kid's packed record in kid order (a
        pickled digest string costs ~40 B per kid, its record the raw
        16) — empty without state matching, which hashes no child.

        Every child is shipped; one whose digest this worker had not
        hashed before (:attr:`seen`) is also *retained* under
        ``(task_id, position of its parent in out["children"])`` and its
        kid index; ``handles`` (parallel to ``groups``, see
        :class:`~repro.mc.wire.ExpandTask`) names the retained children
        the groups of this task were, and :meth:`restore` picks them up.
        Without a ``task_id`` nothing is retained.
        """
        searcher, seen = self.searcher, self.seen
        stats = searcher.stats
        hash_stats = self.retention.initial._hash_stats
        # Every system this worker touches descends from one initial by
        # clone, so one shared HashStats accumulates the hot-path counters
        # (as the searcher's stats do its discovery runs); each result
        # carries this task's delta back to the master.
        hashed = hash_stats.snapshot()
        discovered = (stats.discover_packet_runs, stats.discover_stats_runs)
        children, violations = [], []
        # Every kid's record: the retention hint's key here, its slice
        # of the wire blob next.
        records = []
        out = {
            "children": children,   # (gi, si, [transition, ...])
            "quiescent": 0,
            # (property, message, hash, gi, si, transition[, traceback])
            "violations": violations,
            "transitions": 0,
            "replayed": 0,      # base_for suffix replays (not in totals)
            "rebuilt": 0,       # siblings re-executed from a base (ditto)
            "cache_hits": 0,
            "cache_misses": 0,
        }
        for gi, si, depth, system in self._nodes(groups, handles, out):
            steps, digests, built, found, transitions, quiescent = \
                searcher.expand_node(system, self.strategy, depth)
            out["transitions"] += transitions
            out["quiescent"] += quiescent
            violations += [record[:3] + (gi, si) + record[3:]
                           for record in found]
            if steps:
                if seen is None:
                    keep = dict(enumerate(built))
                else:
                    keep = {}
                    for index, digest in enumerate(digests):
                        record = pack_digest(digest)
                        records.append(record)
                        if seen.add(record):
                            keep[index] = built[index]
                if task_id is not None:
                    self.retention.keep((task_id, len(children)), keep)
                children.append((gi, si, steps))
            if found and self.config.stop_at_first_violation:
                # The master stops at the first violation it absorbs; the
                # kids hashed so far still ship, and are committed.
                break
        out["digests"] = b"".join(records)
        out["discover_packet_runs"] = \
            stats.discover_packet_runs - discovered[0]
        out["discover_stats_runs"] = stats.discover_stats_runs - discovered[1]
        out["hash_stats"] = tuple(
            now - before for now, before
            in zip(hash_stats.snapshot(), hashed))
        return out

    # ------------------------------------------------------------------
    # Memory watchdog
    # ------------------------------------------------------------------

    def should_recycle(self, worker_id: int) -> bool:
        """Memory watchdog (``worker_memory_limit``), called between tasks.

        Over the limit, shed the replay cache and the retained children
        first — they are the unbounded-value structures a worker owns,
        and losing them only costs restoration replays.  Still over after
        a collection, ask to be recycled: the caller tells the master
        (``Shutdown``), which replaces the process — no failure, and no
        group charged — and leaves once the master hangs up.  Checked
        *after* a result is sent, so even a worker whose base RSS exceeds
        the limit makes forward progress (one task per incarnation)."""
        limit = self.config.worker_memory_limit
        if not limit:
            return False
        rss = _rss_bytes()
        if rss is None or rss <= limit:
            return False
        old = self.retention
        print(f"search worker {worker_id}: rss {rss} B over"
              f" worker_memory_limit {limit} B; shedding replay cache"
              f" ({len(old.cache)} entries) and {old.systems}"
              f" retained children", file=sys.stderr, flush=True)
        self.retention = Retention(old.initial, self.strategy)
        del old
        gc.collect()
        rss = _rss_bytes()
        if rss is None or rss <= limit:
            return False
        print(f"search worker {worker_id}: rss {rss} B still over limit;"
              f" recycling", file=sys.stderr, flush=True)
        return True


def _rss_bytes() -> int | None:
    """Resident set size of this process, or None if unmeasurable."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        # High-water mark: a conservative fallback.  KiB — except on
        # darwin, where ru_maxrss is already bytes.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024
    except Exception:  # noqa: BLE001 - no resource module on this platform
        return None


# ----------------------------------------------------------------------
# Process entry points
# ----------------------------------------------------------------------

def _serve(make_runtime, worker_id: int, recv, send) -> None:
    """A worker's whole life after its channel is up, one for every
    transport: build the :class:`WorkerRuntime` (``make_runtime()``) — a
    failure is reported as a :class:`~repro.mc.wire.WorkerError` with no
    task id, which the transports read as "failed to start" — then loop:
    ``recv()`` returns the master's next message (None on a clean EOF)
    and ``send(reply)`` ships one back; both raise ``OSError`` once the
    channel is gone.  A worker speaks only to answer: one reply per task.
    Returns when told to stop, when the master hangs up, or when the
    memory watchdog asks for this process to be recycled.

    The loop runs under the worker's collector policy: the young
    generation is :data:`GC_YOUNG_THRESHOLD` allocations wide until the
    loop exits — by any path — and the caller's thresholds are back (an
    in-process caller, a test or a simulation transport, never inherits
    them)."""
    try:
        runtime = make_runtime()
    except Exception:  # noqa: BLE001 - report startup failure to the master
        send(WorkerError(None, worker_id, traceback.format_exc()))
        _linger(recv)
        return
    thresholds = gc.get_threshold()
    try:
        gc.set_threshold(GC_YOUNG_THRESHOLD, *thresholds[1:])
        while True:
            try:
                message = recv()
            except OSError:
                return  # master hung up (early stop) — a clean shutdown
            if message is None or isinstance(message, Shutdown):
                return
            if not isinstance(message, ExpandTask):
                raise ConnectionError(f"unexpected message {message!r}")
            try:
                out = runtime.expand(message.groups,
                                     task_id=message.task_id,
                                     handles=message.handles)
                reply = TaskResult(message.task_id, worker_id, out)
            except Exception:  # noqa: BLE001 - surface the traceback
                reply = WorkerError(message.task_id, worker_id,
                                    traceback.format_exc())
            try:
                send(reply)
            except OSError:
                # The master stopped reading mid-task (first violation
                # found, transition cap hit, or it gave up on the pool):
                # its search is over, so are we.
                return
            if runtime.should_recycle(worker_id):
                # Say so, then leave once the master hangs up: it requeues
                # the task we were sent meanwhile uncharged, counts no
                # failure, and replaces us with a fresh-memory sibling.
                try:
                    send(Shutdown())
                except OSError:
                    return
                _linger(recv)
                return
    finally:
        gc.set_threshold(*thresholds)


def _linger(recv) -> None:
    """Wait, reading and ignoring tasks, until the master hangs up on a
    worker that has said it is leaving.  A task the master submits
    meanwhile must find the channel open, or that failed submit — not
    what the worker said — is the death the master hears of."""
    try:
        while not isinstance(recv(), (Shutdown, type(None))):
            pass
    except OSError:
        pass


def _serve_channel(sock, worker_id: int, spec) -> None:
    """:func:`_serve` over a worker's channel — one stream socket of
    ``wire`` frames, whoever launched the process, and this end's
    descriptor tables, as new as the channel.  ``spec`` None means a
    fork child: the searcher is :data:`_INHERITED_SEARCHER`."""
    codec = Codec()
    _serve(lambda: WorkerRuntime(_INHERITED_SEARCHER if spec is None
                                 else searcher_from_spec(spec)),
           worker_id, lambda: codec.decode(recv_frame(sock)),
           lambda message: send_msg(sock, codec.encode(message)))


def local_worker_main(worker_id: int, sock, spec,
                      limits: dict | None = None) -> None:
    """Entry point of a local-transport worker process; ``sock`` is its
    end of the ``socketpair`` the master made for it, ``spec`` the
    :class:`~repro.mc.wire.ScenarioSpec` to rebuild from under ``spawn``.

    ``limits`` makes this process the quarantine sandbox (DESIGN.md,
    "Failure containment"): rlimits applied before anything is built —
    CPU to contain hangs, address space to contain memory bombs, no core
    dumps — and the sandbox advertised to the model under test, so the
    hostile test apps (``repro/apps/hostile.py``) can model a task that
    was poisonous to the fleet but is salvageable on the isolated retry.
    """
    if limits is not None:
        os.environ["NICE_QUARANTINE"] = "1"
        _apply_rlimits(limits)
    _serve_channel(sock, worker_id, spec)


#: Seconds a connecting worker waits for the master's InitWorker reply —
#: pointed at a non-master port (an HTTP server, say) it must error out,
#: not hang forever on a frame header that never arrives.
INIT_TIMEOUT = 30.0


def socket_worker_loop(sock) -> None:
    """Serve one master over a connected socket until Shutdown/EOF."""
    import socket as socket_mod

    send_msg(sock, Hello(host=socket_mod.gethostname(), pid=os.getpid()),
             INIT_TIMEOUT)
    init = recv_msg(sock, INIT_TIMEOUT)
    if not isinstance(init, InitWorker):
        raise ConnectionError(f"expected InitWorker, got {init!r}")
    _serve_channel(sock, init.worker_id, init.spec)


def _apply_rlimits(limits: dict) -> None:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return
    for key, which in (("cpu", "RLIMIT_CPU"),
                       ("address_space", "RLIMIT_AS")):
        value = limits.get(key)
        if not value:
            continue
        try:
            resource.setrlimit(getattr(resource, which),
                               (int(value), int(value)))
        except (OSError, ValueError):  # pragma: no cover - host forbids it
            pass
    try:
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    except (OSError, ValueError):  # pragma: no cover
        pass
